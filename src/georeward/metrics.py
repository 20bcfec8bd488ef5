"""Evaluation metrics that are deliberately independent of the reward
path: fundamental-matrix estimation from flow-sampled correspondences,
Sampson error, and the mean-flow-magnitude dynamic-degree proxy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, InsufficientDataError, ShapeError
from .camera import Intrinsics, PoseSE3

# Design-matrix rank test: s[7]/s[0] below this means no unique F direction.
_RANK_RTOL = 1e-7
_SAMPSON_DENOM_MIN = 1e-18


@dataclass
class CorrespondenceSet:
    """Matched pixel pairs (uv_a[i] in frame a, uv_b[i] in frame b)."""

    uv_a: np.ndarray
    uv_b: np.ndarray

    def __post_init__(self):
        self.uv_a = np.asarray(self.uv_a, dtype=np.float64)
        self.uv_b = np.asarray(self.uv_b, dtype=np.float64)
        if self.uv_a.shape != self.uv_b.shape or self.uv_a.ndim != 2 or self.uv_a.shape[1] != 2:
            raise ShapeError(
                f"correspondences must be matching (n, 2) arrays, got {self.uv_a.shape} vs {self.uv_b.shape}"
            )
        if not (np.isfinite(self.uv_a).all() and np.isfinite(self.uv_b).all()):
            raise InputError("correspondences contain non-finite coordinates")

    def __len__(self):
        return self.uv_a.shape[0]


def sample_correspondences(flow_fwd, grid_step, static_mask=None) -> CorrespondenceSet:
    """Correspondences u -> u + flow(u) on a regular pixel lattice.

    static_mask (True = usable) drops a pair when either endpoint lands on
    a masked-out pixel; the target is looked up at its rounded position.
    Out-of-bounds targets are dropped. Fewer than 8 survivors is an error,
    since no fundamental matrix could be estimated downstream.
    """
    flow = np.asarray(flow_fwd, dtype=np.float64)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ShapeError(f"flow must be (h, w, 2), got {flow.shape}")
    if grid_step < 1:
        raise InputError(f"grid_step must be >= 1, got {grid_step}")
    h, w = flow.shape[:2]
    ys, xs = np.mgrid[0:h:grid_step, 0:w:grid_step]
    ys, xs = ys.ravel(), xs.ravel()
    uv_a = np.stack([xs, ys], axis=1).astype(np.float64)
    uv_b = uv_a + flow[ys, xs]

    keep = (
        (uv_b[:, 0] >= 0.0)
        & (uv_b[:, 0] <= w - 1.0)
        & (uv_b[:, 1] >= 0.0)
        & (uv_b[:, 1] <= h - 1.0)
    )
    if static_mask is not None:
        mask = np.asarray(static_mask, dtype=bool)
        if mask.shape != (h, w):
            raise ShapeError(f"static mask shape {mask.shape} does not match flow {flow.shape[:2]}")
        keep &= mask[ys, xs]
        bx = np.clip(np.rint(uv_b[:, 0]), 0, w - 1).astype(int)
        by = np.clip(np.rint(uv_b[:, 1]), 0, h - 1).astype(int)
        keep &= mask[by, bx]
    if int(keep.sum()) < 8:
        raise InsufficientDataError(
            f"only {int(keep.sum())} usable correspondences; need at least 8"
        )
    return CorrespondenceSet(uv_a[keep], uv_b[keep])


def _homogeneous(uv):
    return np.concatenate([uv, np.ones((uv.shape[0], 1))], axis=1)


def _hartley_transform(uv):
    centroid = uv.mean(axis=0)
    d = np.linalg.norm(uv - centroid, axis=1).mean()
    if d < 1e-12:
        raise DegeneracyError("correspondence points are coincident")
    s = np.sqrt(2.0) / d
    return np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])


def eight_point(correspondences: CorrespondenceSet) -> np.ndarray:
    """Hartley-normalized linear estimate of the fundamental matrix.

    Returns a rank-2, unit-Frobenius-norm 3x3 matrix with u_b' F u_a = 0 in
    homogeneous pixel coordinates. Configurations whose design matrix has
    rank < 8 (zero motion, pure rotation, coincident points) have no unique
    solution and raise instead of returning garbage.
    """
    n = len(correspondences)
    if n < 8:
        raise InsufficientDataError(f"eight-point needs >= 8 pairs, got {n}")
    t_a = _hartley_transform(correspondences.uv_a)
    t_b = _hartley_transform(correspondences.uv_b)
    pa = _homogeneous(correspondences.uv_a) @ t_a.T
    pb = _homogeneous(correspondences.uv_b) @ t_b.T

    # u_b' F u_a = 0, one row per pair, columns ordered F11..F33.
    a = np.stack(
        [
            pb[:, 0] * pa[:, 0],
            pb[:, 0] * pa[:, 1],
            pb[:, 0],
            pb[:, 1] * pa[:, 0],
            pb[:, 1] * pa[:, 1],
            pb[:, 1],
            pa[:, 0],
            pa[:, 1],
            np.ones(n),
        ],
        axis=1,
    )
    _, s, vt = np.linalg.svd(a)
    if s[7] < _RANK_RTOL * s[0]:
        raise DegeneracyError(
            "correspondences are degenerate for the eight-point system (no parallax?)"
        )
    f_norm = vt[-1].reshape(3, 3)

    u, sv, vt2 = np.linalg.svd(f_norm)
    f_norm = u @ np.diag([sv[0], sv[1], 0.0]) @ vt2
    f = t_b.T @ f_norm @ t_a
    return f / np.linalg.norm(f)


@dataclass
class SampsonResult:
    """Per-pair first-order geometric errors; pairs with a vanishing
    denominator are excluded from errors/mean and counted in skipped."""

    errors: np.ndarray
    mean: float
    skipped: int

    @property
    def pairs(self):
        return int(self.errors.size)


def sampson_error(f, correspondences: CorrespondenceSet) -> SampsonResult:
    """Sampson distance (u_b' F u_a)^2 / (l_a_1^2 + l_a_2^2 + l_b_1^2 + l_b_2^2)
    per pair, with l_a = F u_a and l_b = F^T u_b."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (3, 3):
        raise ShapeError(f"fundamental matrix must be 3x3, got {f.shape}")
    pa = _homogeneous(correspondences.uv_a)
    pb = _homogeneous(correspondences.uv_b)
    fa = pa @ f.T
    fb = pb @ f
    top = (pb * fa).sum(axis=1) ** 2
    denom = fa[:, 0] ** 2 + fa[:, 1] ** 2 + fb[:, 0] ** 2 + fb[:, 1] ** 2
    ok = denom >= _SAMPSON_DENOM_MIN
    errors = top[ok] / denom[ok]
    skipped = int((~ok).sum())
    if errors.size == 0:
        raise InsufficientDataError("every pair hit the Sampson denominator guard")
    return SampsonResult(errors=errors, mean=float(errors.mean()), skipped=skipped)


def dynamic_degree(flows) -> float:
    """Mean flow magnitude in pixels over all pixels of a list of fields; a
    scene-motion proxy used for reporting, not for rewards."""
    flows = list(flows)
    if not flows:
        raise InputError("need at least one flow field")
    mags = []
    for f in flows:
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 3 or f.shape[2] != 2:
            raise ShapeError(f"flow must be (h, w, 2), got {f.shape}")
        mags.append(np.hypot(f[..., 0], f[..., 1]).ravel())
    return float(np.concatenate(mags).mean())


def fundamental_from_pose(k_a: Intrinsics, k_b: Intrinsics, transform: PoseSE3) -> np.ndarray:
    """Analytic F = K_b^-T [t]x R K_a^-1 from a relative pose, unit
    Frobenius norm. Zero translation has no fundamental matrix."""
    t = transform.t
    if np.linalg.norm(t) < 1e-12:
        raise DegeneracyError("zero translation: fundamental matrix is undefined")
    ka_inv = np.array(
        [[1.0 / k_a.fx, 0.0, -k_a.cx / k_a.fx], [0.0, 1.0 / k_a.fy, -k_a.cy / k_a.fy], [0.0, 0.0, 1.0]]
    )
    kb_inv = np.array(
        [[1.0 / k_b.fx, 0.0, -k_b.cx / k_b.fx], [0.0, 1.0 / k_b.fy, -k_b.cy / k_b.fy], [0.0, 0.0, 1.0]]
    )
    tx = np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])
    f = kb_inv.T @ tx @ transform.r @ ka_inv
    return f / np.linalg.norm(f)
