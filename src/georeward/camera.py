"""Pinhole projection, SE(3) poses, rigid flow, and depth reprojection.

Conventions used throughout the package:
  * poses are world-to-camera, x_cam = R @ x_world + t, units in meters;
  * +z points forward, so depth is the camera-frame z coordinate;
  * flow fields are (dx, dy) in pixels on the source pixel grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

# Points reprojected to z <= Z_MIN are marked invalid instead of producing
# near-infinite pixel coordinates.
Z_MIN = 1e-6

_ROT_TOL = 1e-9


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(np.isfinite(v) for v in vals):
            raise DomainError(f"intrinsics must be finite, got {vals}")
        if self.fx <= 0 or self.fy <= 0:
            raise DomainError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


def _check_rotation(r, what):
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise ShapeError(f"{what} rotation must be 3x3, got {r.shape}")
    if not np.isfinite(r).all():
        raise DomainError(f"{what} rotation must be finite")
    if np.abs(r.T @ r - np.eye(3)).max() > _ROT_TOL:
        raise DomainError(f"{what} rotation is not orthonormal within {_ROT_TOL}")
    if abs(np.linalg.det(r) - 1.0) > _ROT_TOL:
        raise DomainError(f"{what} rotation must have det +1")
    return r


class PoseSE3:
    """World-to-camera rigid transform."""

    __slots__ = ("r", "t")

    def __init__(self, r, t):
        self.r = _check_rotation(r, "pose")
        t = np.asarray(t, dtype=np.float64).reshape(-1)
        if t.shape != (3,) or not np.isfinite(t).all():
            raise ShapeError(f"translation must be a finite 3-vector, got {t}")
        self.t = t

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.r.T + self.t

    def inverse(self):
        return PoseSE3(self.r.T, -self.r.T @ self.t)

    def matrix34(self):
        return np.hstack([self.r, self.t[:, None]])

    def __repr__(self):
        return f"PoseSE3(r={self.r.tolist()}, t={self.t.tolist()})"


def relative_transform(e_a: PoseSE3, e_b: PoseSE3) -> PoseSE3:
    """Transform taking camera-a coordinates to camera-b coordinates.

    Composing the result with e_a reproduces e_b: T(E_a x) = E_b x.
    """
    r = e_b.r @ e_a.r.T
    t = e_b.t - r @ e_a.t
    return PoseSE3(r, t)


def unproject(uv, depth, k: Intrinsics):
    """Lift pixels to camera-frame 3D points at the given depths.

    uv is (..., 2), depth broadcasts to (...). Depth must be positive and
    finite; projecting the result with the same intrinsics returns uv exactly.
    """
    uv = np.asarray(uv, dtype=np.float64)
    if uv.shape[-1] != 2:
        raise ShapeError(f"pixels must end in an (x, y) axis, got shape {uv.shape}")
    d = np.asarray(depth, dtype=np.float64)
    if not np.isfinite(d).all() or (d <= 0).any():
        raise DomainError("depth must be finite and > 0")
    x = d * (uv[..., 0] - k.cx) / k.fx
    y = d * (uv[..., 1] - k.cy) / k.fy
    return np.stack([x, y, d], axis=-1)


def project(points, k: Intrinsics):
    """Project camera-frame points to pixels; z must exceed Z_MIN."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 3:
        raise ShapeError(f"points must end in an xyz axis, got shape {pts.shape}")
    z = pts[..., 2]
    if (z <= Z_MIN).any():
        raise DomainError(f"cannot project points with z <= {Z_MIN}")
    u = k.fx * pts[..., 0] / z + k.cx
    v = k.fy * pts[..., 1] / z + k.cy
    return np.stack([u, v], axis=-1)


def _moved_lattice(depth, k_src: Intrinsics, transform: PoseSE3):
    """Unproject every pixel of an HxW depth map and apply `transform`.

    Returns (uv, moved, valid, zs): the (x, y) pixel lattice, the moved
    camera-frame points, validity (finite D > 0 and moved z > Z_MIN), and
    the moved z with invalid pixels set to 1 so callers may divide by it.
    """
    d = np.asarray(depth, dtype=np.float64)
    if d.ndim != 2:
        raise ShapeError(f"depth must be HxW, got shape {d.shape}")
    h, w = d.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    uv = np.stack([xs, ys], axis=-1)

    valid = np.isfinite(d) & (d > 0)
    ds = np.where(valid, d, 1.0)  # placeholder depth, masked out by valid
    pts = np.stack(
        [ds * (uv[..., 0] - k_src.cx) / k_src.fx, ds * (uv[..., 1] - k_src.cy) / k_src.fy, ds],
        axis=-1,
    )
    moved = pts @ transform.r.T + transform.t
    z = moved[..., 2]
    valid &= z > Z_MIN
    return uv, moved, valid, np.where(valid, z, 1.0)


def rigid_flow(depth, k_src: Intrinsics, k_dst: Intrinsics, transform: PoseSE3):
    """Flow induced by camera motion over a static scene.

    flow(u) = project(T(unproject(u, D(u)))) - u. Pixels with D(u) <= 0 or a
    transformed z <= Z_MIN are reported invalid and carry zero flow; no
    exception is raised for them.
    """
    uv, moved, valid, zs = _moved_lattice(depth, k_src, transform)
    u2 = k_dst.fx * moved[..., 0] / zs + k_dst.cx
    v2 = k_dst.fy * moved[..., 1] / zs + k_dst.cy
    flow = np.stack([u2, v2], axis=-1) - uv
    flow[~valid] = 0.0
    return flow, valid


def reproject_depth(depth, k_src: Intrinsics, k_dst: Intrinsics, transform: PoseSE3):
    """Forward-splat source depth into the target view.

    Each valid source pixel contributes its post-transform z at the nearest
    target cell; collisions keep the smallest z (z-buffer). Returns
    (warped_depth, covered) where covered(u) is False at holes, i.e. target
    cells no source pixel reached. The min-reduction makes the result
    independent of traversal order, so parallel splatting stays deterministic.
    """
    uv, moved, valid, zs = _moved_lattice(depth, k_src, transform)
    h, w = uv.shape[:2]
    ix = np.floor(k_dst.fx * moved[..., 0] / zs + k_dst.cx + 0.5).astype(np.int64)
    iy = np.floor(k_dst.fy * moved[..., 1] / zs + k_dst.cy + 0.5).astype(np.int64)
    valid &= (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)

    buf = np.full((h, w), np.inf)
    np.minimum.at(buf, (iy[valid], ix[valid]), zs[valid])
    covered = np.isfinite(buf)
    return np.where(covered, buf, 0.0), covered
