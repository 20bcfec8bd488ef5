"""Pinhole projection, SE(3) poses, rigid flow, and depth reprojection.

`rigid_flow` projects each pixel once; `reproject_depth` splats its targets.
`_lattice_flow` is the one projection of moved points onto the pixel
lattice: `rigid_flow` and the renderer's exact flow (`synth._flow`) end in it.

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

    def matrix34(self):
        return np.hstack([self.r, self.t[:, None]])

    def __repr__(self):
        return f"PoseSE3(r={self.r.tolist()}, t={self.t.tolist()})"


def relative_transform(e_a: PoseSE3, e_b: PoseSE3) -> PoseSE3:
    """Transform taking camera-a coordinates to camera-b coordinates.

    Composing the result with e_a reproduces e_b: T(E_a x) = E_b x.
    """
    r = e_b.r @ e_a.r.T
    # PoseSE3 checks the translation but not r again: the product of two
    # accepted rotations can miss the tolerance by the sum of their errors
    rel = PoseSE3(np.eye(3), e_b.t - r @ e_a.t)
    rel.r = r
    return rel


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


def rigid_flow(depth, k_src: Intrinsics, k_dst: Intrinsics, transform: PoseSE3, row0=0):
    """Flow induced by camera motion over a static scene, from one projection.

    flow(u) = project(T(D(u) * K_src^-1 [u, 1])) - u. Returns (flow, valid,
    target, z): validity (finite D > 0 and moved z > Z_MIN), the projected
    (x, y) of every pixel, and the moved z with invalid pixels set to 1 so
    that `target` stays finite. Invalid pixels carry zero flow; no exception
    is raised for them. `reproject_depth` splats `target` and `z`. The
    depth's rows are the lattice's rows row0 to row0 + H, so a band of a
    depth map gets the rows of the whole map's flow.
    """
    d = np.asarray(depth, dtype=np.float64)
    if d.ndim != 2:
        raise ShapeError(f"depth must be HxW, got shape {d.shape}")
    h, w = d.shape
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(row0, row0 + h, dtype=np.float64)[:, None]

    valid = np.isfinite(d) & (d > 0)
    ds = np.where(valid, d, 1.0)  # placeholder depth, masked out by valid
    pts = np.empty((h, w, 3))
    pts[..., 0] = ds * (xs - k_src.cx) / k_src.fx
    pts[..., 1] = ds * (ys - k_src.cy) / k_src.fy
    pts[..., 2] = ds
    return _lattice_flow(pts, transform, k_dst, valid, row0)


def _lattice_flow(points, transform: PoseSE3, k: Intrinsics, valid, row0=0):
    """Move the HxWx3 `points` of the pixel lattice by `transform` into a
    camera with intrinsics k and project them there. The points are the
    lattice's rows row0 to row0 + H, so a band of a frame gets the flow of
    the whole frame's pass.

    Returns `rigid_flow`'s (flow, valid, target, z); `valid` is narrowed in
    place to the points that land at z > Z_MIN.
    """
    h, w = valid.shape
    moved = points @ transform.r.T
    for i in range(3):  # one plane per axis: numpy loops over a 3-wide last axis run slowly
        moved[..., i] += transform.t[i]
    valid &= moved[..., 2] > Z_MIN
    z = np.where(valid, moved[..., 2], 1.0)
    target = np.empty((h, w, 2))
    target[..., 0] = k.fx * moved[..., 0] / z + k.cx
    target[..., 1] = k.fy * moved[..., 1] / z + k.cy
    flow = np.empty((h, w, 2))
    np.subtract(target[..., 0], np.arange(w, dtype=np.float64), out=flow[..., 0])
    np.subtract(target[..., 1], np.arange(row0, row0 + h, dtype=np.float64)[:, None], out=flow[..., 1])
    flow[~valid] = 0.0
    return flow, valid, target, z


def reproject_depth(target, z, valid, zbuf=None):
    """Forward-splat the moved depths of `rigid_flow` into the target view.

    Each valid source pixel contributes its moved z at the target cell
    nearest its projection, floor(target + 0.5); collisions keep the
    smallest z (z-buffer). Returns (warped_depth, covered) where covered(u)
    is False at holes, i.e. target cells no source pixel reached. The
    min-reduction makes the result independent of traversal order, so
    parallel splatting stays deterministic.

    Given `zbuf`, the target view's z-buffer (inf where nothing has landed
    yet), the pixels, which may be a band of the source rows, are splatted
    into it in place and zbuf is returned: bands that share one buffer
    leave in it the minima of a whole-frame splat.
    """
    buf = np.full(valid.shape, np.inf) if zbuf is None else zbuf
    h, w = buf.shape
    ix = np.floor(target[..., 0] + 0.5).astype(np.int64)
    iy = np.floor(target[..., 1] + 0.5).astype(np.int64)
    hit = valid & (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)

    # one flat index: the same cells and minima as the (row, column) pair
    np.minimum.at(buf.reshape(-1), iy[hit] * w + ix[hit], z[hit])
    if zbuf is not None:
        return zbuf
    covered = np.isfinite(buf)
    return np.where(covered, buf, 0.0), covered
