"""Analytic scene oracle: planes, a moving quad, exact depth and flow.

Frames are rendered by intersecting pixel rays with world-space planes and
shading the hit points with a procedural multi-octave value-noise texture,
so every rendered quantity (color, depth, correspondence, occlusion) has a
closed form. That makes the renderer usable as ground truth: the flow and
depth tensors it emits are exact, and controlled corruptions of the frames
(or of the flow) provide stimuli with known direction of quality change.

decode_latent maps a 4-vector to perturbation amplitudes plus a camera
speed, renders the pair, and injects the corruption. It is the toy
generator the trainer optimizes against the pair reward; a DecodeState
holds what all decodes of one template and seed share.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import grid, runtime
from .adapter import FramePair, Lazy, VideoBundle
from .camera import Intrinsics, PoseSE3, Z_MIN, _lattice_flow
from .errors import ConfigError, DomainError, ShapeError
from .grid import _by_rows, _channel_major, _check_floats, _checked, _from_dict, _numbers, _row_bands, _shown
from .grid import _xy_norm, bilinear_sample

_OBJ_SURF = 7  # surface id of the moving quad; background planes use 0..2

# ---------------------------------------------------------------------------
# hashing and value noise

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    """SplitMix64 output of state z; works in place on z + gamma, never on z."""
    z = z + _GAMMA
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


# _key hashes every seed as a signed 64-bit integer
SEED_MAX = 2**63 - 1


def _key(*parts):
    with np.errstate(over="ignore"):
        k = np.uint64(0)
        for p in parts:
            k = _mix(k ^ np.int64(p).view(np.uint64))
    return k


# float64 lattice values in [-2**63, 2**63) cast to int64 exactly
_INT64_LATTICE = 2.0**63


def _lattice_bits(x):
    """Integer-valued floats as the uint64 bits of their int64 values."""
    if not np.all((x >= -_INT64_LATTICE) & (x < _INT64_LATTICE)):  # also False for NaN
        raise DomainError(
            "texture lattice coordinates leave the int64 range; "
            "check the scene's texture_freq, depth, intrinsics and camera path"
        )
    return x.astype(np.int64).view(np.uint64)


def _hash01(hx, iy):
    """Uniform [0, 1) value per integer lattice point, from the column hash
    hx = _mix(ix ^ key) and the row bits iy."""
    h = _mix(hx ^ iy)
    h >>= np.uint64(11)
    out = h.astype(np.float64)
    out *= 1.0 / 2**53
    return out


# lattice floats below this magnitude are exact integers, and so are their +1 neighbours
_EXACT_LATTICE = 2.0**52


class _Table:
    """A (channels, ny * nx) table of every lattice corner hash of the box
    x_lo <= x < x_lo + nx, y_lo <= y < y_lo + ny, for one key."""

    __slots__ = ("values", "x_lo", "y_lo", "nx", "ny")

    def __init__(self, key, x_lo, y_lo, nx, ny):
        ix = np.arange(x_lo, x_lo + nx, dtype=np.int64).view(np.uint64)
        iy = np.arange(y_lo, y_lo + ny, dtype=np.int64).view(np.uint64)
        hx = _mix(ix ^ key.reshape(-1, 1))
        self.values = _hash01(hx[:, None, :], iy[:, None]).reshape(key.size, -1)
        self.x_lo, self.y_lo, self.nx, self.ny = x_lo, y_lo, nx, ny

    def holds(self, x_lo, x_hi, y_lo, y_hi):
        """Whether every corner of the cells x_lo..x_hi, y_lo..y_hi is in the table."""
        return (
            self.x_lo <= x_lo and x_hi + 2 <= self.x_lo + self.nx
            and self.y_lo <= y_lo and y_hi + 2 <= self.y_lo + self.ny
        )


def _table_for(key, table, bounds, points):
    """A _Table of key that holds the cells x_lo..x_hi, y_lo..y_hi of
    bounds: table when it does, else one built for that box. None when the
    box leaves the exact-integer range of float64 or holds more corners
    than there are points (sparse or wide-range coordinates)."""
    if table is not None and table.holds(*bounds):
        return table
    if not all(abs(b) < _EXACT_LATTICE for b in bounds):  # also False for NaN
        return None
    x_lo, x_hi, y_lo, y_hi = bounds
    nx, ny = x_hi - x_lo + 2.0, y_hi - y_lo + 2.0
    if nx * ny > points:
        return None
    return _Table(key, int(x_lo), int(y_lo), int(nx), int(ny))


def _table_corners(iu, iv, key, table=None):
    """c00, c10, c01, c11 gathered from the _table_for the key and the
    call's bounding box, as views of one fresh array.

    Returns None when there is no such table, or when the key is not a
    scalar or a (channels, 1, ...) column; the caller then hashes per point.
    The table holds exactly the values the per-point hash computes, so both
    paths give the same bits.
    """
    key = np.asarray(key)
    column = key.ndim == 0 or key.shape[1:] == (1,) * iu.ndim
    if iu.size == 0 or not column:
        return None
    table = _table_for(key, table, (iu.min(), iu.max(), iv.min(), iv.max()), iu.size)
    if table is None:
        return None
    nx = table.nx
    flat = (iv - table.y_lo).astype(np.intp) * nx
    flat += (iu - table.x_lo).astype(np.intp)
    steps = np.array([0, 1, nx, nx + 1]).reshape((4,) + (1,) * flat.ndim)
    corners = np.take(table.values, flat + steps, axis=1)  # (channels, 4, ...)
    shape = np.broadcast_shapes(key.shape, iu.shape)
    return tuple(corners[:, i].reshape(shape) for i in range(4))


def _smoothstep(uv):
    """The lattice cells of the points uv and their smoothstep weights."""
    cell = np.floor(uv)
    frac = uv - cell
    smooth = frac * frac
    smooth *= 3.0 - 2.0 * frac
    return cell, smooth


def _lattice_noise(uv, key, table=None):
    """Smoothstep-interpolated value noise at the points (uv[0], uv[1]),
    C1-continuous, range [0, 1).

    key broadcasts against uv[0], so a (3, 1, ...) key array hashes three
    channels in one pass.
    """
    (iu, iv), (su, sv) = _smoothstep(uv)
    corners = _table_corners(iu, iv, key, table)
    if corners is None:
        hx0 = _mix(_lattice_bits(iu) ^ key)
        hx1 = _mix(_lattice_bits(iu + 1) ^ key)
        iy0 = _lattice_bits(iv)
        iy1 = _lattice_bits(iv + 1)
        corners = (_hash01(hx0, iy0), _hash01(hx1, iy0), _hash01(hx0, iy1), _hash01(hx1, iy1))
    # top = c00 + (c10 - c00) * su, bot = c01 + (c11 - c01) * su, then
    # top + (bot - top) * sv, computed in the fresh corner arrays
    c00, top, c01, bot = corners
    top -= c00
    top *= su
    top += c00
    bot -= c01
    bot *= su
    bot += c01
    bot -= top
    bot *= sv
    bot += top
    return bot


def _octaves(freq, seed, salt, ndim=1, box=None, max_corners=0):
    """(amplitude, frequency, channel key, lattice table) of each of the
    three texture octaves over ndim-dimensional coordinates.

    The key is a (3, 1, ...) column that hashes the three channels in one
    pass. box, when given, is ((u_lo, v_lo), (u_hi, v_hi)), known to hold
    the coordinates ahead of any point: each octave then also gets a table
    of that box's lattice cells, plus one cell of slack on every side, from
    _table_for; it is None without a box, past float64's exact integers or
    when the table would hold more than max_corners corners. Multiplying by
    a positive frequency and flooring keep the order of floats, so the box
    scales to each octave exactly and its cells bound those of its points:
    a box whose cells leave the int64 range raises DomainError.
    """
    channels = np.arange(3).reshape((3,) + (1,) * ndim)
    octaves = []
    amp, f = 1.0, freq
    with np.errstate(over="ignore"):
        for octave in range(3):
            key = _key(seed, salt, octave, channels)
            table = None
            if box is not None:
                (u_lo, v_lo), (u_hi, v_hi) = cells = np.floor(np.asarray(box, dtype=np.float64) * f)
                _lattice_bits(cells)
                table = _table_for(key, None, (u_lo - 1, u_hi + 1, v_lo - 1, v_hi + 1), max_corners)
            octaves.append((amp, f, key, table))
            amp *= 0.5
            f *= 2.0
    return octaves


def _texture(u, v, octaves):
    """Three-octave RGB value noise over plane-local coordinates (world
    units), from the _octaves of the surface.

    Each octave hashes the three channels in one pass over a leading channel
    axis; the sum runs in the same order as a per-channel loop would, so the
    bits do not depend on the batching.
    """
    uv = np.stack([u, v])
    acc = np.zeros((3,) + u.shape)
    with np.errstate(over="ignore"):
        for amp, f, key, table in octaves:
            noise = _lattice_noise(uv * f, key, table)
            noise *= amp
            acc += noise
            del noise  # its corner table, before the next octave builds one
    acc /= 1.75
    return np.moveaxis(acc, 0, -1)


# ---------------------------------------------------------------------------
# scene specification

@dataclass(frozen=True)
class ObjectSpec:
    """Textured quad, fronto-parallel in world space, translating rigidly.

    center is its world position at frame 0; velocity is world units per
    frame. The quad must sit in front of the background along the view rays.
    """

    center: tuple = (0.0, 0.0, 1.5)
    size: float = 0.4
    velocity: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigError(f"object size must be > 0, got {_shown(self.size)}")
        if len(self.center) != 3 or len(self.velocity) != 3:
            raise ConfigError("object center and velocity must be 3-vectors")

    def center_at(self, frame):
        return np.asarray(self.center, dtype=np.float64) + frame * np.asarray(self.velocity, dtype=np.float64)


_GEOMETRIES = ("plane", "inclined", "two_plane")


@dataclass(frozen=True)
class SceneSpec:
    """World description: geometry, texture seed, camera path, optional object.

    geometry "plane" is a fronto-parallel backdrop at z = depth; "inclined"
    tilts it to `normal`; "two_plane" puts a near plane (z = depth) over the
    half-space world-x < split_x in front of a far backdrop (z = depth2),
    which creates a depth step and genuine occlusion under camera motion.
    """

    geometry: str = "plane"
    depth: float = 2.0
    normal: tuple = (0.0, 0.0, 1.0)
    depth2: float = 3.0
    split_x: float = 0.0
    texture_seed: int = 0
    texture_freq: float = 4.0
    resolution: tuple = (48, 64)
    intrinsics: Intrinsics = Intrinsics(100.0, 100.0, 31.5, 23.5)
    camera_path: tuple = field(default_factory=lambda: (PoseSE3.identity(),))
    moving_object: ObjectSpec = None

    def __post_init__(self):
        if self.geometry not in _GEOMETRIES:
            raise ConfigError(f"geometry must be one of {_GEOMETRIES}, got {_shown(self.geometry)}")
        h, w = self.resolution
        if h < 32 or w < 32:
            raise ConfigError(f"resolution must be at least 32x32, got {_shown(h)}x{_shown(w)}")
        _check_floats(int(h) * int(w) * 3, f"resolution {_shown(h)}x{_shown(w)}")  # one RGB frame
        if self.depth <= 0:
            raise ConfigError(f"plane depth must be > 0, got {_shown(self.depth)}")
        if self.geometry == "two_plane" and self.depth2 <= self.depth:
            raise ConfigError(
                f"far plane must lie behind the near one, got {_shown(self.depth2)} <= {_shown(self.depth)}"
            )
        n = np.asarray(self.normal, dtype=np.float64)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(n)  # also inf or NaN when an entry is
        if not np.isfinite(norm):
            raise ConfigError(
                f"plane normal must have finite entries and a finite norm, got {_shown(self.normal)}"
            )
        if n.shape != (3,) or norm == 0 or n[2] <= 0:
            raise ConfigError(f"plane normal must be a 3-vector with positive z, got {_shown(self.normal)}")
        if len(self.camera_path) == 0:
            raise ConfigError("camera_path must hold at least one pose")
        if self.texture_freq <= 0:
            raise ConfigError(f"texture_freq must be > 0, got {_shown(self.texture_freq)}")
        if not -SEED_MAX - 1 <= self.texture_seed <= SEED_MAX:
            raise ConfigError(
                f"texture_seed must fit in a signed 64-bit integer, got {_shown(self.texture_seed)}"
            )


@dataclass(frozen=True)
class PerturbationSpec:
    """Controlled corruption amplitudes.

    wobble_px warps the second frame by a smooth divergence-free field of
    that peak amplitude; in a video every frame after the first gets its own
    field, keyed by its index. corrupt_flow adds the field to the forward
    flow into that frame instead, emulating a flow-predictor failure.
    texture_drift_px slides the background texture of the second frame;
    object_morph rescales the quad's appearance in the second frame (1 is
    identity); depth_noise_rel multiplies both depth maps by lognormal noise
    of that log-stddev. Flow tensors stay clean unless corrupt_flow is set:
    the scorer sees the appearance/geometry mismatch these corruptions model.
    """

    wobble_px: float = 0.0
    texture_drift_px: float = 0.0
    object_morph: float = 1.0
    depth_noise_rel: float = 0.0
    corrupt_flow: bool = False

    def __post_init__(self):
        for name in ("wobble_px", "texture_drift_px", "object_morph", "depth_noise_rel"):
            value = getattr(self, name)
            if not -np.inf < value < np.inf:  # also False for NaN
                raise ConfigError(f"perturbation {name} must be finite, got {_shown(value)}")
            if value < 0 and name != "object_morph":
                raise ConfigError(f"perturbation {name} must be >= 0, got {_shown(value)}")
        if self.object_morph <= 0:
            raise ConfigError(f"object_morph must be > 0 (1 = identity), got {_shown(self.object_morph)}")


# ---------------------------------------------------------------------------
# ray tracing

def _pixel_rays(spec, pose, rows=None):
    """Each pixel's world-space ray, scaled to unit depth in the camera
    frame; it depends on the pose's rotation only. rows, when given, is a
    (first, end) band of rows, whose rays are those of the whole frame's."""
    h, w = spec.resolution
    r0, r1 = (0, h) if rows is None else rows
    k = spec.intrinsics
    d_cam = np.empty((r1 - r0, w, 3))
    d_cam[..., 0] = (np.arange(w, dtype=np.float64) - k.cx) / k.fx
    d_cam[..., 1] = (np.arange(r0, r1, dtype=np.float64)[:, None] - k.cy) / k.fy
    d_cam[..., 2] = 1.0
    return d_cam @ pose.r  # rows R^T d: camera rays in world coordinates


def _center(pose):
    return -pose.r.T @ pose.t


def _plane_s(p0, n, c, dirs):
    """Ray parameter of the plane hit; +inf where the ray is parallel."""
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        s = ((p0 - c) @ n) / denom
    s = np.where(np.abs(denom) < 1e-12, np.inf, s)
    return s


def _background_planes(spec):
    """(surface id, point, unit normal) of each background plane: for
    "two_plane" the near plane 1, then the far backdrop 0."""
    if spec.geometry == "two_plane":
        nz = np.array([0.0, 0.0, 1.0])
        return [(1, np.array([0.0, 0.0, spec.depth]), nz), (0, np.array([0.0, 0.0, spec.depth2]), nz)]
    n = np.asarray(spec.normal if spec.geometry == "inclined" else (0.0, 0.0, 1.0), dtype=np.float64)
    return [(0, np.array([0.0, 0.0, spec.depth]), n / np.linalg.norm(n))]


def _surface_hits(spec, frame, c, dirs):
    """Candidate hits per surface: list of (surf_id, s, hit_mask).

    Ray parameter equals camera-frame depth because ray directions are
    normalized to unit z in the camera frame.
    """
    hits = []
    for sid, p0, n in _background_planes(spec):
        s = _plane_s(p0, n, c, dirs)
        ok = s > Z_MIN
        if sid == 1:  # the near plane covers world x < split_x only
            ok &= c[0] + s * dirs[..., 0] < spec.split_x
        hits.append((sid, s, ok))
    obj = spec.moving_object
    if obj is not None:
        oc = obj.center_at(frame)
        s_obj = _plane_s(oc, np.array([0.0, 0.0, 1.0]), c, dirs)
        px = c[0] + s_obj * dirs[..., 0]
        py = c[1] + s_obj * dirs[..., 1]
        half = obj.size / 2.0
        inside = (np.abs(px - oc[0]) <= half) & (np.abs(py - oc[1]) <= half)
        hits.append((_OBJ_SURF, s_obj, (s_obj > Z_MIN) & inside))
    return hits


def _trace(spec, frame, dirs=None):
    """Nearest surface along each pixel ray of the frame; dirs, when given,
    are its _pixel_rays.

    Returns (depth, surf_id), traced in row bands; _hit_points rebuilds
    the hit points from the depth. Raises when a ray escapes the backdrop
    or the camera sits on the geometry, both of which make the scene spec
    invalid.
    """
    pose = spec.camera_path[frame]
    c = _center(pose)
    h, w = spec.resolution

    def band(r0, r1):
        rays = _pixel_rays(spec, pose, (r0, r1)) if dirs is None else dirs[r0:r1]
        best_s = np.full((r1 - r0, w), np.inf)
        best_id = np.full((r1 - r0, w), -1, dtype=np.int8)
        for surf_id, s, ok in _surface_hits(spec, frame, c, rays):
            s_ok = np.where(ok, s, np.inf)
            take = s_ok < best_s
            best_s = np.where(take, s_ok, best_s)
            best_id = np.where(take, np.int8(surf_id), best_id)
        if not np.isfinite(best_s).all():
            raise DomainError("a pixel ray escapes the scene geometry; check camera path and planes")
        return best_s, best_id

    return _by_rows(h, w, band)


def _hit_points(spec, pose, depth, rows, dirs=None):
    """The world points c + depth * ray of the rows r0:r1 of a frame seen
    from pose, with the frame's rays dirs when given. A ray's parameter is
    its depth, so from a traced depth this rebuilds the hit points bit for
    bit."""
    r0, r1 = rows
    rays = _pixel_rays(spec, pose, rows) if dirs is None else dirs[r0:r1]
    c = _center(pose)
    points = np.empty(rays.shape)
    for i in range(3):  # one plane per axis: numpy loops over a 3-wide last axis run slowly
        p = points[..., i]
        np.multiply(depth[r0:r1], rays[..., i], out=p)
        p += c[i]
    return points


def _surface_bases(spec):
    """The in-plane basis (e1, e2) of every surface the scene can show, by
    surface id; None for the quad, whose texture coordinates are its hit
    points' x and y relative to its center."""
    bases = {}
    for sid, _, n in _background_planes(spec):
        # reduces to world x/y for fronto-parallel planes
        a = np.array([1.0, 0.0, 0.0])
        e1 = a - n * (n @ a)
        e1 /= np.linalg.norm(e1)
        bases[sid] = e1, np.cross(n, e1)
    if spec.moving_object is not None:
        bases[_OBJ_SURF] = None
    return bases


def _pose_boxes(spec, poses):
    """The box ((u_lo, v_lo), (u_hi, v_hi)) of each background plane's
    texture coordinates, by surface id, for every pixel seen from the poses
    or from a camera on a segment between two that share a rotation. A
    plane seen through a pinhole is a homography, so a frame's hits lie in
    the box of its four corner rays' hits, and a ray's hit moves linearly
    with the camera. A plane that a corner ray misses gets no box; the
    tables' slack absorbs rounding."""
    h, w = spec.resolution
    k = spec.intrinsics
    corners = np.array([[(x - k.cx) / k.fx, (y - k.cy) / k.fy, 1.0]
                        for y in (0.0, h - 1.0) for x in (0.0, w - 1.0)])
    bases = _surface_bases(spec)
    boxes = {}
    for sid, p0, n in _background_planes(spec):
        uv = []
        for pose in poses:
            c, dirs = _center(pose), corners @ pose.r  # rows R^T d, as _pixel_rays builds them
            s = _plane_s(p0, n, c, dirs)
            if not np.all(np.isfinite(s) & (s > Z_MIN)):
                break
            with np.errstate(over="ignore", invalid="ignore"):
                uv.append((c + s[:, None] * dirs) @ np.transpose(bases[sid]))
        else:
            uv = np.concatenate(uv)
            boxes[sid] = uv.min(axis=0), uv.max(axis=0)
    return boxes


def _scene_textures(spec, boxes):
    """(in-plane basis, texture _octaves) of every surface the scene can
    show, by surface id.

    boxes maps surface ids to boxes known to hold their texture coordinates
    ahead of any point (_pose_boxes); the background planes with a box get
    lattice tables. The quad's always do, for the box +-size/2 that
    _surface_hits keeps its coordinates within. A table holds at most as
    many corners as a frame has pixels, so with its three channels it is
    never larger than one RGB frame.
    """
    textures = {}
    pixels = spec.resolution[0] * spec.resolution[1]
    for sid, basis in _surface_bases(spec).items():
        if basis is None:
            # object texture is denser than the backdrop so the quad stays
            # feature-rich even when it covers only a few patches
            half = spec.moving_object.size / 2.0
            octaves = _octaves(4.0 * spec.texture_freq, spec.texture_seed, 100 + _OBJ_SURF,
                               box=((-half, -half), (half, half)), max_corners=pixels)
        else:
            octaves = _octaves(spec.texture_freq, spec.texture_seed, sid, box=boxes.get(sid), max_corners=pixels)
        textures[sid] = basis, octaves
    return textures


def _texture_coords(spec, frame, depth, surf_id, bases, dirs=None):
    """{surface id: (flat pixel indices, u, v)} of the frame's pixels on
    each surface of bases (a _surface_bases) that it shows, in row-major
    order, from its trace (depth, surf_id) and its rays dirs when given.
    The hit points are rebuilt a row band at a time."""
    pose = spec.camera_path[frame]
    w = spec.resolution[1]
    oc = spec.moving_object.center_at(frame) if spec.moving_object is not None else None
    parts = {}
    for r0, r1 in _row_bands(*spec.resolution):
        points = _hit_points(spec, pose, depth, (r0, r1), dirs).reshape(-1, 3)
        ids = surf_id[r0:r1].reshape(-1)
        for sid, basis in bases.items():
            idx = np.flatnonzero(ids == sid)
            pts = np.take(points, idx, axis=0)
            if basis is None:
                u, v = pts[:, 0] - oc[0], pts[:, 1] - oc[1]
            else:
                u, v = pts @ basis[0], pts @ basis[1]
            idx += r0 * w
            parts.setdefault(sid, []).append((idx, u, v))
    coords = {}
    for sid, p in parts.items():
        idx, u, v = p[0] if len(p) == 1 else [np.concatenate(a) for a in zip(*p)]
        if idx.size:
            coords[sid] = idx, u, v
    return coords


def _shade(spec, frame, depth, surf_id, textures, dirs=None):
    """Procedural color of a frame's pixels from its trace (depth,
    surf_id) and the scene's _scene_textures, each surface's pixels in
    blocks of grid._BAND_PIXELS; dirs, when given, are the frame's
    _pixel_rays."""
    image = np.zeros(depth.shape + (3,))
    rgb = image.reshape(-1, 3)
    bases = {sid: basis for sid, (basis, _) in textures.items()}
    for sid, (idx, u, v) in _texture_coords(spec, frame, depth, surf_id, bases, dirs).items():
        for start in range(0, idx.size, grid._BAND_PIXELS):
            block = slice(start, start + grid._BAND_PIXELS)
            rgb[idx[block]] = _texture(u[block], v[block], textures[sid][1])
    return image


class _ClipTrace:
    """render_video's state for render_frame: the clip's _scene_textures
    and each frame's trace (depth, surf_id). It holds no rays: each band
    builds its own, as a render without state does."""

    dirs = None

    def __init__(self, spec, textures, traces):
        self.spec, self.textures, self.traces = spec, textures, traces

    def check(self, spec):
        if spec is not self.spec:
            raise ConfigError("the clip trace was built for another scene")


def render_frame(spec: SceneSpec, frame: int, *, state=None):
    """Render one frame: (image [0,1), depth, object mask).

    state, when given, is what the frames of spec share: the DecodeState
    of the decode that renders spec, whose rays and textures the frame
    reuses, or render_video's trace of the clip, from which the frame is
    shaded without tracing again.
    """
    if not 0 <= frame < len(spec.camera_path):
        raise ConfigError(f"frame {frame} outside the camera path of length {len(spec.camera_path)}")
    if state is None:
        return _render(spec, frame)
    state.check(spec)
    trace = state.traces[frame] if isinstance(state, _ClipTrace) else None
    return _render(spec, frame, state.dirs, state.textures, trace)


def _render(spec, frame, dirs=None, textures=None, trace=None):
    """render_frame from the frame's _pixel_rays, the scene's
    _scene_textures and the frame's _trace, each built here when not
    given: the textures first, from the boxes of the frame's own pose."""
    if textures is None:
        textures = _scene_textures(spec, _pose_boxes(spec, spec.camera_path[frame:frame + 1]))
    depth, surf = _trace(spec, frame, dirs) if trace is None else trace
    image = _shade(spec, frame, depth, surf, textures, dirs)
    return image, depth, surf == _OBJ_SURF


def _flow(spec, a, b, depth_a, object_a, dirs=None):
    """Exact flow from frame a to frame b on the pixel lattice.

    _hit_points rebuilds frame a's hit points from its rendered depth; the
    quad's points (object_a) move by the object's displacement, and
    _lattice_flow projects them all into frame b. The flow is zero where a
    point lands behind (or numerically at) the frame-b camera plane;
    occlusion is not checked. dirs, when given, are frame a's _pixel_rays.
    Works in row bands.
    """
    pose_a = spec.camera_path[a]
    obj = spec.moving_object
    h, w = spec.resolution

    def band(r0, r1):
        points = _hit_points(spec, pose_a, depth_a, (r0, r1), dirs)
        if obj is not None:
            for i in range(3):
                p = points[..., i]
                np.add(p, (b - a) * float(obj.velocity[i]), out=p, where=object_a[r0:r1])
        valid = np.ones((r1 - r0, w), dtype=bool)
        return _lattice_flow(points, spec.camera_path[b], spec.intrinsics, valid, r0)[0]

    return _by_rows(h, w, band)


def render_pair(spec: SceneSpec, frame_index: int, stride: int = 1, *, state=None) -> FramePair:
    """Render frames (frame_index, frame_index + stride) with exact tensors.

    The moving quad's pixels are the pair's dynamic masks, as in
    render_video; the pair carries no confidence. state, when given, is the
    DecodeState of the decode that renders spec, whose pair (0, 1) then
    holds the state's first frame by reference and takes both flows'
    world rays from the state.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    fa, fb = frame_index, frame_index + stride
    if fb >= len(spec.camera_path):
        raise ConfigError(
            f"pair ({fa}, {fb}) needs a camera path of length > {fb}, got {len(spec.camera_path)}"
        )
    if state is None:
        image_a, depth_a, obj_a = render_frame(spec, fa)
        dirs = None
    elif (fa, fb) != (0, 1):
        raise ConfigError(f"a decode state renders the pair (0, 1), got ({fa}, {fb})")
    else:
        image_a, depth_a, obj_a = state.frame_a
        dirs = state.dirs
    image_b, depth_b, obj_b = render_frame(spec, fb, state=state)  # checks that state is spec's
    return FramePair(
        image_a=image_a,
        image_b=image_b,
        depth_a=depth_a,
        depth_b=depth_b,
        flow_fwd=_flow(spec, fa, fb, depth_a, obj_a, dirs),
        flow_bwd=_flow(spec, fb, fa, depth_b, obj_b, dirs),
        intrinsics_a=spec.intrinsics,
        intrinsics_b=spec.intrinsics,
        pose_a=spec.camera_path[fa],
        pose_b=spec.camera_path[fb],
        frame_a=fa,
        frame_b=fb,
        dynamic_a=obj_a,
        dynamic_b=obj_b,
    )


# ---------------------------------------------------------------------------
# perturbations

def _wobble_curl(shape, seed, salt):
    """The unscaled field of wobble_field and its peak magnitude, built in
    row bands."""
    h, w = shape
    freq = 3.0 / min(h, w)
    key = _key(seed, salt)
    xs = np.arange(-1, w + 1, dtype=np.float64)
    taper_x = np.maximum(np.sin(np.pi * xs / (w - 1.0)), 0.0)

    def band(r0, r1):
        # the potential on the pixel lattice padded by one, at rows r0 - 1
        # to r1: what the central differences of rows r0:r1 read
        ys = np.arange(r0 - 1, r1 + 1, dtype=np.float64)[:, None]
        uv = np.empty((2, r1 - r0 + 2, w + 2))
        uv[0] = xs
        uv[1] = ys
        uv *= freq
        with np.errstate(over="ignore"):
            psi = _lattice_noise(uv, key) - 0.5
        psi *= taper_x * np.maximum(np.sin(np.pi * ys / (h - 1.0)), 0.0)
        vx = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / 2.0
        vy = -(psi[1:-1, 2:] - psi[1:-1, :-2]) / 2.0
        return np.stack([vx, vy], axis=-1)

    field_ = _by_rows(h, w, band)
    return field_, _xy_norm(field_).max()


def wobble_field(shape, amplitude_px, seed, salt=11, *, curl=None):
    """Smooth divergence-free warp field with the given peak magnitude.

    Built as the discrete curl (central differences) of a value-noise
    potential tapered to zero at the image border, so the discrete
    divergence vanishes identically and no sample leaves the frame by much.
    curl, when given, must be _wobble_curl(shape, seed, salt): a caller
    that scales one field to many amplitudes builds it once.
    """
    field_, peak = _wobble_curl(shape, seed, salt) if curl is None else curl
    if peak > 0 and amplitude_px > 0:
        with np.errstate(over="ignore"):
            scale = amplitude_px / peak
            if not np.isfinite(scale * peak):  # then no entry times scale overflows
                raise DomainError(f"perturbation wobble_px {_shown(amplitude_px)} overflows the warp field")
        return field_ * scale
    return np.zeros_like(field_)


def _warp_rows(img, disp_rows):
    """Sample img at each pixel plus its displacement, bilinear with border
    clamp, in output row bands; disp_rows(r0, r1) gives the (r1 - r0, w, 2)
    displacements of rows r0:r1. For the corruption paths only: the reward
    path must keep the zero-plus-flag rule."""
    h, w = img.shape[:2]
    planes = _channel_major(img)  # made once, not once per band

    def band(r0, r1):
        disp = disp_rows(r0, r1)
        xy = np.empty((r1 - r0, w, 2))
        x, y = xy[..., 0], xy[..., 1]
        np.add(np.arange(w, dtype=np.float64), disp[..., 0], out=x)
        np.add(np.arange(r0, r1, dtype=np.float64)[:, None], disp[..., 1], out=y)
        np.clip(x, 0.0, w - 1.0, out=x)
        np.clip(y, 0.0, h - 1.0, out=y)
        vals, _ = bilinear_sample(planes, xy.reshape(-1, 2))
        return vals.reshape(r1 - r0, w, -1)

    return _by_rows(h, w, band)


def _morph_pixels(img, object_mask, scale):
    """Radially magnify the quad's appearance around its projected center."""
    if not object_mask.any():
        return img
    ys_m, xs_m = np.nonzero(object_mask)
    cx = xs_m.mean()
    cy = ys_m.mean()
    radius = max(xs_m.max() - xs_m.min(), ys_m.max() - ys_m.min()) / 2.0 + 1.0
    # a reach or displacement past the float range is harmless: it clamps to the border
    with np.errstate(over="ignore"):
        reach = radius * max(scale, 1.0) * 1.5
    dx = np.arange(img.shape[1]) - cx

    def disp_rows(r0, r1):
        dy = np.arange(r0, r1)[:, None] - cy
        with np.errstate(over="ignore"):
            falloff = np.exp(-((dx * dx + dy * dy) / (reach * reach)))
            gain = (1.0 / scale - 1.0) * falloff
            return np.stack([dx * gain, dy * gain], axis=-1)

    return _warp_rows(img, disp_rows)


def _corrupt_image(img, object_mask, p: PerturbationSpec, seed, salt, frames):
    """Apply p's frame corruptions to an image `frames` frames after a clean
    one, in order: wobble (unless corrupt_flow routes it into the flow),
    texture drift, which grows linearly with frames, then an object morph,
    which compounds (object_morph ** frames)."""
    w = img.shape[1]
    if p.wobble_px > 0 and not p.corrupt_flow:
        field = wobble_field(img.shape[:2], p.wobble_px, seed, salt=salt)
        img = _warp_rows(img, lambda r0, r1: field[r0:r1])
        del field  # a frame of f64 pairs; the drift and morph warps need none of it
    if p.texture_drift_px > 0:
        # a zero displacement samples the pixel's own lattice point, so the
        # quad keeps its values
        def drift(r0, r1):
            d = np.zeros((r1 - r0, w, 2))
            d[~object_mask[r0:r1], 0] = p.texture_drift_px * frames
            return d

        img = _warp_rows(img, drift)
    if p.object_morph != 1.0:
        img = _morph_pixels(img, object_mask, _morph_factor(p.object_morph, frames))
    return img


def _morph_factor(morph, frames):
    """morph ** frames; DomainError when it or its inverse leaves the float range."""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        try:
            factor = morph**frames
        except OverflowError:  # a Python float's power raises where numpy's gives inf
            factor = np.inf
        if not (0 < factor < np.inf and 1.0 / factor < np.inf):
            raise DomainError(f"perturbation object_morph {_shown(morph)} compounded over {frames} frames "
                              "leaves the float range")
    return factor


def _noisy_depth(depth, p: PerturbationSpec, seed, frame):
    """Multiply depth by lognormal noise of log-stddev p.depth_noise_rel,
    drawn from a stream keyed by (seed, frame)."""
    if p.depth_noise_rel > 0:
        rng = np.random.default_rng([seed, 13, frame])
        with np.errstate(over="ignore"):
            depth = depth * np.exp(p.depth_noise_rel * rng.standard_normal(depth.shape))
        if not np.isfinite(depth).all():
            raise DomainError(
                f"perturbation depth_noise_rel {_shown(p.depth_noise_rel)} overflows frame {frame}'s depth"
            )
    return depth


def inject_perturbation(pair: FramePair, p: PerturbationSpec, seed: int) -> FramePair:
    """Deterministically corrupt a rendered pair.

    The first frame and the ground-truth flow stay clean (unless
    corrupt_flow routes the wobble into the forward flow); depth noise is
    the only corruption that touches the depth tensors. Each corruption
    skips itself at its identity amplitude, so a no-op spec returns a pair
    holding the same arrays. Drift and morph span the pair's frame gap, as
    in render_video: a stride-2 pair is morphed by object_morph ** 2.
    """
    flow_fwd = pair.flow_fwd
    if p.wobble_px > 0 and p.corrupt_flow:
        flow_fwd = flow_fwd + wobble_field(pair.image_b.shape[:2], p.wobble_px, seed)
    return replace(
        pair,
        image_b=_corrupt_image(pair.image_b, pair.dynamic_b, p, seed, 11, pair.frame_b - pair.frame_a),
        flow_fwd=flow_fwd,
        depth_a=_noisy_depth(pair.depth_a, p, seed, pair.frame_a),
        depth_b=_noisy_depth(pair.depth_b, p, seed, pair.frame_b),
    )


def render_video(spec: SceneSpec, perturb: PerturbationSpec = None, seed: int = 0, stride: int = 1) -> VideoBundle:
    """Render every frame of the camera path, corrupted per frame.

    Frame 0 always stays clean. Wobble draws a fresh field per frame (or
    per flow pair under corrupt_flow), texture drift accumulates linearly
    and the morph factor compounds geometrically, so any consecutive pair
    carries one unit of the configured corruption. Flow files at index i
    map frame i to frame i + stride; the moving quad's pixels are the
    bundle's dynamic masks.

    The textures' lattice tables are sized from the camera path
    (_pose_boxes), so a lattice that leaves the int64 range raises
    DomainError before any frame is traced. The frames are traced on
    runtime.ordered_map, each task covering one frame's pixels and
    returning its clean depth, surface ids and object mask. They are
    read-only, because the rest of the bundle is derived from them: the
    images, the flows, the noisy depths and the confidences are
    adapter.Lazy sequences, which compute an entry when it is indexed and
    cache nothing, so a caller holds the tensors it keeps: write_bundle
    computes, saves and drops each in one pool task. An image entry shades
    its frame from the stored trace through render_frame, then corrupts
    it. Each task is pure and returns the arrays it allocated, so the
    bundle is the same at every thread count.
    """
    p = perturb if perturb is not None else PerturbationSpec()
    n = len(spec.camera_path)
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if n < stride + 1:
        raise ConfigError(f"camera path has {n} frames; need at least stride + 1 = {stride + 1}")
    h, w = spec.resolution
    textures = _scene_textures(spec, _pose_boxes(spec, spec.camera_path))

    def trace(i):  # frame i's trace and object mask
        depth, surf = _trace(spec, i)
        return depth, surf, surf == _OBJ_SURF

    depths, surfs, masks = zip(*runtime.ordered_map(trace, runtime.Tasks(range(n), h * w)))
    for arr in (*depths, *surfs, *masks):
        arr.flags.writeable = False
    clip = _ClipTrace(spec, textures, list(zip(depths, surfs)))

    def image(i):
        img, _, msk = render_frame(spec, i, state=clip)
        return _corrupt_image(img, msk, p, seed, 11 + i, i) if i > 0 else img

    # the flows are built from the clean depths, then the depths take their noise
    def flow_fwd(a):
        b = a + stride
        fwd = _flow(spec, a, b, depths[a], masks[a])
        if p.wobble_px > 0 and p.corrupt_flow:
            fwd += wobble_field(fwd.shape[:2], p.wobble_px, seed, salt=11 + b)
        return fwd

    def flow_bwd(a):
        return _flow(spec, a + stride, a, depths[a + stride], masks[a + stride])

    def noisy_depth(i):  # frame 0 keeps its clean depth
        return _noisy_depth(depths[i], p, seed, i) if i > 0 else depths[0]

    pairs = range(n - stride)
    return VideoBundle(
        images=Lazy(image, range(n), (h, w, 3)),
        depths=Lazy(noisy_depth, range(n), (h, w)),
        flows_fwd=Lazy(flow_fwd, pairs, (h, w, 2)),
        flows_bwd=Lazy(flow_bwd, pairs, (h, w, 2)),
        intrinsics=[spec.intrinsics] * n,
        poses=list(spec.camera_path),
        flow_stride=stride,
        confidences=Lazy(lambda i: np.ones((h, w)), range(n), (h, w)),
        dynamic_masks=list(masks),
    )


def toy_scene() -> SceneSpec:
    """Canonical small scene for trainer runs and tests: textured backdrop
    at 2 m and a static quad at 1.5 m. One identity pose; callers that need
    motion supply the camera path (decode_latent adds the second pose)."""
    return SceneSpec(
        geometry="plane",
        depth=2.0,
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.4, velocity=(0.0, 0.0, 0.0)),
    )


# ---------------------------------------------------------------------------
# latent decoding

LATENT_DIM = 4
# Decoded amplitude ranges, index-aligned with the latent vector.
WOBBLE_RANGE = (0.0, 4.0)
DRIFT_RANGE = (0.0, 2.0)
MORPH_RANGE = (1.0, 1.5)
CAM_TX_RANGE = (0.0, 0.2)


def _squash(raw, lo, hi):
    # lo + (hi - lo) * (1 - exp(-softplus(raw))), which simplifies to the
    # logistic sigmoid: a bounded, strictly monotone map of the raw value.
    raw = np.clip(raw, -60.0, 60.0)
    return lo + (hi - lo) / (1.0 + np.exp(-raw))


# every SceneSpec field but the camera path: what a decode's scene shares with its template
_SCENE_FIELDS = tuple(f.name for f in fields(SceneSpec) if f.name != "camera_path")


def _scene_fields(spec):
    return tuple(getattr(spec, name) for name in _SCENE_FIELDS)


class DecodeState:
    """What decode_latent(z, template, seed) builds that no latent changes.

    A decode renders the template's first pose and a second pose that only
    translates it, so the second frame's world-space rays are the first's
    bit for bit. A caller that decodes many latents builds this once and
    shares it, read-only, with every decode:
      * frame 0's render (image, depth, object mask) and the rays, from
        which _flow rebuilds each frame's world points;
      * each surface's in-plane basis, per-octave channel keys and lattice
        tables: the quad's texture coordinates lie within +-size/2, and the
        background's within what frame 0 and the fastest decoded camera
        see, so their extent is known ahead of any render;
      * the unscaled wobble field and its peak, which each decode scales.
    It holds nothing beyond its own lifetime: train() builds one per run.
    """

    def __init__(self, template: SceneSpec, seed: int = 0):
        self.template = template
        self.seed = seed
        first = template.camera_path[0]
        self.dirs = _pixel_rays(template, first)
        fastest = PoseSE3(first.r, first.t + np.array([CAM_TX_RANGE[1], 0.0, 0.0]))
        self.textures = _scene_textures(template, _pose_boxes(template, (first, fastest)))
        self.frame_a = _render(template, 0, self.dirs, self.textures)
        self.curl = _wobble_curl(template.resolution, seed, 11)
        for arr in (*self.frame_a, self.dirs, self.curl[0]):
            arr.flags.writeable = False
        self._fields = _scene_fields(template)

    def check(self, spec: SceneSpec):
        """Raise ConfigError unless spec is a decode's scene of this state:
        the template's fields, its first pose, then poses that share that
        pose's rotation."""
        first = self.template.camera_path[0]
        pose_a = spec.camera_path[0]
        same = _scene_fields(spec) == self._fields and (
            pose_a is first or (np.array_equal(pose_a.r, first.r) and np.array_equal(pose_a.t, first.t))
        )
        if not (same and all(p.r is first.r or np.array_equal(p.r, first.r) for p in spec.camera_path)):
            raise ConfigError("the decode state was built for another scene or first pose")


def decode_latent(z, template: SceneSpec, seed: int = 0, *, state: DecodeState = None) -> FramePair:
    """Decode a latent 4-vector into a (possibly corrupted) rendered pair.

    Coordinates map monotonically to (wobble px, texture drift px, object
    morph, camera x-speed); pushing the first three toward minus infinity
    drives the corruption to zero. Deterministic in (z, template, seed).
    The wobble corrupts the forward flow (not the frame), which only the
    structural term reads: the feature term warps with the backward flow,
    so the wobble leaves r_dino unchanged.

    What does not depend on z comes from state, a DecodeState(template,
    seed); without one the decode builds its own. A caller that decodes
    many latents passes one, and gets the same pair bit for bit.
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.shape != (LATENT_DIM,):
        raise ShapeError(f"latent must have dimension {LATENT_DIM}, got shape {z.shape}")
    if state is None:
        state = DecodeState(template, seed)
    elif state.seed != seed:  # render_pair checks the scene and the first pose
        raise ConfigError(f"the decode state was built for seed {state.seed}, got {seed}")
    wobble = _squash(z[0], *WOBBLE_RANGE)
    drift = _squash(z[1], *DRIFT_RANGE)
    morph = _squash(z[2], *MORPH_RANGE)
    t_x = _squash(z[3], *CAM_TX_RANGE)

    e_a = template.camera_path[0]
    e_b = PoseSE3(e_a.r, e_a.t + np.array([t_x, 0.0, 0.0]))
    spec = replace(template, camera_path=(e_a, e_b))
    pair = render_pair(spec, 0, state=state)
    if wobble > 0:  # into the forward flow, as inject_perturbation's corrupt_flow routes it
        pair.flow_fwd += wobble_field(template.resolution, wobble, seed, curl=state.curl)
    return inject_perturbation(pair, PerturbationSpec(texture_drift_px=drift, object_morph=morph), seed)


# ---------------------------------------------------------------------------
# JSON scene documents

def _pose_from_dict(d):
    d = _checked(d, {"r": list, "t": list}, "camera pose")
    if "r" not in d or "t" not in d:
        raise ConfigError("camera pose entries need 'r' (3x3) and 't' (3) fields")
    r = _numbers(d["r"], (3, 3), "camera pose r")
    t = _numbers(d["t"], (3,), "camera pose t")
    return PoseSE3(np.asarray(r, dtype=np.float64), np.asarray(t, dtype=np.float64))


def _path_from_json(doc):
    if isinstance(doc, list):
        return tuple(_pose_from_dict(p) for p in doc)
    doc = _checked(doc, {"kind": str, "frames": int, "velocity": list}, "camera_path")
    if doc.get("kind") != "linear":
        raise ConfigError(f"unknown camera path kind {doc.get('kind')!r}")
    frames = doc.get("frames", 2)
    if frames < 1:
        raise ConfigError(f"camera_path frames must be an integer >= 1, got {frames!r}")
    vel = _numbers(doc.get("velocity", (0.0, 0.0, 0.0)), (3,), "camera_path velocity")
    vel = np.asarray(vel, dtype=np.float64)
    with np.errstate(over="ignore"):
        ts = [i * vel for i in range(frames)]
    if not np.isfinite(ts).all():
        raise ConfigError(f"camera_path velocity {vel.tolist()} over {frames} frames leaves the finite range")
    return tuple(PoseSE3(np.eye(3), t) for t in ts)


_INTRINSICS_KINDS = dict.fromkeys(("fx", "fy", "cx", "cy"), float)


def _intrinsics_from_json(doc):
    if not isinstance(doc, list):
        doc = _checked(doc, _INTRINSICS_KINDS, "intrinsics")
        if len(doc) != len(_INTRINSICS_KINDS):
            raise ConfigError(f"intrinsics object needs exactly fx, fy, cx and cy, got {sorted(doc)}")
        doc = [doc[k] for k in _INTRINSICS_KINDS]
    return Intrinsics(*_numbers(doc, (4,), "intrinsics"))


def _object_from_json(doc):
    kwargs = dict(_checked(doc, {f.name: f.type for f in fields(ObjectSpec)}, "moving_object"))
    for key in ("center", "velocity"):
        if key in doc:
            kwargs[key] = tuple(_numbers(doc[key], (3,), f"moving_object {key}"))
    return ObjectSpec(**kwargs)


def scene_from_dict(doc: dict) -> SceneSpec:
    """Build a SceneSpec from its JSON document form. Unknown keys and
    values of the wrong JSON type raise ConfigError naming the field."""
    # the tuple fields and nested objects, of kinds _checked leaves alone, are checked below
    kwargs = dict(_checked(doc, {f.name: f.type for f in fields(SceneSpec)}, "scene document"))
    if "normal" in doc:
        kwargs["normal"] = tuple(_numbers(doc["normal"], (3,), "normal"))
    if "resolution" in doc:
        kwargs["resolution"] = tuple(_numbers(doc["resolution"], (2,), "resolution", int))
    if "intrinsics" in doc:
        kwargs["intrinsics"] = _intrinsics_from_json(doc["intrinsics"])
    if "camera_path" in doc:
        kwargs["camera_path"] = _path_from_json(doc["camera_path"])
    if doc.get("moving_object") is not None:
        kwargs["moving_object"] = _object_from_json(doc["moving_object"])
    return SceneSpec(**kwargs)


def perturbation_from_dict(doc: dict) -> PerturbationSpec:
    """Build a PerturbationSpec from its JSON document form (strict keys and
    JSON types)."""
    return _from_dict(PerturbationSpec, doc, "perturbation")
