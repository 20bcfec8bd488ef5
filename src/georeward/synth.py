"""Analytic scene oracle: planes, a moving quad, exact depth and flow.

Frames are rendered by intersecting pixel rays with world-space planes and
shading the hit points with a procedural multi-octave value-noise texture,
so every rendered quantity (color, depth, correspondence, occlusion) has a
closed form. That makes the renderer usable as ground truth: the flow and
depth tensors it emits are exact, and controlled corruptions of the frames
(or of the flow) provide stimuli with known direction of quality change.

decode_latent maps a 4-vector to perturbation amplitudes plus a camera
speed, renders the pair, and injects the corruption. It is the toy
generator the trainer optimizes against the pair reward.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import runtime
from .adapter import FramePair, VideoBundle
from .camera import Intrinsics, PoseSE3, Z_MIN
from .errors import ConfigError, DomainError, ShapeError
from .grid import _from_dict, _json_type_ok, _numbers, _xy_norm, bilinear_sample

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


def _table_corners(iu, iv, key):
    """c00, c10, c01, c11 gathered from a (channels, ny, nx) table that hashes
    each lattice corner of the call's bounding box once.

    Returns None when the box holds more corners than the call has points
    (sparse or wide-range coordinates), when the key is not a scalar or a
    (channels, 1, ...) column, or when the box leaves the exact-integer range
    of float64; the caller then hashes per point. The table holds exactly
    the values the per-point hash computes, so both paths give the same bits.
    """
    key = np.asarray(key)
    column = key.ndim == 0 or key.shape[1:] == (1,) * iu.ndim
    if iu.size == 0 or iu.shape != iv.shape or not column:
        return None
    bounds = x_lo, x_hi, y_lo, y_hi = iu.min(), iu.max(), iv.min(), iv.max()
    if not all(abs(b) < _EXACT_LATTICE for b in bounds):  # also False for NaN
        return None
    nx, ny = x_hi - x_lo + 2.0, y_hi - y_lo + 2.0
    if nx * ny > iu.size:
        return None
    nx, ny = int(nx), int(ny)
    ix = np.arange(int(x_lo), int(x_lo) + nx, dtype=np.int64).view(np.uint64)
    iy = np.arange(int(y_lo), int(y_lo) + ny, dtype=np.int64).view(np.uint64)
    hx = _mix(ix ^ key.reshape(-1, 1))
    table = _hash01(hx[:, None, :], iy[:, None]).reshape(key.size, -1)
    flat = (iv - y_lo).astype(np.intp) * nx
    flat += (iu - x_lo).astype(np.intp)
    shape = np.broadcast_shapes(key.shape, iu.shape)
    return tuple(np.take(table, flat + step, axis=1).reshape(shape) for step in (0, 1, nx, nx + 1))


def _value_noise(u, v, key):
    """Smoothstep-interpolated value noise, C1-continuous, range [0, 1).

    key broadcasts against u and v, so a (3, 1, ...) key array hashes three
    channels in one pass.
    """
    iu = np.floor(u)
    iv = np.floor(v)
    fu = u - iu
    fv = v - iv
    su = fu * fu * (3.0 - 2.0 * fu)
    sv = fv * fv * (3.0 - 2.0 * fv)
    corners = _table_corners(iu, iv, key)
    if corners is None:
        hx0 = _mix(_lattice_bits(iu) ^ key)
        hx1 = _mix(_lattice_bits(iu + 1) ^ key)
        iy0 = _lattice_bits(iv)
        iy1 = _lattice_bits(iv + 1)
        corners = (_hash01(hx0, iy0), _hash01(hx1, iy0), _hash01(hx0, iy1), _hash01(hx1, iy1))
    c00, c10, c01, c11 = corners
    top = c00 + (c10 - c00) * su
    bot = c01 + (c11 - c01) * su
    return top + (bot - top) * sv


def _texture(u, v, freq, seed, salt):
    """Three-octave RGB value noise over plane-local coordinates (world units).

    Each octave hashes the three channels in one pass over a leading channel
    axis; the sum runs in the same order as a per-channel loop would, so the
    bits do not depend on the batching.
    """
    channels = np.arange(3).reshape((3,) + (1,) * u.ndim)
    acc = np.zeros((3,) + u.shape)
    amp, f = 1.0, freq
    with np.errstate(over="ignore"):
        for octave in range(3):
            acc += amp * _value_noise(u * f, v * f, _key(seed, salt, octave, channels))
            amp *= 0.5
            f *= 2.0
    return np.moveaxis(acc / 1.75, 0, -1)


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
            raise ConfigError(f"object size must be > 0, got {self.size}")
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
            raise ConfigError(f"geometry must be one of {_GEOMETRIES}, got {self.geometry!r}")
        h, w = self.resolution
        if h < 32 or w < 32:
            raise ConfigError(f"resolution must be at least 32x32, got {h}x{w}")
        if self.depth <= 0:
            raise ConfigError(f"plane depth must be > 0, got {self.depth}")
        if self.geometry == "two_plane" and self.depth2 <= self.depth:
            raise ConfigError(f"far plane must lie behind the near one, got {self.depth2} <= {self.depth}")
        n = np.asarray(self.normal, dtype=np.float64)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(n)  # also inf or NaN when an entry is
        if not np.isfinite(norm):
            raise ConfigError(f"plane normal must have finite entries and a finite norm, got {self.normal}")
        if n.shape != (3,) or norm == 0 or n[2] <= 0:
            raise ConfigError(f"plane normal must be a 3-vector with positive z, got {self.normal}")
        if len(self.camera_path) == 0:
            raise ConfigError("camera_path must hold at least one pose")
        if self.texture_freq <= 0:
            raise ConfigError(f"texture_freq must be > 0, got {self.texture_freq}")
        if not -SEED_MAX - 1 <= self.texture_seed <= SEED_MAX:
            raise ConfigError(f"texture_seed must fit in a signed 64-bit integer, got {self.texture_seed}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Controlled corruption amplitudes.

    wobble_px warps the second frame by a smooth divergence-free field of
    that peak amplitude (or, with corrupt_flow, adds the field to the
    predicted forward flow instead, emulating a flow-predictor failure).
    texture_drift_px slides the background texture of the second frame;
    object_morph rescales the quad's appearance in the second frame (1 is
    identity); depth_noise_rel multiplies both depth maps by lognormal noise
    of that log-stddev. Flow tensors stay clean unless corrupt_flow is set,
    so the scorer sees an appearance/geometry mismatch, which is the failure
    mode these corruptions model.
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
                raise ConfigError(f"perturbation {name} must be finite, got {value}")
        if self.wobble_px < 0 or self.texture_drift_px < 0 or self.depth_noise_rel < 0:
            raise ConfigError("perturbation amplitudes must be >= 0")
        if self.object_morph <= 0:
            raise ConfigError(f"object_morph must be > 0 (1 = identity), got {self.object_morph}")


# ---------------------------------------------------------------------------
# ray tracing

def _pixel_rays(spec, pose):
    """Camera center, the pixel lattice xs, ys, and each pixel's world-space
    ray, scaled to unit depth in the camera frame."""
    h, w = spec.resolution
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    k = spec.intrinsics
    d_cam = np.stack([(xs - k.cx) / k.fx, (ys - k.cy) / k.fy, np.ones_like(xs)], axis=-1)
    return -pose.r.T @ pose.t, xs, ys, d_cam @ pose.r  # rows R^T d: camera rays in world coordinates


def _plane_s(p0, n, c, dirs):
    """Ray parameter of the plane hit; +inf where the ray is parallel."""
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        s = ((p0 - c) @ n) / denom
    s = np.where(np.abs(denom) < 1e-12, np.inf, s)
    return s


def _unit_normal(spec):
    if spec.geometry == "plane" or spec.geometry == "two_plane":
        return np.array([0.0, 0.0, 1.0])
    n = np.asarray(spec.normal, dtype=np.float64)
    return n / np.linalg.norm(n)


def _surface_hits(spec, frame, c, dirs):
    """Candidate hits per surface: list of (surf_id, s, hit_mask).

    Ray parameter equals camera-frame depth because ray directions are
    normalized to unit z in the camera frame.
    """
    hits = []
    if spec.geometry == "two_plane":
        p0n = np.array([0.0, 0.0, spec.depth])
        nz = np.array([0.0, 0.0, 1.0])
        s_near = _plane_s(p0n, nz, c, dirs)
        px = c[0] + s_near * dirs[..., 0]
        hits.append((1, s_near, (s_near > Z_MIN) & (px < spec.split_x)))
        s_far = _plane_s(np.array([0.0, 0.0, spec.depth2]), nz, c, dirs)
        hits.append((0, s_far, s_far > Z_MIN))
    else:
        n = _unit_normal(spec)
        s = _plane_s(np.array([0.0, 0.0, spec.depth]), n, c, dirs)
        hits.append((0, s, s > Z_MIN))
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


def _trace(spec, frame):
    """Nearest surface along each pixel ray of the frame.

    Returns (points_world, depth, surf_id). Raises when a ray escapes the
    backdrop or the camera sits on the geometry, both of which make the
    scene spec invalid.
    """
    c, xs, _, dirs = _pixel_rays(spec, spec.camera_path[frame])
    hits = _surface_hits(spec, frame, c, dirs)

    best_s = np.full(xs.shape, np.inf)
    best_id = np.full(xs.shape, -1, dtype=np.int8)
    for surf_id, s, ok in hits:
        s_ok = np.where(ok, s, np.inf)
        take = s_ok < best_s
        best_s = np.where(take, s_ok, best_s)
        best_id = np.where(take, np.int8(surf_id), best_id)

    if not np.isfinite(best_s).all():
        raise DomainError("a pixel ray escapes the scene geometry; check camera path and planes")
    if best_s.min() <= 1e-6:
        raise DomainError("camera touches the scene geometry")
    points = c + best_s[..., None] * dirs
    return points, best_s, best_id


def _shade(spec, frame, points, surf_id):
    """Procedural color of world points on their surfaces."""
    rgb = np.zeros(points.shape[:-1] + (3,))
    for sid in np.unique(surf_id):
        sel = surf_id == sid
        pts = points[sel]
        if sid == _OBJ_SURF:
            oc = spec.moving_object.center_at(frame)
            u = pts[:, 0] - oc[0]
            v = pts[:, 1] - oc[1]
            # object texture is denser than the backdrop so the quad stays
            # feature-rich even when it covers only a few patches
            rgb[sel] = _texture(u, v, 4.0 * spec.texture_freq, spec.texture_seed, 100 + _OBJ_SURF)
        else:
            n = _unit_normal(spec) if sid == 0 and spec.geometry == "inclined" else np.array([0.0, 0.0, 1.0])
            # in-plane basis; reduces to world x/y for fronto-parallel planes
            a = np.array([1.0, 0.0, 0.0])
            e1 = a - n * (n @ a)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(n, e1)
            u = pts @ e1
            v = pts @ e2
            rgb[sel] = _texture(u, v, spec.texture_freq, spec.texture_seed, int(sid))
    return rgb


def render_frame(spec: SceneSpec, frame: int):
    """Render one frame: (image [0,1), depth, object mask)."""
    if not 0 <= frame < len(spec.camera_path):
        raise ConfigError(f"frame {frame} outside the camera path of length {len(spec.camera_path)}")
    points, depth, surf = _trace(spec, frame)
    image = _shade(spec, frame, points, surf)
    return image, depth, surf == _OBJ_SURF


def _flow(spec, a, b, depth_a, object_a):
    """Exact flow from frame a to frame b on the pixel lattice.

    A ray's parameter is its depth, so c + depth_a * ray rebuilds frame a's
    hit points bit for bit from its rendered depth; the quad's points
    (object_a) move by the object's displacement, and all project into
    frame b. The flow is zero where a point lands behind (or numerically at)
    the frame-b camera plane; occlusion is not checked.
    """
    c, xs, ys, dirs = _pixel_rays(spec, spec.camera_path[a])
    points = c + depth_a[..., None] * dirs
    obj = spec.moving_object
    if obj is not None:
        points[object_a] += (b - a) * np.asarray(obj.velocity, dtype=np.float64)
    pose_b = spec.camera_path[b]
    cam = points @ pose_b.r.T + pose_b.t
    ok = cam[..., 2] > Z_MIN
    z = np.where(ok, cam[..., 2], 1.0)
    k = spec.intrinsics
    flow = np.stack([k.fx * cam[..., 0] / z + k.cx - xs, k.fy * cam[..., 1] / z + k.cy - ys], axis=-1)
    return np.where(ok[..., None], flow, 0.0)


def render_pair(spec: SceneSpec, frame_index: int, stride: int = 1, *, frame_a=None) -> FramePair:
    """Render frames (frame_index, frame_index + stride) with exact tensors.

    The moving quad's pixels are the pair's dynamic masks, as in
    render_video; the pair carries no confidence. frame_a, when given, must
    be render_frame(spec, frame_index): a caller that renders many pairs
    from one first frame passes it to skip shading it again. The pair holds
    it by reference.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    fa, fb = frame_index, frame_index + stride
    if fb >= len(spec.camera_path):
        raise ConfigError(
            f"pair ({fa}, {fb}) needs a camera path of length > {fb}, got {len(spec.camera_path)}"
        )
    image_a, depth_a, obj_a = render_frame(spec, fa) if frame_a is None else frame_a
    image_b, depth_b, obj_b = render_frame(spec, fb)
    return FramePair(
        image_a=image_a,
        image_b=image_b,
        depth_a=depth_a,
        depth_b=depth_b,
        flow_fwd=_flow(spec, fa, fb, depth_a, obj_a),
        flow_bwd=_flow(spec, fb, fa, depth_b, obj_b),
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

def wobble_field(shape, amplitude_px, seed, salt=11):
    """Smooth divergence-free warp field with the given peak magnitude.

    Built as the discrete curl (central differences) of a value-noise
    potential tapered to zero at the image border, so the discrete
    divergence vanishes identically and no sample leaves the frame by much.
    """
    h, w = shape
    ys, xs = np.mgrid[-1 : h + 1, -1 : w + 1].astype(np.float64)
    freq = 3.0 / min(h, w)
    with np.errstate(over="ignore"):
        psi = _value_noise(xs * freq, ys * freq, _key(seed, salt)) - 0.5
    taper = np.maximum(np.sin(np.pi * xs / (w - 1.0)), 0.0) * np.maximum(np.sin(np.pi * ys / (h - 1.0)), 0.0)
    psi = psi * taper
    vx = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / 2.0
    vy = -(psi[1:-1, 2:] - psi[1:-1, :-2]) / 2.0
    field_ = np.stack([vx, vy], axis=-1)
    peak = _xy_norm(field_).max()
    if peak > 0 and amplitude_px > 0:
        field_ = field_ * (amplitude_px / peak)
    else:
        field_ = np.zeros_like(field_)
    return field_


def _warp_image(img, disp):
    """Sample img at each pixel plus disp, bilinear with border clamp; for
    the corruption paths only, the reward path must keep the zero-plus-flag
    rule."""
    h, w = img.shape[:2]
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    x = np.clip(xs + disp[..., 0], 0.0, w - 1.0)
    y = np.clip(ys + disp[..., 1], 0.0, h - 1.0)
    vals, _ = bilinear_sample(img, np.stack([x, y], axis=-1).reshape(-1, 2))
    return vals.reshape(img.shape)


def _drift_image(img, object_mask, shift_px):
    disp = np.zeros(img.shape[:2] + (2,))
    disp[..., 0] = shift_px
    shifted = _warp_image(img, disp)
    return np.where(object_mask[..., None], img, shifted)


def _morph_pixels(img, object_mask, scale):
    """Radially magnify the quad's appearance around its projected center."""
    if not object_mask.any():
        return img
    ys_m, xs_m = np.nonzero(object_mask)
    cx = xs_m.mean()
    cy = ys_m.mean()
    radius = max(xs_m.max() - xs_m.min(), ys_m.max() - ys_m.min()) / 2.0 + 1.0
    reach = radius * max(scale, 1.0) * 1.5
    h, w = img.shape[:2]
    ys, xs = np.ogrid[0:h, 0:w]
    dx = xs - cx
    dy = ys - cy
    falloff = np.exp(-((dx * dx + dy * dy) / (reach * reach)))
    gain = (1.0 / scale - 1.0) * falloff
    return _warp_image(img, np.stack([dx * gain, dy * gain], axis=-1))


def _corrupt_image(img, object_mask, p: PerturbationSpec, seed, salt, drift_frames, morph):
    """Apply p's frame corruptions in order: wobble (unless corrupt_flow
    routes it into the flow), texture drift over drift_frames frames, then
    an object morph by factor morph."""
    if p.wobble_px > 0 and not p.corrupt_flow:
        img = _warp_image(img, wobble_field(img.shape[:2], p.wobble_px, seed, salt=salt))
    if p.texture_drift_px > 0:
        img = _drift_image(img, object_mask, p.texture_drift_px * drift_frames)
    if p.object_morph != 1.0:
        img = _morph_pixels(img, object_mask, morph)
    return img


def _noisy_depth(depth, p: PerturbationSpec, seed, frame):
    """Multiply depth by lognormal noise of log-stddev p.depth_noise_rel,
    drawn from a stream keyed by (seed, frame)."""
    if p.depth_noise_rel > 0:
        rng = np.random.default_rng([seed, 13, frame])
        depth = depth * np.exp(p.depth_noise_rel * rng.standard_normal(depth.shape))
    return depth


def inject_perturbation(pair: FramePair, p: PerturbationSpec, seed: int) -> FramePair:
    """Deterministically corrupt a rendered pair.

    The first frame and the ground-truth flow stay clean (unless
    corrupt_flow routes the wobble into the forward flow); depth noise is
    the only corruption that touches the depth tensors. Each corruption
    skips itself at its identity amplitude, so a no-op spec returns a pair
    holding the same arrays.
    """
    dframes = pair.frame_b - pair.frame_a
    flow_fwd = pair.flow_fwd
    if p.wobble_px > 0 and p.corrupt_flow:
        flow_fwd = flow_fwd + wobble_field(pair.image_b.shape[:2], p.wobble_px, seed)
    return replace(
        pair,
        image_b=_corrupt_image(pair.image_b, pair.dynamic_b, p, seed, 11, dframes, p.object_morph),
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

    The frames, then the flow pairs, are rendered on runtime.ordered_map,
    each task covering one frame's pixels. Each task is pure and returns
    the arrays it allocated, so the bundle is the same at every thread
    count.
    """
    p = perturb if perturb is not None else PerturbationSpec()
    n = len(spec.camera_path)
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if n < stride + 1:
        raise ConfigError(f"camera path has {n} frames; need at least stride + 1 = {stride + 1}")
    pixels = spec.resolution[0] * spec.resolution[1]

    def frame(i):
        img, dep, msk = render_frame(spec, i)
        if i > 0:
            img = _corrupt_image(img, msk, p, seed, 11 + i, i, p.object_morph**i)
        return img, dep, msk

    images, depths, masks = map(list, zip(*runtime.ordered_map(frame, runtime.Tasks(range(n), pixels))))

    # the flows are built from the clean depths, then the depths take their noise
    def flow_pair(a):
        b = a + stride
        fwd = _flow(spec, a, b, depths[a], masks[a])
        if p.wobble_px > 0 and p.corrupt_flow:
            fwd += wobble_field(fwd.shape[:2], p.wobble_px, seed, salt=11 + b)
        return fwd, _flow(spec, b, a, depths[b], masks[b])

    pairs = runtime.Tasks(range(n - stride), pixels)
    flows_fwd, flows_bwd = map(list, zip(*runtime.ordered_map(flow_pair, pairs)))
    for i in range(1, n):
        depths[i] = _noisy_depth(depths[i], p, seed, i)

    return VideoBundle(
        images=images,
        depths=depths,
        flows_fwd=flows_fwd,
        flows_bwd=flows_bwd,
        intrinsics=[spec.intrinsics] * n,
        poses=list(spec.camera_path),
        flow_stride=stride,
        confidences=[np.ones(spec.resolution) for _ in range(n)],
        dynamic_masks=masks,
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


def decode_latent(z, template: SceneSpec, seed: int = 0, *, frame_a=None) -> FramePair:
    """Decode a latent 4-vector into a (possibly corrupted) rendered pair.

    Coordinates map monotonically to (wobble px, texture drift px, object
    morph, camera x-speed); pushing the first three toward minus infinity
    drives the corruption to zero. Deterministic in (z, template, seed).
    The wobble corrupts the forward flow (not the frame), so both the
    structural and the feature term of the reward stay sensitive.

    The first frame does not depend on z: frame_a, when given, must be
    render_frame(template, 0), and the decode then reuses it unshaded.
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.shape != (LATENT_DIM,):
        raise ShapeError(f"latent must have dimension {LATENT_DIM}, got shape {z.shape}")
    wobble = _squash(z[0], *WOBBLE_RANGE)
    drift = _squash(z[1], *DRIFT_RANGE)
    morph = _squash(z[2], *MORPH_RANGE)
    t_x = _squash(z[3], *CAM_TX_RANGE)

    e_a = template.camera_path[0]
    e_b = PoseSE3(e_a.r, e_a.t + np.array([t_x, 0.0, 0.0]))
    spec = replace(template, camera_path=(e_a, e_b))
    pair = render_pair(spec, 0, frame_a=frame_a)
    corruption = PerturbationSpec(
        wobble_px=wobble,
        texture_drift_px=drift,
        object_morph=morph,
        corrupt_flow=True,
    )
    return inject_perturbation(pair, corruption, seed)


# ---------------------------------------------------------------------------
# JSON scene documents

def _pose_from_dict(d):
    if not isinstance(d, dict) or "r" not in d or "t" not in d:
        raise ConfigError("camera pose entries need 'r' (3x3) and 't' (3) fields")
    r = _numbers(d["r"], (3, 3), "camera pose r")
    t = _numbers(d["t"], (3,), "camera pose t")
    return PoseSE3(np.asarray(r, dtype=np.float64), np.asarray(t, dtype=np.float64))


def _path_from_json(doc):
    if isinstance(doc, dict):
        if doc.get("kind") != "linear":
            raise ConfigError(f"unknown camera path kind {doc.get('kind')!r}")
        frames = doc.get("frames", 2)
        if not _json_type_ok(frames, int) or frames < 1:
            raise ConfigError(f"camera_path frames must be an integer >= 1, got {frames!r}")
        vel = _numbers(doc.get("velocity", (0.0, 0.0, 0.0)), (3,), "camera_path velocity")
        vel = np.asarray(vel, dtype=np.float64)
        with np.errstate(over="ignore"):
            ts = [i * vel for i in range(frames)]
        if not np.isfinite(ts).all():
            raise ConfigError(f"camera_path velocity {vel.tolist()} over {frames} frames leaves the finite range")
        return tuple(PoseSE3(np.eye(3), t) for t in ts)
    if not isinstance(doc, list):
        raise ConfigError(f"camera_path must be an object or a list of poses, got {doc!r}")
    return tuple(_pose_from_dict(p) for p in doc)


_INTRINSICS_KEYS = ("fx", "fy", "cx", "cy")


def _intrinsics_from_json(doc):
    if isinstance(doc, dict):
        if sorted(doc) != sorted(_INTRINSICS_KEYS):
            raise ConfigError(f"intrinsics object needs exactly fx, fy, cx and cy, got {sorted(doc)}")
        doc = [doc[k] for k in _INTRINSICS_KEYS]
    return Intrinsics(*_numbers(doc, (4,), "intrinsics"))


def _object_from_json(doc):
    if not isinstance(doc, dict):
        raise ConfigError(f"moving_object must be a JSON object, got {doc!r}")
    vectors = {
        key: tuple(_numbers(doc[key], (3,), f"moving_object {key}"))
        for key in ("center", "velocity")
        if key in doc
    }
    return _from_dict(ObjectSpec, {**doc, **vectors}, "moving_object")


def scene_from_dict(doc: dict) -> SceneSpec:
    """Build a SceneSpec from its JSON document form. Unknown keys and
    values of the wrong JSON type raise ConfigError naming the field."""
    if not isinstance(doc, dict):
        raise ConfigError("scene document must be a JSON object")
    kwargs = dict(doc)
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
    return _from_dict(SceneSpec, kwargs, "scene")


def perturbation_from_dict(doc: dict) -> PerturbationSpec:
    """Build a PerturbationSpec from its JSON document form (strict keys and
    JSON types)."""
    return _from_dict(PerturbationSpec, doc, "perturbation")
