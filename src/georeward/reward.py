"""Geometry-consistency reward for frame pairs.

The per-pair score blends two terms:

  * a structural term: predicted forward flow is compared against the rigid
    flow implied by depth and camera motion (normalized endpoint error), and
    source depth is warped into the target view and compared against the
    target depth (relative error). Both maps are clamped to [0, 1], their
    complements multiplied into a quality map Q, and the mean of Q over the
    valid set is shifted to [-1, 0].
  * a feature term: the source frame is warped to the target by the backward
    flow, patch features are extracted from both, and the negative mean
    cosine distance lands in [-2, 0].

r_pair = lam * r_geo + (1 - lam) * r_dino. A video score is the mean of
r_pair over all (tau, tau + stride) pairs.

All maps live on one HxW lattice. The valid set Omega intersects rigid-flow
validity, depth-warp coverage, positive target depth and, when hard gating
is on, the confidence threshold.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import runtime
from .adapter import FramePair, VideoBundle, _pixels
from .camera import relative_transform, reproject_depth, rigid_flow
from .errors import ConfigError, EmptyMaskError, InputError, NumericError, ShapeError
from .grid import _shown, _xy_norm, backward_warp, bilinear_sample

# Hole pixels in the depth-error map carry this finite sentinel. They are
# excluded from Omega, so the value only matters for dumped diagnostics,
# where it renders holes as zero quality.
HOLE_SENTINEL = 1.0

_GATING_MODES = ("off", "soft", "hard")


@dataclass(frozen=True)
class RewardConfig:
    """Knobs of the pair scorer.

    lam: blend weight of the structural term, in [0, 1].
    eps_num: stabilizer added to both error denominators (pixels; reused
        unitlessly for depth).
    gating: "off", "soft" (weight by confidence) or "hard" (threshold into
        the valid set).
    conf_threshold: membership threshold for hard gating.
    feature_patch: patch size of the built-in feature extractor, pixels.
    """

    lam: float = 0.5
    eps_num: float = 1.5
    gating: str = "soft"
    conf_threshold: float = 0.5
    feature_patch: int = 8

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {_shown(self.lam)}")
        if not self.eps_num > 0:
            raise ConfigError(f"eps_num must be > 0, got {_shown(self.eps_num)}")
        if self.gating not in _GATING_MODES:
            raise ConfigError(f"gating must be one of {_GATING_MODES}, got {_shown(self.gating)}")
        if self.gating == "hard" and not 0.0 < self.conf_threshold < 1.0:
            raise ConfigError(f"conf_threshold must be in (0, 1), got {_shown(self.conf_threshold)}")
        if self.feature_patch < 1:
            raise ConfigError(f"feature_patch must be >= 1, got {_shown(self.feature_patch)}")


@dataclass
class PairScore:
    r_geo: float
    r_dino: float
    r_pair: float
    valid_fraction: float
    maps: dict = field(repr=False, default_factory=dict)
    tau: int = 0

    def summary(self):
        return {
            "tau": self.tau,
            "r_geo": self.r_geo,
            "r_dino": self.r_dino,
            "r_pair": self.r_pair,
            "valid_fraction": self.valid_fraction,
        }


@dataclass
class VideoScore:
    pair_scores: list
    r_video: float

    def report(self, config: RewardConfig):
        return {
            "pairs": [p.summary() for p in self.pair_scores],
            "r_video": self.r_video,
            "config": asdict(config),
        }


def pair_reward(r_geo: float, r_dino: float, lam: float) -> float:
    """Blend the structural and feature terms."""
    return lam * r_geo + (1.0 - lam) * r_dino


def normalized_epe(f_pred, f_rig, eps: float):
    """Per-pixel ||F_pred - F_rig|| / (||F_pred|| + ||F_rig|| + eps).

    Always >= 0; values above 1 are possible and get clamped later in
    geo_quality, not here.
    """
    fp = np.asarray(f_pred, dtype=np.float64)
    fr = np.asarray(f_rig, dtype=np.float64)
    if fp.shape != fr.shape or fp.shape[-1] != 2:
        raise ShapeError(f"flow shapes must match and end in 2, got {fp.shape} vs {fr.shape}")
    if not eps > 0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    num = _xy_norm(fp - fr)
    den = _xy_norm(fp) + _xy_norm(fr) + eps
    return num / den


def relative_depth_error(d_warp, d_next, eps: float, covered):
    """Per-pixel |D_warp - D_next| / (D_next + eps) where the warp landed.

    Pixels outside `covered` (holes) or with unusable target depth carry
    HOLE_SENTINEL; callers exclude them from the valid set.
    """
    dw = np.asarray(d_warp, dtype=np.float64)
    dn = np.asarray(d_next, dtype=np.float64)
    cov = np.asarray(covered, dtype=bool)
    if dw.shape != dn.shape or dw.shape != cov.shape:
        raise ShapeError(f"depth/mask shapes must match, got {dw.shape}, {dn.shape}, {cov.shape}")
    if not eps > 0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    ok = cov & np.isfinite(dn) & (dn + eps > 0)
    den = np.where(ok, dn + eps, 1.0)
    err = np.abs(dw - dn) / den
    return np.where(ok, err, HOLE_SENTINEL)


def geo_quality(epe_map, depth_err_map):
    """Q = (1 - min(epe, 1)) * (1 - min(depth_err, 1)), in [0, 1]."""
    e = np.minimum(np.asarray(epe_map, dtype=np.float64), 1.0)
    d = np.minimum(np.asarray(depth_err_map, dtype=np.float64), 1.0)
    if e.shape != d.shape:
        raise ShapeError(f"map shapes must match, got {e.shape} vs {d.shape}")
    return (1.0 - e) * (1.0 - d)


def r_geo(q_map, omega, weights=None):
    """Weighted mean of Q over the valid set, shifted to [-1, 0].

    Per-pixel `weights` (the confidences under soft gating), else 1 each.
    Raises EmptyMaskError when nothing is valid (all-black frames, total
    occlusion), since a mean over nothing is meaningless.
    """
    q = np.asarray(q_map, dtype=np.float64)
    om = np.asarray(omega, dtype=bool)
    if q.shape != om.shape:
        raise ShapeError(f"Q/omega shapes must match, got {q.shape} vs {om.shape}")
    if not om.any():
        raise EmptyMaskError("no valid pixels in the quality aggregation")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)[om]
        total = w.sum()
        if not total > 0:
            raise EmptyMaskError("confidence weights sum to zero on the valid set")
        return float((q[om] * w).sum() / total - 1.0)
    return float(q[om].mean() - 1.0)


def r_dino(feat_warped, feat_target, weights):
    """Negative weighted mean patch cosine distance, in [-2, 0].

    `weights` is a boolean or nonnegative float grid over patches; zero-norm
    feature vectors on either side contribute cosine 0 (maximal bounded
    distance) instead of NaN.
    """
    fw = np.asarray(feat_warped, dtype=np.float64)
    ft = np.asarray(feat_target, dtype=np.float64)
    if fw.shape != ft.shape or fw.ndim != 3:
        raise ShapeError(f"feature grids must match, got {fw.shape} vs {ft.shape}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != fw.shape[:2]:
        raise ShapeError(f"weight grid {w.shape} does not match patches {fw.shape[:2]}")
    total = w.sum()
    if not total > 0:
        raise EmptyMaskError("no valid patches in the feature aggregation")

    na = np.linalg.norm(fw, axis=-1)
    nb = np.linalg.norm(ft, axis=-1)
    nonzero = (na > 0) & (nb > 0)
    den = np.where(nonzero, na * nb, 1.0)
    cos = np.where(nonzero, (fw * ft).sum(axis=-1) / den, 0.0)
    # rounding can push a self-cosine past 1, which would leak outside [-2, 0]
    cos = np.clip(cos, -1.0, 1.0)
    return float(-((1.0 - cos) * w).sum() / total)


def reference_features(image, patch: int):
    """Deterministic patch features: mean RGB, RGB std, orientation histogram.

    Returns an (H/patch, W/patch, 12) grid: channels 0-2 per-patch RGB mean,
    3-5 per-patch RGB standard deviation, 6-11 a 6-bin gradient-orientation
    histogram of luminance (magnitude-weighted votes, normalized by patch
    area). Images whose sides are not multiples of `patch` are cropped down
    to the largest fitting multiple.
    """
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"expected an HxWx3 image, got shape {img.shape}")
    if img.dtype == np.uint8:
        img = img.astype(np.float64) / 255.0
    else:
        img = np.ascontiguousarray(img, dtype=np.float64)
    h, w, _ = img.shape
    if patch > min(h, w):
        raise ConfigError(f"patch {patch} exceeds image sides {h}x{w}")
    blocks = _blocks(img, patch)
    ph, _, pw, _, _ = blocks.shape
    img = img[: ph * patch, : pw * patch]  # the gradients see the same crop
    # A patch-major copy (patch, patch, ph, pw, 3): summing over the two
    # leading axes adds each patch's pixels in the order numpy's
    # blocks.mean/std(axis=(1, 3)) does, so the bits match, but with
    # (ph, pw, 3)-wide inner loops instead of 3-wide ones. It must be a
    # copy: at patch 1 the transpose is already contiguous, and the
    # in-place steps below would write into the caller's image.
    tiles = blocks.transpose(1, 3, 0, 2, 4).copy()
    area = patch * patch
    mean = tiles.sum(axis=(0, 1)) / area
    tiles -= mean
    tiles *= tiles
    std = np.sqrt(tiles.sum(axis=(0, 1)) / area)
    del tiles

    lum = img @ np.array([0.299, 0.587, 0.114])
    gy, gx = np.gradient(lum)
    mag = np.hypot(gx, gy)
    bins = _orientation_bins(gy, gx)

    row_idx = np.repeat(np.arange(ph), patch)[:, None]
    col_idx = np.repeat(np.arange(pw), patch)[None, :]
    flat_patch = (row_idx * pw + col_idx).astype(np.intp)
    hist = np.zeros((ph * pw * 6,))
    np.add.at(hist, (flat_patch * 6 + bins).ravel(), mag.ravel())
    hist = hist.reshape(ph, pw, 6) / float(patch * patch)

    return np.concatenate([mean, std, hist], axis=-1)


def _orientation_bins(gy, gx):
    """The 6-bin index of each gradient's orientation mod pi: the bins of
    np.mod(np.arctan2(gy, gx), np.pi), folded without np.mod, which takes
    3x as long. pi goes to 0, as fmod takes it, and a negative angle gains
    pi, as numpy's divmod correction adds it (the rest gain an exact 0.0);
    -pi and -0.0 both land in bin 0."""
    theta = np.arctan2(gy, gx)
    theta[theta == np.pi] = 0.0
    theta += (theta < 0) * np.pi
    theta /= np.pi / 6.0
    bins = theta.astype(np.int32)  # at most 6; int32 converts faster than intp
    return np.minimum(bins, 5, out=bins)


def _blocks(a, patch):
    """The patch x patch blocks of `a`, cropped down to whole blocks:
    shape (H // patch, patch, W // patch, patch) plus a's trailing axes."""
    ph, pw = a.shape[0] // patch, a.shape[1] // patch
    return a[: ph * patch, : pw * patch].reshape(ph, patch, pw, patch, *a.shape[2:])


def _require_finite(stage, *arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericError(f"{stage} produced non-finite values")


def _feature_term(pair, config, conf_patch):
    """r_dino via either the built-in extractor or the pair's per-frame
    feature grids (warped in feature space)."""
    flow_bwd = pair.flow_bwd
    if pair.features_a is not None or pair.features_b is not None:
        if pair.features_a is None or pair.features_b is None:
            raise InputError("feature grids must be supplied for both frames or neither")
        fa = np.asarray(pair.features_a, dtype=np.float64)
        fb = np.asarray(pair.features_b, dtype=np.float64)
        if fa.shape != fb.shape or fa.ndim != 3:
            raise ShapeError(f"feature grids must match, got {fa.shape} vs {fb.shape}")
        h, w = pair.image_a.shape[:2]
        fh, fw_ = fa.shape[:2]
        sy, sx = h / fh, w / fw_  # pixels per feature cell along each axis
        centers = np.empty((fh, fw_, 2))  # each cell's centre in pixels
        centers[..., 0] = np.arange(fw_, dtype=np.float64) * sx + (sx - 1.0) / 2.0
        centers[..., 1] = np.arange(fh, dtype=np.float64)[:, None] * sy + (sy - 1.0) / 2.0
        fvals, _ = bilinear_sample(np.asarray(flow_bwd, dtype=np.float64), centers.reshape(-1, 2))
        cell_flow = fvals.reshape(fh, fw_, 2) / np.array([sx, sy])
        warped, inb = backward_warp(fa, cell_flow)
        weights = inb.astype(np.float64)
        target = fb
    else:
        warped_img, warp_mask = backward_warp(np.asarray(pair.image_a, dtype=np.float64), flow_bwd)
        _require_finite("backward warp", warped_img)
        warped = reference_features(warped_img, config.feature_patch)
        target = reference_features(np.asarray(pair.image_b, dtype=np.float64), config.feature_patch)
        weights = _blocks(warp_mask, config.feature_patch).all(axis=(1, 3)).astype(np.float64)
    if conf_patch is not None:
        weights = weights * conf_patch
    return r_dino(warped, target, weights)


def score_pair(pair: FramePair, config: RewardConfig = None):
    """Score one frame pair.

    pair.flow_fwd is the predicted flow a->b (compared against rigid flow);
    pair.flow_bwd is the predicted flow b->a and drives the appearance
    warp, because backward sampling is the only dense, differentiable,
    hole-free warp. The pair's optional confidence maps feed the gating
    mode; its optional feature grids replace the built-in extractor.
    The score's maps hold epe, depth_err, q_geo and omega.
    """
    cfg = config if config is not None else RewardConfig()
    d_a = np.asarray(pair.depth_a, dtype=np.float64)
    d_b = np.asarray(pair.depth_b, dtype=np.float64)
    if d_a.shape != d_b.shape or d_a.ndim != 2:
        raise ShapeError(f"depth maps must be HxW and match, got {d_a.shape} vs {d_b.shape}")
    h, w = d_a.shape

    k_a, k_b = pair.intrinsics_a, pair.intrinsics_b
    transform = relative_transform(pair.pose_a, pair.pose_b)
    f_rig, rig_valid, target, z = rigid_flow(d_a, k_a, k_b, transform)
    _require_finite("rigid flow", f_rig)

    epe = normalized_epe(pair.flow_fwd, f_rig, cfg.eps_num)
    _require_finite("normalized EPE", epe)

    d_warp, covered = reproject_depth(target, z, rig_valid)
    del target, z  # lattice-sized; not held through the feature term
    _require_finite("depth reprojection", d_warp)

    depth_err = relative_depth_error(d_warp, d_b, cfg.eps_num, covered)
    _require_finite("relative depth error", depth_err)

    q = geo_quality(epe, depth_err)
    _require_finite("geometric quality", q)

    omega = rig_valid & covered & (d_b > 0)

    conf = None
    for side, c in (("a", pair.confidence_a), ("b", pair.confidence_b)):
        if c is None:
            continue
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (h, w):
            raise ShapeError(f"confidence shape {c.shape} does not match frames {(h, w)}")
        # NaN fails both comparisons
        if not (c.min() >= 0.0 and c.max() <= 1.0):
            raise InputError(f"confidence_{side} must lie in [0, 1], got [{c.min()}, {c.max()}]")
        conf = c if conf is None else np.minimum(conf, c)

    if cfg.gating == "hard" and conf is not None:
        omega = omega & (conf >= cfg.conf_threshold)

    rg = r_geo(q, omega, conf if cfg.gating == "soft" else None)

    conf_patch = None
    if cfg.gating == "soft" and conf is not None and pair.features_a is None:
        conf_patch = _blocks(conf, cfg.feature_patch).mean(axis=(1, 3))
    rd = _feature_term(pair, cfg, conf_patch)

    rp = pair_reward(rg, rd, cfg.lam)
    if not np.isfinite(rp):
        raise NumericError("pair reward is non-finite")
    return PairScore(
        r_geo=rg,
        r_dino=rd,
        r_pair=rp,
        valid_fraction=float(omega.sum()) / float(h * w),
        maps={"epe": epe, "depth_err": depth_err, "q_geo": q, "omega": omega},
        tau=pair.frame_a,
    )


def score_video(video: VideoBundle, config: RewardConfig = None, keep_maps=False):
    """Score all (tau, tau + video.flow_stride) pairs of a clip and average.

    Confidences and feature grids are used when the video has them.
    Each pair is read inside the task that scores it, so a bundle from
    read_bundle holds only the pairs in flight; a frame in no pair is read
    once, which checks its payloads. Pair scores keep their maps with
    keep_maps, else none: each task drops its pair's maps.
    """
    cfg = config if config is not None else RewardConfig()
    stride = video.flow_stride
    expected = len(video) - stride
    for i in range(expected, stride):  # frames between the last a and the first b, when n < 2 * stride
        video._frame(i)
    tasks = runtime.Tasks(range(expected), _pixels(video.depths))

    def score(tau):
        ps = score_pair(video.pair(tau), cfg)
        return ps if keep_maps else replace(ps, maps={})

    scores = runtime.ordered_map(score, tasks)
    r_video = float(np.mean([p.r_pair for p in scores]))
    return VideoScore(pair_scores=scores, r_video=r_video)
