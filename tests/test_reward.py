"""Pair scoring: error maps, quality aggregation, feature term, video mean."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from georeward import (
    Intrinsics,
    PoseSE3,
    RewardConfig,
    SceneSpec,
    geo_quality,
    normalized_epe,
    pair_reward,
    read_bundle,
    relative_depth_error,
    render_pair,
    render_video,
    score_pair,
    score_video,
    write_bundle,
)
from georeward.errors import (
    ConfigError,
    EmptyMaskError,
    InputError,
    NumericError,
    ShapeError,
)
from georeward import grid, reward
from georeward.reward import HOLE_SENTINEL, r_dino, r_geo, reference_features
from georeward.synth import ObjectSpec, PerturbationSpec


def const_flow(h, w, dx, dy=0.0):
    flow = np.zeros((h, w, 2))
    flow[..., 0], flow[..., 1] = dx, dy
    return flow


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    with pytest.raises(ConfigError):
        RewardConfig(lam=1.5)
    with pytest.raises(ConfigError):
        RewardConfig(eps_num=0.0)
    with pytest.raises(ConfigError):
        RewardConfig(gating="maybe")


# ---------------------------------------------------------------------------
# error maps

def test_epe_zero_for_identical_flows():
    f = const_flow(4, 4, 3.0, -2.0)
    np.testing.assert_array_equal(normalized_epe(f, f, 1.0), np.zeros((4, 4)))


def test_epe_worked_values():
    # |6-4| / (6+4+1) and 5 / (5+0+1)
    e1 = normalized_epe(const_flow(2, 2, 6.0), const_flow(2, 2, 4.0), 1.0)
    np.testing.assert_allclose(e1, 2.0 / 11.0, atol=1e-15)
    e2 = normalized_epe(const_flow(2, 2, 3.0, 4.0), const_flow(2, 2, 0.0), 1.0)
    np.testing.assert_allclose(e2, 5.0 / 6.0, atol=1e-15)


def test_epe_shape_mismatch():
    with pytest.raises(ShapeError):
        normalized_epe(const_flow(2, 2, 1.0), const_flow(2, 3, 1.0), 1.0)


def test_depth_error_worked_value():
    d_warp = np.full((3, 3), 2.2)
    d_next = np.full((3, 3), 2.0)
    err = relative_depth_error(d_warp, d_next, 1.0, np.ones((3, 3), dtype=bool))
    np.testing.assert_allclose(err, 0.2 / 3.0, atol=1e-15)


def test_depth_error_holes_carry_the_sentinel():
    covered = np.ones((2, 2), dtype=bool)
    covered[0, 1] = False
    err = relative_depth_error(np.full((2, 2), 2.0), np.full((2, 2), 2.0), 1.0, covered)
    assert err[0, 1] == HOLE_SENTINEL
    assert err[0, 0] == 0.0


def test_geo_quality_worked_values():
    q = geo_quality(np.zeros((2, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(q, np.ones((2, 2)))
    # errors above 1 clamp to zero quality
    q = geo_quality(np.full((2, 2), 1.7), np.zeros((2, 2)))
    np.testing.assert_array_equal(q, np.zeros((2, 2)))
    q = geo_quality(np.full((1, 1), 2.0 / 11.0), np.full((1, 1), 1.0 / 15.0))
    np.testing.assert_allclose(q, (9.0 / 11.0) * (14.0 / 15.0), atol=1e-9)


# ---------------------------------------------------------------------------
# aggregation

def test_r_geo_is_mean_quality_minus_one():
    omega = np.ones((2, 2), dtype=bool)
    assert r_geo(np.ones((2, 2)), omega) == 0.0
    assert r_geo(np.full((2, 2), 0.5), omega) == pytest.approx(-0.5, abs=1e-15)
    q = np.array([[1.0, 0.5], [0.0, 1.0]])
    omega = np.array([[True, True], [True, False]])
    assert r_geo(q, omega) == pytest.approx(-0.5, abs=1e-15)


def test_r_geo_empty_mask():
    with pytest.raises(EmptyMaskError):
        r_geo(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))


def test_r_geo_soft_weights_match_manual_weighted_mean():
    rng = np.random.default_rng(11)
    q = rng.uniform(0, 1, size=(6, 6))
    conf = rng.uniform(0.1, 1, size=(6, 6))
    omega = rng.uniform(size=(6, 6)) > 0.3
    got = r_geo(q, omega, conf)
    want = float((q[omega] * conf[omega]).sum() / conf[omega].sum()) - 1.0
    assert got == pytest.approx(want, abs=1e-12)


def test_r_dino_trivial_cases():
    ones = np.ones((3, 4, 5))
    w = np.ones((3, 4))
    assert r_dino(ones, ones, w) == pytest.approx(0.0, abs=1e-12)
    a = np.zeros((2, 2, 2))
    b = np.zeros((2, 2, 2))
    a[..., 0], b[..., 1] = 1.0, 1.0  # orthogonal at every patch
    assert r_dino(a, b, np.ones((2, 2))) == pytest.approx(-1.0, abs=1e-12)
    half = a.copy()
    half[0] = b[0]  # half aligned, half orthogonal
    assert r_dino(half, b, np.ones((2, 2))) == pytest.approx(-0.5, abs=1e-12)


def test_r_dino_zero_norm_counts_as_zero_similarity():
    a = np.zeros((1, 2, 3))
    b = np.ones((1, 2, 3))
    assert r_dino(a, b, np.ones((1, 2))) == pytest.approx(-1.0, abs=1e-12)


def test_r_dino_empty_weights():
    with pytest.raises(EmptyMaskError):
        r_dino(np.ones((2, 2, 3)), np.ones((2, 2, 3)), np.zeros((2, 2)))


def test_pair_reward_blend():
    assert pair_reward(-0.2, -0.4, 0.5) == pytest.approx(-0.3, abs=1e-15)
    assert pair_reward(-0.2, -0.4, 1.0) == -0.2
    assert pair_reward(-0.2, -0.4, 0.0) == -0.4


# ---------------------------------------------------------------------------
# built-in features

def test_features_of_constant_gray():
    img = np.full((16, 16, 3), 0.5)
    feats = reference_features(img, 8)
    assert feats.shape == (2, 2, 12)
    np.testing.assert_allclose(feats[..., :3], 0.5, atol=1e-12)
    np.testing.assert_allclose(feats[..., 3:], 0.0, atol=1e-12)


def test_features_shift_by_one_period_match():
    xs = np.arange(32)
    img = np.repeat((0.5 + 0.4 * np.sin(2 * np.pi * xs / 8.0))[None, :, None], 24, axis=0)
    img = np.repeat(img, 3, axis=2)
    rolled = np.roll(img, 8, axis=1)
    f1 = reference_features(img, 8)
    f2 = reference_features(rolled, 8)
    np.testing.assert_allclose(f1, f2, atol=1e-6)
    assert r_dino(f1, f2, np.ones(f1.shape[:2])) == pytest.approx(0.0, abs=1e-6)


def test_features_crop_to_patch_multiples():
    rng = np.random.default_rng(12)
    img = rng.uniform(size=(50, 66, 3))
    f_full = reference_features(img, 8)
    f_crop = reference_features(img[:48, :64], 8)
    assert f_full.shape == (6, 8, 12)
    np.testing.assert_array_equal(f_full, f_crop)


def _blocks_mean_std(image, patch):
    """Per-patch mean and std the way reference_features computed them
    before its patch-major sums: numpy over the (1, 3) axes of the blocks."""
    img = image.astype(np.float64) / 255.0 if image.dtype == np.uint8 else image.astype(np.float64)
    ph, pw = img.shape[0] // patch, img.shape[1] // patch
    blocks = img[: ph * patch, : pw * patch].reshape(ph, patch, pw, patch, 3)
    return blocks.mean(axis=(1, 3)), blocks.std(axis=(1, 3))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
@pytest.mark.parametrize(
    "shape,patch",
    [((40, 40), 1), ((40, 40), 3), ((48, 64), 5), ((48, 64), 8), ((50, 66), 8), ((37, 53), 3),
     ((250, 330), 8), ((256, 320), 8), ((256, 320), 16), ((70, 90), 16)],
)
def test_patch_mean_std_match_the_blocks_reduction(dtype, shape, patch):
    rng = np.random.default_rng(patch * 1000 + shape[1])
    if dtype is np.uint8:
        img = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
    else:
        # magnitudes spread over six decades, so any change in the order
        # of a patch's sum shows in the low bits
        img = (rng.uniform(size=(*shape, 3)) * 10.0 ** rng.integers(-3, 3, size=(*shape, 3))).astype(dtype)
    mean, std = _blocks_mean_std(img, patch)
    before = img.copy()
    feats = reference_features(img, patch)
    assert img.tobytes() == before.tobytes()  # the caller's image is only read
    assert np.ascontiguousarray(feats[..., :3]).tobytes() == mean.tobytes()
    assert np.ascontiguousarray(feats[..., 3:6]).tobytes() == std.tobytes()
    # a strided view of the same pixels gives the same bits
    view = np.repeat(img, 2, axis=1)[:, ::2]
    assert reference_features(view, patch).tobytes() == feats.tobytes()


def test_orientation_bins_fold_as_np_mod_does():
    # arctan2 gives pi at (+0, -x), -pi at (-0, -x) and +-0 at (+-0, +x) and
    # (+-0, +-0); a tiny negative angle rounds to pi once pi is added
    tiny = -np.nextafter(0.0, 1.0)
    gy = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, tiny, -1e-17, -1e-300, 1e-17, -1.0, 1.0])
    gx = np.array([-1.0, -1.0, 1.0, 1.0, 0.0, 0.0, -0.0, -0.0, 1.0, 1.0, 1.0, -1.0, -1e-17, 1e-17])
    rng = np.random.default_rng(3)
    gy = np.concatenate([gy, rng.normal(size=500), rng.integers(-1, 2, 200) * 0.5])
    gx = np.concatenate([gx, rng.normal(size=500), rng.integers(-1, 2, 200) * 0.5])
    theta = np.arctan2(gy, gx)
    assert np.pi in theta and -np.pi in theta and (theta[:8] == 0).sum() == 4
    assert ((theta < 0) & (theta + np.pi == np.pi)).sum() >= 2
    want = np.minimum((np.mod(theta, np.pi) / (np.pi / 6.0)).astype(np.intp), 5)
    bins = reward._orientation_bins(gy, gx)
    assert bins.tolist() == want.tolist()
    assert bins[:8].tolist() == [0] * 8 and bins[8:11].tolist() == [5] * 3


def test_features_reject_oversized_patch():
    with pytest.raises(ConfigError):
        reference_features(np.ones((16, 16, 3)), 17)


# ---------------------------------------------------------------------------
# score_pair on rendered scenes

def test_clean_scene_scores_zero(translating_scene, score_rendered):
    score = score_rendered(render_pair(translating_scene, 0))
    assert abs(score.r_geo) < 1e-9
    assert abs(score.r_dino) < 1e-9
    assert abs(score.r_pair) < 1e-9
    assert 0.9 < score.valid_fraction <= 1.0


def test_blend_is_affine_in_lambda(translating_scene, score_rendered):
    pair = render_pair(translating_scene, 0)
    scores = [score_rendered(pair, RewardConfig(lam=l)) for l in (0.0, 0.5, 1.0)]
    for s, l in zip(scores, (0.0, 0.5, 1.0)):
        assert s.r_pair == pytest.approx(l * s.r_geo + (1 - l) * s.r_dino, abs=1e-15)
    mid = 0.5 * (scores[0].r_pair + scores[2].r_pair)
    assert scores[1].r_pair == pytest.approx(mid, abs=1e-12)


def test_score_bounds_on_noisy_input(translating_scene, score_rendered):
    rng = np.random.default_rng(13)
    pair = render_pair(translating_scene, 0)
    noisy = pair.flow_fwd + rng.standard_normal(pair.flow_fwd.shape)
    s = score_pair(dataclasses.replace(pair, flow_fwd=noisy), RewardConfig())
    assert -1.0 <= s.r_geo <= 0.0
    assert -2.0 <= s.r_dino <= 0.0
    q = s.maps["q_geo"]
    assert q.min() >= 0.0 and q.max() <= 1.0


def test_maps_reproduce_the_scalar(translating_scene, score_rendered):
    s = score_rendered(render_pair(translating_scene, 0))
    # confidence is 1 everywhere, so the soft weighting reduces to a mean
    q, omega = s.maps["q_geo"], s.maps["omega"]
    assert s.r_geo == pytest.approx(float(q[omega].mean()) - 1.0, abs=1e-12)


def test_hard_gating_equals_manual_mask_reduction(translating_scene):
    pair = render_pair(translating_scene, 0)
    rng = np.random.default_rng(14)
    conf = rng.uniform(size=pair.depth_a.shape)
    hard = score_pair(dataclasses.replace(pair, confidence_a=conf, confidence_b=conf),
                      RewardConfig(gating="hard", conf_threshold=0.5))
    plain = score_pair(pair, RewardConfig(gating="off"))
    q, omega = plain.maps["q_geo"], plain.maps["omega"]
    want = float(q[omega & (conf >= 0.5)].mean()) - 1.0
    assert hard.r_geo == pytest.approx(want, abs=1e-15)
    np.testing.assert_array_equal(hard.maps["omega"], omega & (conf >= 0.5))


def test_soft_gating_weights_the_quality_mean(translating_scene):
    pair = render_pair(translating_scene, 0)
    rng = np.random.default_rng(15)
    conf = rng.uniform(0.2, 1.0, size=pair.depth_a.shape)
    soft = score_pair(dataclasses.replace(pair, confidence_a=conf, confidence_b=conf),
                      RewardConfig(gating="soft"))
    plain = score_pair(pair, RewardConfig(gating="off"))
    q, omega = plain.maps["q_geo"], plain.maps["omega"]
    want = float((q[omega] * conf[omega]).sum() / conf[omega].sum()) - 1.0
    assert soft.r_geo == pytest.approx(want, abs=1e-12)


def test_two_sided_confidence_is_elementwise_min(translating_scene):
    pair = render_pair(translating_scene, 0)
    rng = np.random.default_rng(16)
    ca = rng.uniform(size=pair.depth_a.shape)
    cb = rng.uniform(size=pair.depth_a.shape)
    both = score_pair(dataclasses.replace(pair, confidence_a=ca, confidence_b=cb),
                      RewardConfig(gating="hard"))
    merged = score_pair(dataclasses.replace(pair, confidence_a=np.minimum(ca, cb)),
                        RewardConfig(gating="hard"))
    assert both.r_geo == merged.r_geo
    assert both.r_dino == merged.r_dino


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("bad", [-1e-9, 1.5, float("nan")])
def test_confidence_outside_the_unit_range_is_rejected(translating_scene, side, bad):
    pair = render_pair(translating_scene, 0)
    conf = np.ones(pair.depth_a.shape)
    conf[3, 4] = bad
    # the range is checked whatever the gating mode
    for gating in ("off", "soft", "hard"):
        with pytest.raises(InputError, match=f"confidence_{side} must lie in \\[0, 1\\]"):
            score_pair(dataclasses.replace(pair, **{f"confidence_{side}": conf}), RewardConfig(gating=gating))
    conf[3, 4] = 0.0
    assert np.isfinite(score_pair(dataclasses.replace(pair, **{f"confidence_{side}": conf})).r_pair)


def test_external_features_need_both_sides(translating_scene):
    pair = render_pair(translating_scene, 0)
    feats = reference_features(pair.image_a, 8)
    with pytest.raises(InputError):
        score_pair(dataclasses.replace(pair, features_a=feats), RewardConfig())


def test_external_features_on_clean_scene(static_scene):
    pair = render_pair(static_scene, 0)
    feats = reference_features(pair.image_a, 8)
    s = score_pair(dataclasses.replace(pair, features_a=feats, features_b=feats), RewardConfig())
    assert abs(s.r_dino) < 1e-9


@pytest.mark.parametrize("grid", [(6, 8), (6, 4), (12, 4), (3, 8)])
def test_external_feature_cells_are_sized_per_axis(translating_scene, grid):
    # features linear in the cell-center pixel position, frame b's shifted by
    # the true backward flow (-5 px in x): the warped grid matches exactly
    # only when the flow is sampled and scaled with each axis's cell size
    pair = render_pair(translating_scene, 0)
    h, w = pair.depth_a.shape
    fh, fw = grid
    ys, xs = np.mgrid[0:fh, 0:fw].astype(np.float64)
    px = xs * (w / fw) + (w / fw - 1.0) / 2.0
    py = ys * (h / fh) + (h / fh - 1.0) / 2.0
    feats_a = np.stack([px, py, np.ones_like(px)], axis=-1)
    feats_b = np.stack([px - 5.0, py, np.ones_like(px)], axis=-1)
    s = score_pair(dataclasses.replace(pair, features_a=feats_a, features_b=feats_b), RewardConfig())
    assert abs(s.r_dino) < 1e-12


def test_nonpositive_target_depth_empties_the_mask(translating_scene):
    pair = render_pair(translating_scene, 0)
    with pytest.raises(EmptyMaskError):
        score_pair(dataclasses.replace(pair, depth_b=-pair.depth_b), RewardConfig())


def test_non_finite_flow_names_the_stage(translating_scene, monkeypatch):
    pair = render_pair(translating_scene, 0)
    bad = pair.flow_fwd.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="EPE"):
        score_pair(dataclasses.replace(pair, flow_fwd=bad), RewardConfig())
    # In 16-row bands, a later stage's NaN in the first band and an earlier
    # stage's NaN in the last one: the earlier stage is named, as a
    # whole-frame pass names it.
    h = pair.depth_a.shape[0]
    monkeypatch.setattr(grid, "_BAND_PIXELS", 16 * pair.depth_a.shape[1])
    rigid = reward.rigid_flow

    def nan_in_the_last_row(depth, *args, **kwargs):
        out = rigid(depth, *args, **kwargs)
        if len(depth) + kwargs.get("row0", 0) == h:
            out[0][-1, -1, 0] = np.nan
        return out

    with monkeypatch.context() as m:
        m.setattr(reward, "rigid_flow", nan_in_the_last_row)
        with pytest.raises(NumericError, match="rigid flow"):
            score_pair(dataclasses.replace(pair, flow_fwd=bad), RewardConfig())
    image_a, image_b = pair.image_a.copy(), pair.image_b.copy()
    image_a[-1] = np.nan
    image_b[0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="backward warp"):
        score_pair(dataclasses.replace(pair, image_a=image_a, image_b=image_b), RewardConfig())


def test_non_finite_target_frame_names_the_stage(translating_scene):
    pair = render_pair(translating_scene, 0)
    with pytest.raises(NumericError, match="reference features"):
        score_pair(dataclasses.replace(pair, image_b=np.full_like(pair.image_b, np.nan)), RewardConfig())
    img = np.random.default_rng(3).uniform(size=(16, 24, 3))
    for bad in (np.nan, np.inf):
        img[5, 7, 1] = bad
        with pytest.raises(NumericError, match="reference features"):
            reference_features(img, 8)


def _quad_pair(resolution, intrinsics):
    """Frames 0 and 1 of a moving quad over a depth step, with every
    corruption and confidences."""
    spec = SceneSpec(
        geometry="two_plane",
        resolution=resolution,
        intrinsics=intrinsics,
        camera_path=(PoseSE3.identity(), PoseSE3(np.eye(3), np.array([0.03, 0.01, 0.02]))),
        moving_object=ObjectSpec(center=(0.1, 0.0, 1.5), size=0.4, velocity=(-0.02, 0.01, 0.0)),
    )
    perturb = PerturbationSpec(wobble_px=1.0, texture_drift_px=0.5, object_morph=1.1, depth_noise_rel=0.05)
    pair = render_video(spec, perturb, seed=3).pair(0)
    return dataclasses.replace(pair, **{f.name: np.asarray(getattr(pair, f.name)) for f in dataclasses.fields(pair)
                                        if isinstance(getattr(pair, f.name), np.ndarray)})


@pytest.mark.parametrize("gating", ["soft", "hard", "off"])
@pytest.mark.parametrize("frames", ["f64", "u8"])
def test_row_bands_leave_every_bit_of_the_score(gating, frames, monkeypatch):
    # 44 rows crop to 40 for 8-px patches; bands of 7 rows of 64 px, which
    # the feature pass rounds up to 8
    pair = _quad_pair((44, 64), Intrinsics(100.0, 100.0, 31.5, 21.5))
    if frames == "u8":
        pair = dataclasses.replace(pair, image_a=(pair.image_a * 255).astype(np.uint8),
                                   image_b=(pair.image_b * 255).astype(np.uint8))
    cfg = RewardConfig(gating=gating)
    whole = score_pair(pair, cfg)
    monkeypatch.setattr(grid, "_BAND_PIXELS", 7 * 64)
    rows = {"rigid_flow": [], "reference_features": []}
    for name, seen in rows.items():
        def recording(image, *args, _fn=getattr(reward, name), _seen=seen, **kwargs):
            _seen.append(len(image))
            return _fn(image, *args, **kwargs)

        monkeypatch.setattr(reward, name, recording)
    banded = score_pair(pair, cfg)
    # the warped and the target band of each feature band, with a halo row
    # on each side but at the crop's edges
    assert rows == {"rigid_flow": [7] * 6 + [2], "reference_features": [9, 9] + [10, 10] * 3 + [9, 9]}
    assert banded.summary() == whole.summary()
    assert set(banded.maps) == set(whole.maps)
    for name, m in whole.maps.items():
        got = banded.maps[name]
        assert (got.dtype, got.shape, got.tobytes()) == (m.dtype, m.shape, m.tobytes()), name


def test_a_banded_pair_task_stays_small(pooled_fields, monkeypatch):
    # 96x128 in bands of 4096 px: three bands, as a 256x320 pair has at the
    # default budget
    pair = _quad_pair(pooled_fields["resolution"], pooled_fields["intrinsics"])
    h, w = pair.depth_a.shape
    frame_bytes = h * w * (3 * 8 + 8 + 1)  # f64 image, f64 depth, bool mask
    monkeypatch.setattr(grid, "_BAND_PIXELS", 4096)
    score_pair(pair)  # first calls cache what they cache outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        score_pair(pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 6.4 frames in whole-frame passes, 3.0 in bands; the kept maps are 0.76
    assert peak <= 3.5 * frame_bytes


# ---------------------------------------------------------------------------
# score_video

def _walking_scene(step, frames):
    path = tuple(
        PoseSE3(np.eye(3), np.array([step * i, 0.0, 0.0])) for i in range(frames)
    )
    return SceneSpec(camera_path=path)


def test_video_mean_of_pair_scores():
    video = render_video(_walking_scene(0.1, 3))
    vs = score_video(video, RewardConfig())
    assert len(vs.pair_scores) == 2
    rs = [p.r_pair for p in vs.pair_scores]
    assert vs.r_video == pytest.approx(float(np.mean(rs)), abs=1e-15)


def test_video_report_shape():
    video = render_video(_walking_scene(0.0, 3))
    cfg = RewardConfig()
    report = score_video(video, cfg).report(cfg)
    assert set(report) == {"pairs", "r_video", "config"}
    assert [p["tau"] for p in report["pairs"]] == [0, 1]
    assert abs(report["r_video"]) < 1e-9
    assert report["config"]["lam"] == 0.5


def test_video_stride_pairs_against_direct_pair_score(score_rendered):
    spec = _walking_scene(0.05, 3)
    video = render_video(spec, stride=2)
    vs = score_video(video)
    direct = score_rendered(render_pair(spec, 0, stride=2))
    assert len(vs.pair_scores) == 1
    assert vs.pair_scores[0].r_pair == direct.r_pair


def test_video_keeps_maps_only_on_request():
    video = render_video(_walking_scene(0.05, 3))
    lean, full = score_video(video), score_video(video, keep_maps=True)
    assert [p.summary() for p in lean.pair_scores] == [p.summary() for p in full.pair_scores]
    for tau, (p, q) in enumerate(zip(lean.pair_scores, full.pair_scores)):
        assert p.maps == {}
        direct = score_pair(video.pair(tau)).maps
        assert set(q.maps) == set(direct) == {"epe", "depth_err", "q_geo", "omega"}
        for name, m in direct.items():
            np.testing.assert_array_equal(q.maps[name], m)


def test_video_memory_is_flat_in_clip_length(tmp_path, monkeypatch):
    # a bundle from read_bundle loads each pair inside the task that scores
    # it and keeps no map, so scoring 12 frames peaks where 3 do
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    peaks = []
    for frames in (3, 12):
        dump = tmp_path / str(frames)
        write_bundle(dump, render_video(_walking_scene(0.02, frames)))
        tracemalloc.start()
        try:
            score_video(read_bundle(dump))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.15 * min(peaks), peaks


# A mis-sized bundle fails where it is built, so score_video never sees one.

def test_video_flow_count_mismatch():
    video = render_video(_walking_scene(0.0, 3))
    for name in ("flows_fwd", "flows_bwd"):
        with pytest.raises(InputError, match=rf"len\({name}\) is 1; 3 frames at flow_stride 1 need 2"):
            dataclasses.replace(video, **{name: getattr(video, name)[:1]})


def test_video_pose_count_mismatch():
    video = render_video(_walking_scene(0.0, 3))
    for name in ("depths", "intrinsics", "poses"):
        with pytest.raises(InputError, match=rf"len\({name}\) is 2; 3 frames at flow_stride 1 need 3"):
            dataclasses.replace(video, **{name: getattr(video, name)[:-1]})


def test_video_rejects_zero_flow_stride():
    video = render_video(_walking_scene(0.0, 3))
    for stride in (0, -1, 3, True, 1.0):
        with pytest.raises(InputError, match=rf"1 <= flow_stride < len\(images\) = 3, got {stride}"):
            dataclasses.replace(video, flow_stride=stride)


def test_video_too_few_frames(static_scene):
    video = render_video(static_scene)
    short = {key: getattr(video, key)[:1]
             for key in ("images", "depths", "confidences", "dynamic_masks", "poses", "intrinsics")}
    with pytest.raises(InputError, match=r"1 <= flow_stride < len\(images\) = 1, got 1"):
        dataclasses.replace(video, flows_fwd=[], flows_bwd=[], **short)
