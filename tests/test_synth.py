"""Ray-traced scenes, ground-truth flow, perturbations, latent decoding."""

import dataclasses

import numpy as np
import pytest

from georeward import (
    PerturbationSpec,
    PoseSE3,
    SceneSpec,
    decode_latent,
    inject_perturbation,
    latent_reward,
    relative_depth_error,
    render_frame,
    render_pair,
    render_video,
    toy_scene,
)
from georeward import synth
from georeward.camera import relative_transform, rigid_flow
from georeward.errors import ConfigError, ShapeError
from georeward.grid import bilinear_sample
from georeward.synth import ObjectSpec, perturbation_from_dict, scene_from_dict, wobble_field


# ---------------------------------------------------------------------------
# texture: the channel-batched hash against the per-channel reference

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix_ref(z):
    z = (z + synth._GAMMA) & _M64
    z = (z ^ (z >> np.uint64(30))) * synth._M1
    z = (z ^ (z >> np.uint64(27))) * synth._M2
    return z ^ (z >> np.uint64(31))


def _value_noise_ref(u, v, key):
    def hash01(ix, iy):
        hx = _mix_ref(ix.astype(np.int64).view(np.uint64) ^ key)
        h = _mix_ref(iy.astype(np.int64).view(np.uint64) ^ hx)
        return (h >> np.uint64(11)).astype(np.float64) * (1.0 / 2**53)

    iu, iv = np.floor(u), np.floor(v)
    fu, fv = u - iu, v - iv
    su = fu * fu * (3.0 - 2.0 * fu)
    sv = fv * fv * (3.0 - 2.0 * fv)
    c00, c10 = hash01(iu, iv), hash01(iu + 1, iv)
    c01, c11 = hash01(iu, iv + 1), hash01(iu + 1, iv + 1)
    top = c00 + (c10 - c00) * su
    bot = c01 + (c11 - c01) * su
    return top + (bot - top) * sv


def _texture_ref(u, v, freq, seed, salt):
    """One value-noise pass per channel and octave, summed channel by channel."""
    out = np.zeros(u.shape + (3,))
    with np.errstate(over="ignore"):
        for ch in range(3):
            acc = np.zeros_like(u)
            amp, f = 1.0, freq
            for octave in range(3):
                acc += amp * _value_noise_ref(u * f, v * f, synth._key(seed, salt, octave, ch))
                amp *= 0.5
                f *= 2.0
            out[..., ch] = acc / 1.75
    return out


@pytest.mark.parametrize("shape", [(301,), (17, 23)])
def test_texture_matches_the_per_channel_reference(shape):
    rng = np.random.default_rng(shape)
    u = rng.uniform(-3e3, 3e3, shape)  # large and negative lattice indices
    v = rng.uniform(-2.0, 2.0, shape)
    for freq, seed, salt in ((4.0, 0, 0), (16.0, 5, 107), (0.37, -3, 2)):
        got = synth._texture(u, v, freq, seed, salt)
        assert got.shape == shape + (3,)
        assert got.tobytes() == _texture_ref(u, v, freq, seed, salt).tobytes()
    # the hash never writes to its input
    key = u.astype(np.int64).view(np.uint64)
    before = key.copy()
    synth._mix(key)
    np.testing.assert_array_equal(key, before)


# ---------------------------------------------------------------------------
# rendering

def test_render_is_deterministic(translating_scene):
    a = render_pair(translating_scene, 0)
    b = render_pair(translating_scene, 0)
    for field in ("image_a", "image_b", "depth_a", "flow_fwd", "confidence"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_texture_seed_changes_the_image(translating_scene):
    a = render_pair(translating_scene, 0)
    other = dataclasses.replace(translating_scene, texture_seed=1)
    b = render_pair(other, 0)
    assert not np.array_equal(a.image_a, b.image_a)


def test_static_scene_has_identical_frames_and_zero_flow(static_scene):
    pair = render_pair(static_scene, 0)
    np.testing.assert_array_equal(pair.image_a, pair.image_b)
    # flow goes through an unproject/project round trip, so identity motion
    # still leaves a few ulp of rounding behind
    np.testing.assert_allclose(pair.flow_fwd, 0.0, atol=1e-12)
    np.testing.assert_allclose(pair.flow_bwd, 0.0, atol=1e-12)


def test_background_flow_of_translating_camera(translating_scene):
    pair = render_pair(translating_scene, 0)
    np.testing.assert_allclose(pair.flow_fwd[..., 0], 5.0, atol=1e-6)
    np.testing.assert_allclose(pair.flow_fwd[..., 1], 0.0, atol=1e-6)


def test_depth_of_fronto_plane(translating_scene):
    pair = render_pair(translating_scene, 0)
    np.testing.assert_allclose(pair.depth_a, 2.0, atol=1e-12)
    np.testing.assert_allclose(pair.depth_b, 2.0, atol=1e-12)


def test_moving_object_flow():
    # object at z = 1.5 moving 0.03 m/frame: fx dx / z = 100 * 0.03 / 1.5 = 2 px
    spec = SceneSpec(
        camera_path=(PoseSE3.identity(), PoseSE3.identity()),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5,
                                 velocity=(0.03, 0.0, 0.0)),
    )
    pair = render_pair(spec, 0)
    assert pair.object_mask_a.any()
    # interior of the mask in both frames; edge pixels change occlusion
    inside = pair.object_mask_a & pair.object_mask_b
    np.testing.assert_allclose(pair.flow_fwd[inside][:, 0], 2.0, atol=1e-6)
    outside = ~(pair.object_mask_a | pair.object_mask_b)
    np.testing.assert_allclose(pair.flow_fwd[outside], 0.0, atol=1e-12)


def test_flow_matches_rigid_oracle(inclined_scene):
    pair = render_pair(inclined_scene, 0)
    rig, valid = rigid_flow(
        pair.depth_a, pair.intrinsics, pair.intrinsics,
        relative_transform(pair.pose_a, pair.pose_b),
    )
    sel = valid
    assert sel.all()
    np.testing.assert_allclose(pair.flow_fwd[sel], rig[sel], atol=1e-6)


@pytest.mark.parametrize("scene_name", ["plane", "inclined"])
def test_forward_backward_flow_consistency(scene_name, translating_scene, inclined_scene):
    pair = render_pair(
        {"plane": translating_scene, "inclined": inclined_scene}[scene_name], 0
    )
    h, w = pair.depth_a.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    uv = np.stack([xs, ys], axis=-1).reshape(-1, 2)
    back, ok = bilinear_sample(pair.flow_bwd, uv + pair.flow_fwd.reshape(-1, 2))
    sel = ok
    resid = np.linalg.norm(back[sel] + pair.flow_fwd.reshape(-1, 2)[sel], axis=-1)
    assert resid.max() < 1e-4


def test_resolution_floor():
    with pytest.raises(ConfigError):
        SceneSpec(resolution=(16, 64))


def test_camera_path_must_cover_the_pair(translating_scene):
    with pytest.raises(ConfigError):
        render_pair(translating_scene, 1)


# ---------------------------------------------------------------------------
# perturbations

def test_noop_perturbation_is_identity(translating_scene):
    pair = render_pair(translating_scene, 0)
    same = inject_perturbation(pair, PerturbationSpec(), 0)
    np.testing.assert_array_equal(same.image_b, pair.image_b)
    np.testing.assert_array_equal(same.flow_fwd, pair.flow_fwd)


def test_wobble_lowers_the_score(translating_scene, score_rendered):
    pair = render_pair(translating_scene, 0)
    clean = score_rendered(pair).r_pair
    shaken = inject_perturbation(pair, PerturbationSpec(wobble_px=0.5), 0)
    assert score_rendered(shaken).r_pair < clean


def test_corrupt_flow_moves_the_flow_not_the_image(translating_scene):
    pair = render_pair(translating_scene, 0)
    p = PerturbationSpec(wobble_px=1.0, corrupt_flow=True)
    out = inject_perturbation(pair, p, 3)
    np.testing.assert_array_equal(out.image_b, pair.image_b)
    assert not np.array_equal(out.flow_fwd, pair.flow_fwd)
    delta = out.flow_fwd - pair.flow_fwd
    assert np.linalg.norm(delta, axis=-1).max() == pytest.approx(1.0, abs=1e-9)


def test_texture_drift_spares_the_object():
    spec = SceneSpec(
        camera_path=(PoseSE3.identity(), PoseSE3.identity()),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5),
    )
    pair = render_pair(spec, 0)
    out = inject_perturbation(pair, PerturbationSpec(texture_drift_px=1.5), 0)
    obj = pair.object_mask_b
    np.testing.assert_array_equal(out.image_b[obj], pair.image_b[obj])
    assert not np.array_equal(out.image_b[~obj], pair.image_b[~obj])


def test_morph_touches_only_the_object_region():
    spec = SceneSpec(
        camera_path=(PoseSE3.identity(), PoseSE3.identity()),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5),
    )
    pair = render_pair(spec, 0)
    out = inject_perturbation(pair, PerturbationSpec(object_morph=1.4), 0)
    assert not np.array_equal(out.image_b, pair.image_b)
    far = ~pair.object_mask_b
    # dilate by leaving a margin: morph magnifies radially around the object
    changed = np.any(out.image_b != pair.image_b, axis=-1)
    assert (changed & far).sum() < changed.sum()


def test_depth_noise_magnitude(translating_scene):
    pair = render_pair(translating_scene, 0)
    out = inject_perturbation(pair, PerturbationSpec(depth_noise_rel=0.1), 0)
    err = relative_depth_error(
        out.depth_b, pair.depth_b, 1e-9, np.ones(pair.depth_b.shape, dtype=bool)
    )
    assert 0.05 < err.mean() < 0.15


def test_wobble_field_properties():
    field = wobble_field((48, 64), 2.0, seed=0)
    mags = np.linalg.norm(field, axis=-1)
    assert mags.max() == pytest.approx(2.0, abs=1e-9)
    # curl construction: discrete divergence cancels exactly
    vx, vy = field[..., 0], field[..., 1]
    div = (vx[1:-1, 2:] - vx[1:-1, :-2]) / 2.0 + (vy[2:, 1:-1] - vy[:-2, 1:-1]) / 2.0
    assert np.abs(div).max() < 1e-12


def test_wobble_field_seed_and_salt():
    a = wobble_field((48, 64), 1.0, seed=0)
    b = wobble_field((48, 64), 1.0, seed=0)
    c = wobble_field((48, 64), 1.0, seed=1)
    d = wobble_field((48, 64), 1.0, seed=0, salt=12)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# whole clips

def test_video_frame_zero_is_clean(translating_scene):
    spec = dataclasses.replace(
        translating_scene,
        camera_path=(
            PoseSE3.identity(),
            PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0])),
            PoseSE3(np.eye(3), np.array([0.2, 0.0, 0.0])),
        ),
    )
    video = render_video(spec, PerturbationSpec(wobble_px=1.0), seed=0)
    clean_img, clean_depth, _ = render_frame(spec, 0)
    np.testing.assert_array_equal(video.images[0], clean_img)
    np.testing.assert_array_equal(video.depths[0], clean_depth)
    assert not np.array_equal(video.images[1], render_frame(spec, 1)[0])


def test_video_shapes_and_stride(static_scene):
    spec = dataclasses.replace(static_scene, camera_path=(PoseSE3.identity(),) * 4)
    video = render_video(spec, stride=2)
    assert len(video.images) == 4
    assert len(video.flows_fwd) == 2
    assert video.flow_stride == 2
    with pytest.raises(ConfigError):
        render_video(spec, stride=4)


def test_video_of_pairs_matches_render_pair(translating_scene):
    spec = dataclasses.replace(
        translating_scene,
        camera_path=(
            PoseSE3.identity(),
            PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0])),
        ),
    )
    video = render_video(spec)
    pair = render_pair(spec, 0)
    np.testing.assert_array_equal(video.images[0], pair.image_a)
    np.testing.assert_array_equal(video.images[1], pair.image_b)
    np.testing.assert_array_equal(video.flows_fwd[0], pair.flow_fwd)
    np.testing.assert_array_equal(video.flows_bwd[0], pair.flow_bwd)


# ---------------------------------------------------------------------------
# latent decoding

def test_decode_is_deterministic():
    z = np.array([0.3, -1.0, 0.5, 0.2])
    a = decode_latent(z, toy_scene())
    b = decode_latent(z, toy_scene())
    np.testing.assert_array_equal(a.image_b, b.image_b)
    np.testing.assert_array_equal(a.flow_fwd, b.flow_fwd)


def test_decode_reuses_a_given_first_frame():
    template = SceneSpec(
        geometry="two_plane",
        camera_path=(PoseSE3(np.eye(3), np.array([0.05, -0.02, 0.1])),),
        moving_object=ObjectSpec(center=(0.1, 0.0, 1.2), size=0.3, velocity=(0.02, 0.01, 0.0)),
    )
    z = np.array([0.5, -0.3, 0.8, 1.0])
    plain = decode_latent(z, template, seed=3)
    reused = decode_latent(z, template, seed=3, frame_a=render_frame(template, 0))
    assert plain.object_mask_a.any() and plain.object_mask_b.any()
    for f in dataclasses.fields(plain):
        a, b = getattr(plain, f.name), getattr(reused, f.name)
        if isinstance(a, PoseSE3):
            a, b = a.matrix34(), b.matrix34()
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_decode_rejects_wrong_dimension():
    with pytest.raises(ShapeError):
        decode_latent(np.zeros(3), toy_scene())


def test_decode_of_deep_negatives_is_nearly_clean():
    r = latent_reward(np.array([-30.0, -30.0, -30.0, 0.0]), toy_scene())
    assert r > -0.01


def test_reward_falls_with_the_wobble_coordinate():
    lo = latent_reward(np.array([-2.0, -4.0, -4.0, 0.0]), toy_scene())
    hi = latent_reward(np.array([2.0, -4.0, -4.0, 0.0]), toy_scene())
    assert hi < lo


@pytest.mark.parametrize("coord", [0, 1, 2])
def test_reward_monotone_in_each_corruption_coordinate(coord):
    vals = []
    for raw in np.linspace(-4.0, 4.0, 5):
        z = np.full(4, -4.0)
        z[3] = 0.0
        z[coord] = raw
        vals.append(latent_reward(z, toy_scene()))
    diffs = np.diff(vals)
    assert (diffs <= 1e-9).all()


def test_reward_grid_monotone_in_two_coordinates():
    grid = np.empty((5, 5))
    for i, a in enumerate(np.linspace(-4.0, 4.0, 5)):
        for j, b in enumerate(np.linspace(-4.0, 4.0, 5)):
            grid[i, j] = latent_reward(np.array([a, b, -4.0, 0.0]), toy_scene())
    assert (np.diff(grid, axis=0) <= 1e-9).all()
    assert (np.diff(grid, axis=1) <= 1e-9).all()


# ---------------------------------------------------------------------------
# dict round trips

def test_scene_from_dict_linear_path():
    spec = scene_from_dict(
        {
            "geometry": "plane",
            "depth": 2.0,
            "camera_path": {"kind": "linear", "frames": 3, "velocity": [0.1, 0.0, 0.0]},
        }
    )
    assert len(spec.camera_path) == 3
    np.testing.assert_allclose(spec.camera_path[2].t, [0.2, 0.0, 0.0], atol=1e-12)


def test_scene_from_dict_explicit_path():
    spec = scene_from_dict(
        {
            "camera_path": [
                {"r": np.eye(3).tolist(), "t": [0.0, 0.0, 0.0]},
                {"r": np.eye(3).tolist(), "t": [0.1, 0.0, 0.0]},
            ]
        }
    )
    assert len(spec.camera_path) == 2


def test_scene_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        scene_from_dict({"geometry": "plane", "wobble": 2.0})


def test_perturbation_from_dict():
    p = perturbation_from_dict({"wobble_px": 1.0, "corrupt_flow": True})
    assert p.wobble_px == 1.0 and p.corrupt_flow
    with pytest.raises(ConfigError):
        perturbation_from_dict({"wobble": 1.0})
