"""Ray-traced scenes, ground-truth flow, perturbations, latent decoding."""

import dataclasses
import importlib.util
import sys
import tracemalloc
from pathlib import Path

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
    write_bundle,
)
from georeward import grid, synth
from georeward.adapter import Lazy
from georeward.camera import Z_MIN, Intrinsics, relative_transform, rigid_flow
from georeward.errors import ConfigError, DomainError, ShapeError
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
        got = synth._texture(u, v, synth._octaves(freq, seed, salt, len(shape)))
        assert got.shape == shape + (3,)
        assert got.tobytes() == _texture_ref(u, v, freq, seed, salt).tobytes()
    # coordinates within a box known ahead, its corners included: every
    # octave reads a lattice table built for that box before the points
    for (u_lo, v_lo), (u_hi, v_hi), freq in (((-0.2, -0.2), (0.2, 0.2), 16.0), ((-1.3, 0.4), (0.9, 2.1), 3.0)):
        u = rng.uniform(u_lo, u_hi, shape)
        v = rng.uniform(v_lo, v_hi, shape)
        u.flat[:2] = u_lo, u_hi
        v.flat[:2] = v_hi, v_lo
        octaves = synth._octaves(freq, 5, 107, len(shape), box=((u_lo, v_lo), (u_hi, v_hi)), max_corners=10**4)
        for _, f, _, table in octaves:
            iu, iv = np.floor(u * f), np.floor(v * f)
            assert table.holds(iu.min(), iu.max(), iv.min(), iv.max())
        got = synth._texture(u, v, octaves)
        assert got.tobytes() == _texture_ref(u, v, freq, 5, 107).tobytes()
    # the hash never writes to its input
    key = u.astype(np.int64).view(np.uint64)
    before = key.copy()
    synth._mix(key)
    np.testing.assert_array_equal(key, before)


def _noise_cases():
    rng = np.random.default_rng(7)
    # dense: a few lattice cells under many points, so the corner table path runs
    for shape in ((400,), (24, 31)):
        for key in (synth._key(3, 1), synth._key(5, 2, 0, np.arange(3).reshape((3,) + (1,) * len(shape)))):
            yield rng.uniform(-4.5, 6.0, shape), rng.uniform(-1.0, 3.0, shape), key, True
    # every point on a lattice corner, negative rows included: the table path
    # with zero fractions and the +1 corners on the box edge
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(-2.0, 3.0))
    yield np.tile(xs.ravel(), 2), np.tile(ys.ravel(), 2), synth._key(9), True
    # wide range: the box holds far more corners than there are points, so the
    # per-point hash runs
    yield rng.uniform(-3e3, 3e3, (301,)), rng.uniform(-2.0, 2.0, (301,)), synth._key(4), False


@pytest.mark.parametrize("u, v, key, table", list(_noise_cases()))
def test_value_noise_matches_the_per_point_reference(u, v, key, table):
    with np.errstate(over="ignore"):
        assert (synth._table_corners(np.floor(u), np.floor(v), key) is not None) == table
        got = synth._lattice_noise(np.stack([u, v]), key)
        want = _value_noise_ref(u, v, key)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_value_noise_of_no_points():
    with np.errstate(over="ignore"):
        assert synth._lattice_noise(np.zeros((2, 0)), synth._key(1)).shape == (0,)
        assert synth._texture(np.zeros(0), np.zeros(0), synth._octaves(4.0, 0, 0)).shape == (0, 3)


# ---------------------------------------------------------------------------
# rendering

def test_render_is_deterministic(translating_scene):
    a = render_pair(translating_scene, 0)
    b = render_pair(translating_scene, 0)
    for field in ("image_a", "image_b", "depth_a", "flow_fwd", "flow_bwd", "dynamic_a"):
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
    assert pair.dynamic_a.any()
    # interior of the mask in both frames; edge pixels change occlusion
    inside = pair.dynamic_a & pair.dynamic_b
    np.testing.assert_allclose(pair.flow_fwd[inside][:, 0], 2.0, atol=1e-6)
    outside = ~(pair.dynamic_a | pair.dynamic_b)
    np.testing.assert_allclose(pair.flow_fwd[outside], 0.0, atol=1e-12)


def test_flow_matches_rigid_oracle(inclined_scene):
    pair = render_pair(inclined_scene, 0)
    rig, valid = rigid_flow(
        pair.depth_a, pair.intrinsics_a, pair.intrinsics_b,
        relative_transform(pair.pose_a, pair.pose_b),
    )[:2]
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


def _rotation(ax, ay, az):
    cx, sx, cy, sy, cz, sz = np.cos(ax), np.sin(ax), np.cos(ay), np.sin(ay), np.cos(az), np.sin(az)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def _flow_ref(spec, a, b):
    """The old tracer path: re-trace frame a's rays, move the quad's hit
    points, project them into frame b. Returns (flow, in front of camera b)."""
    depth, surf = synth._trace(spec, a)
    pose_a = spec.camera_path[a]
    points = synth._center(pose_a) + depth[..., None] * synth._pixel_rays(spec, pose_a)
    h, w = spec.resolution
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    moved = points.copy()
    obj = spec.moving_object
    if obj is not None:
        moved[surf == synth._OBJ_SURF] += (b - a) * np.asarray(obj.velocity, dtype=np.float64)
    pose_b = spec.camera_path[b]
    cam = moved @ pose_b.r.T + pose_b.t
    ok = cam[..., 2] > Z_MIN
    z = np.where(ok, cam[..., 2], 1.0)
    k = spec.intrinsics
    uv = np.stack([k.fx * cam[..., 0] / z + k.cx, k.fy * cam[..., 1] / z + k.cy], axis=-1)
    return np.where(ok[..., None], uv - np.stack([xs, ys], axis=-1), 0.0), ok


# a rotating, translating camera and a quad that moves toward it fast enough
# to pass behind it by frame 3
_ORACLE_PATH = tuple(
    PoseSE3(_rotation(0.02 * i, -0.03 * i, 0.01 * i), np.array([0.04 * i, -0.01 * i, 0.03 * i]))
    for i in range(5)
)
_ORACLE_QUAD = ObjectSpec(center=(0.1, 0.05, 1.3), size=0.35, velocity=(0.03, -0.02, -0.6))
_ORACLE_SCENES = {
    "plane": SceneSpec(camera_path=_ORACLE_PATH, moving_object=_ORACLE_QUAD),
    "inclined": SceneSpec(geometry="inclined", normal=(0.2, -0.1, 1.0), camera_path=_ORACLE_PATH,
                          moving_object=_ORACLE_QUAD),
    "two_plane": SceneSpec(geometry="two_plane", camera_path=_ORACLE_PATH, moving_object=_ORACLE_QUAD),
}


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("scene_name", sorted(_ORACLE_SCENES))
def test_flow_matches_the_retracing_reference(scene_name, stride):
    spec = _ORACLE_SCENES[scene_name]
    video = render_video(spec, PerturbationSpec(wobble_px=0.5, depth_noise_rel=0.1), seed=1, stride=stride)
    behind = 0
    for a in range(len(_ORACLE_PATH) - stride):
        b = a + stride
        fwd, ok = _flow_ref(spec, a, b)
        bwd, _ = _flow_ref(spec, b, a)
        behind += int((~ok).sum())
        pair = render_pair(spec, a, stride)
        assert pair.flow_fwd.tobytes() == fwd.tobytes()
        assert pair.flow_bwd.tobytes() == bwd.tobytes()
        assert video.flows_fwd[a].tobytes() == fwd.tobytes()
        assert video.flows_bwd[a].tobytes() == bwd.tobytes()
    # the pair (1, 3) sends the quad behind the camera
    assert (behind > 0) == (stride == 2)


def test_each_frame_is_traced_once(pooled_fields, monkeypatch):
    spec = _ORACLE_SCENES["two_plane"]
    trace = synth._trace
    calls = []

    def counting_trace(spec, frame, *rays):
        calls.append(frame)
        return trace(spec, frame, *rays)

    monkeypatch.setattr(synth, "_trace", counting_trace)
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    render_video(spec, PerturbationSpec(depth_noise_rel=0.1))
    assert calls == [0, 1, 2, 3, 4]
    calls.clear()
    # on the pool, frames start in any order
    monkeypatch.setenv("GEOFLOW_THREADS", "4")
    render_video(dataclasses.replace(spec, **pooled_fields), PerturbationSpec(depth_noise_rel=0.1))
    assert sorted(calls) == [0, 1, 2, 3, 4]
    calls.clear()
    render_pair(spec, 1, 2)
    assert calls == [1, 3]
    template = dataclasses.replace(spec, camera_path=_ORACLE_PATH[2:3])
    calls.clear()
    state = synth.DecodeState(template)
    assert calls == [0]
    calls.clear()
    decode_latent(np.array([0.5, -0.3, 0.8, 1.0]), template, state=state)
    assert calls == [1]


_VIDEO_FIELDS = ("images", "depths", "flows_fwd", "flows_bwd", "dynamic_masks", "confidences")


@pytest.mark.parametrize("stride", [1, 2, 4])  # 4: one flow pair, which runs serially
@pytest.mark.parametrize(
    "perturb",
    [
        PerturbationSpec(wobble_px=1.0, texture_drift_px=0.5, object_morph=1.1, depth_noise_rel=0.05),
        PerturbationSpec(wobble_px=1.0, corrupt_flow=True),
    ],
    ids=["frames", "corrupt_flow"],
)
def test_render_video_is_thread_count_invariant(perturb, stride, pooled_fields, watch_threads, monkeypatch,
                                                 tmp_path):
    spec = dataclasses.replace(_ORACLE_SCENES["two_plane"], **pooled_fields)
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    serial = render_video(spec, perturb, seed=3, stride=stride)
    write_bundle(tmp_path / "serial", serial)
    # more workers than cores, switching often, so the tasks interleave
    monkeypatch.setenv("GEOFLOW_THREADS", "4")
    watch, off_main = watch_threads
    watch(synth, "render_frame")
    watch(synth, "_flow")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = render_video(spec, perturb, seed=3, stride=stride)
        # the frames are shaded and the flows computed when the bundle is read
        assert "render_frame" not in off_main and "_flow" not in off_main
        fields = {name: list(getattr(pooled, name)) for name in _VIDEO_FIELDS}
        # iterating a derived field stays on this thread
        assert off_main.pop("render_frame") == [False] * 5
        assert set(off_main.pop("_flow")) == {False}
        # writing the bundle computes each derived entry in a pool task
        write_bundle(tmp_path / "pooled", pooled)
    finally:
        sys.setswitchinterval(interval)
    assert off_main["render_frame"] == [True] * 5
    assert set(off_main["_flow"]) == {stride < 4}
    for name in _VIDEO_FIELDS:
        arrays = list(getattr(serial, name)), fields[name]
        assert len(arrays[0]) == len(arrays[1]) > 0
        for a, b in zip(*arrays):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
    written = [{f.relative_to(root): f.read_bytes() for f in root.rglob("*") if f.is_file()}
               for root in (tmp_path / "serial", tmp_path / "pooled")]
    assert written[0] == written[1]


# every corruption at once, so every banded kernel runs
_ALL_CORRUPTIONS = PerturbationSpec(wobble_px=1.0, texture_drift_px=0.5, object_morph=1.1, depth_noise_rel=0.05)


def _bytes(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _banded_outputs(spec, state_template):
    """The bytes of every band-built output: render_video under each
    corruption routing and stride, render_pair, inject_perturbation and a
    decode through a DecodeState."""
    out = []
    for corrupt_flow in (False, True):
        perturb = dataclasses.replace(_ALL_CORRUPTIONS, corrupt_flow=corrupt_flow)
        for stride in (1, 2):
            video = render_video(spec, perturb, seed=3, stride=stride)
            out += [_bytes(getattr(video, name)) for name in _VIDEO_FIELDS]
        pair = inject_perturbation(render_pair(spec, 1, 2), perturb, seed=3)
        out += [_bytes([getattr(pair, f.name)]) for f in dataclasses.fields(pair)
                if isinstance(getattr(pair, f.name), np.ndarray)]
    state = synth.DecodeState(state_template, seed=3)
    pair = decode_latent(np.array([0.5, -0.3, 0.8, 1.0]), state_template, seed=3, state=state)
    out += [_bytes([getattr(pair, f.name)]) for f in dataclasses.fields(pair)
            if isinstance(getattr(pair, f.name), np.ndarray)]
    return out


@pytest.mark.parametrize("scene_name", ["two_plane", "inclined"])
def test_band_budget_leaves_every_byte(scene_name, monkeypatch):
    # 7 rows of a 48x64 frame per band: six bands of 7 rows and one of 6,
    # and surface blocks that end mid-row
    spec = _ORACLE_SCENES[scene_name]
    template = dataclasses.replace(spec, camera_path=spec.camera_path[:1])
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    whole = _banded_outputs(spec, template)
    monkeypatch.setattr(grid, "_BAND_PIXELS", 7 * 64)
    assert _banded_outputs(spec, template) == whole


def _clip_trace(video, monkeypatch):
    """The state through which video's image entries shade their frames."""
    render, states = synth.render_frame, []

    def capturing(spec, frame, *, state):
        states.append(state)
        return render(spec, frame, state=state)

    with monkeypatch.context() as m:
        m.setattr(synth, "render_frame", capturing)
        video.images[0]
    return states[0]


def test_render_video_retains_its_traces_and_a_frame_task_stays_small(pooled_fields, monkeypatch):
    # 96x128: a frame of 4096-px bands splits in three, as a 256x320 frame
    # does at the default budget
    spec = dataclasses.replace(_ORACLE_SCENES["two_plane"], **pooled_fields)
    h, w = spec.resolution
    frame_bytes = h * w * (3 * 8 + 8 + 1)  # f64 image, f64 depth, bool mask
    trace_bytes = h * w * (8 + 1 + 1)  # f64 depth, int8 surface ids, bool mask
    monkeypatch.setattr(grid, "_BAND_PIXELS", 4096)
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    render_video(spec, _ALL_CORRUPTIONS, seed=3).images[2]  # first calls cache what they cache outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        video = render_video(spec, _ALL_CORRUPTIONS, seed=3)
        kept = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        video.images[2]  # write_bundle's frame task, before the save
        task_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the images, flows, noisy depths and confidences are computed when read;
    # the image entries share the clip's lattice tables
    tables = [t for _, octaves in _clip_trace(video, monkeypatch).textures.values() for *_, t in octaves]
    assert kept <= len(video) * trace_bytes + sum(t.values.nbytes for t in tables if t is not None) + 64 * 1024
    # about 7.8 frames before the bands, 4.9 with them, 4.7 shading a stored trace
    assert task_peak <= 5.5 * frame_bytes


def test_render_video_traces_each_frame_once_and_shades_each_read(monkeypatch):
    spec = _ORACLE_SCENES["two_plane"]
    calls = {"_trace": [], "_shade": []}
    for name, frames in calls.items():
        def counting(spec, frame, *args, _fn=getattr(synth, name), _frames=frames):
            _frames.append(frame)
            return _fn(spec, frame, *args)

        monkeypatch.setattr(synth, name, counting)
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    video = render_video(spec, _ALL_CORRUPTIONS, seed=3)
    assert calls == {"_trace": [0, 1, 2, 3, 4], "_shade": []}
    calls["_trace"].clear()
    for i in (3, 0, 3):
        video.images[i]
    assert calls == {"_trace": [], "_shade": [3, 0, 3]}


@pytest.mark.parametrize("scene_name", sorted(_ORACLE_SCENES))
def test_pose_boxes_hold_every_traced_texture_coordinate(scene_name):
    # rotated cameras and a quad: a frame's four corner rays bound the
    # texture coordinates of all its pixels, and two poses that share a
    # rotation bound those of every camera on the segment between them
    base = _ORACLE_SCENES[scene_name]
    bases = synth._surface_bases(base)
    planes = {sid for sid, basis in bases.items() if basis is not None}
    rng = np.random.default_rng(36)
    for _ in range(12):
        r = _rotation(*rng.uniform(-0.3, 0.3, 3))
        t0, t1 = rng.uniform(-0.2, 0.2, (2, 3))
        ends = PoseSE3(r, t0), PoseSE3(r, t1)
        spec = dataclasses.replace(base, camera_path=(*ends, PoseSE3(r, t0 + rng.uniform() * (t1 - t0))))
        boxes = synth._pose_boxes(spec, ends)
        assert set(boxes) == planes
        for frame in range(3):
            depth, surf = synth._trace(spec, frame)
            for sid, (_, u, v) in synth._texture_coords(spec, frame, depth, surf, bases).items():
                if sid not in planes:
                    continue
                lo, hi = boxes[sid]
                tol = 1e-12 * max(1.0, np.abs(boxes[sid]).max())
                assert lo[0] - tol <= u.min() and u.max() <= hi[0] + tol
                assert lo[1] - tol <= v.min() and v.max() <= hi[1] + tol
                # every octave's table holds the traced cells
                octaves = synth._octaves(spec.texture_freq, spec.texture_seed, sid, box=boxes[sid],
                                         max_corners=10**6)
                for _, f, _, table in octaves:
                    iu, iv = np.floor(u * f), np.floor(v * f)
                    assert table.holds(iu.min(), iu.max(), iv.min(), iv.max())


def test_a_plane_some_corner_ray_misses_gets_no_box():
    # tilted 1.45 rad about x, one edge's corner rays run away from the backdrop
    spec = SceneSpec(camera_path=(PoseSE3(_rotation(1.45, 0.0, 0.0), np.zeros(3)),))
    assert synth._pose_boxes(spec, spec.camera_path) == {}
    assert synth._scene_textures(spec, {})[0][1][0][3] is None


def _benchmark_scene():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    return scene_from_dict(workloads.hires_scene(1))


def test_every_render_gets_a_table_for_every_background_octave(monkeypatch):
    built = []
    scene_textures = synth._scene_textures

    def capturing(spec, boxes):
        built.append(scene_textures(spec, boxes))
        return built[-1]

    monkeypatch.setattr(synth, "_scene_textures", capturing)
    spec = _benchmark_scene()
    render_video(spec)  # a clip
    synth.DecodeState(toy_scene())  # a decode
    render_frame(spec, 4)  # a stateless render
    assert len(built) == 3
    for textures in built:
        planes = [octaves for basis, octaves in textures.values() if basis is not None]
        assert planes and all(table is not None for octaves in planes for *_, table in octaves)


def test_a_texture_lattice_beyond_int64_raises_before_any_trace(monkeypatch):
    def no_trace(*args):
        raise AssertionError("traced")

    monkeypatch.setattr(synth, "_trace", no_trace)
    spec = dataclasses.replace(_ORACLE_SCENES["two_plane"], texture_freq=1e300)
    for render in (render_video, lambda s: render_frame(s, 0), synth.DecodeState):
        with pytest.raises(DomainError, match="texture lattice"):
            render(spec)


def test_derived_fields_are_lazy_and_their_sources_read_only(monkeypatch):
    spec = _ORACLE_SCENES["two_plane"]
    perturb = dataclasses.replace(_ALL_CORRUPTIONS, corrupt_flow=True)
    video = render_video(spec, perturb, seed=3, stride=2)
    for name in ("images", "depths", "flows_fwd", "flows_bwd", "confidences"):
        seq = getattr(video, name)
        n = len(seq)
        assert isinstance(seq, Lazy) and n == (3 if name.startswith("flows") else 5)
        assert _bytes(seq) == _bytes(seq) == _bytes(seq[i] for i in range(n))  # nothing is cached, nothing drifts
        assert _bytes([seq[-1], seq[-n]]) == _bytes([seq[n - 1], seq[0]])
        assert isinstance(seq[1:], Lazy) and len(seq[n:]) == 0
        assert _bytes(seq[1:]) == _bytes([seq[i] for i in range(1, n)])
        assert _bytes(seq[1:][1:2]) == _bytes([seq[2]])
        assert _bytes(seq[::-2]) == _bytes([seq[i] for i in range(n - 1, -1, -2)])
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                seq[index]
    # the images, flows and noisy depths are derived from the clean depths,
    # the surface ids and the masks when read, so those cannot change under them
    assert video.depths[0] is video.depths[0]  # frame 0 keeps its clean depth
    _, surf = _clip_trace(video, monkeypatch).traces[3]
    for clean in (video.depths[0], surf, video.dynamic_masks[3]):
        with pytest.raises(ValueError, match="read-only"):
            clean[0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        video.flows_fwd = video.flows_fwd[:1]


def test_resolution_floor():
    with pytest.raises(ConfigError):
        SceneSpec(resolution=(16, 64))


def test_texture_seed_spans_int64():
    for seed in (-(2**63), 2**63 - 1):
        render_frame(SceneSpec(texture_seed=seed), 0)
    for seed in (-(2**63) - 1, 2**63):
        with pytest.raises(ConfigError, match="texture_seed"):
            SceneSpec(texture_seed=seed)


def test_camera_path_must_cover_the_pair(translating_scene):
    with pytest.raises(ConfigError):
        render_pair(translating_scene, 1)


def test_frames_and_strides_must_be_in_range(translating_scene):
    for frame in (-1, 2):
        with pytest.raises(ConfigError, match="outside the camera path"):
            render_frame(translating_scene, frame)
    with pytest.raises(ConfigError, match="stride"):
        render_pair(translating_scene, 0, stride=0)
    with pytest.raises(ConfigError, match="stride"):
        render_video(translating_scene, stride=0)


def test_object_vectors_must_have_three_entries():
    for vectors in ({"center": (0.0, 1.5)}, {"velocity": (0.0, 0.0, 0.0, 0.0)}):
        with pytest.raises(ConfigError, match="3-vectors"):
            ObjectSpec(**vectors)


# ---------------------------------------------------------------------------
# perturbations

_KEYED_PATH = tuple(PoseSE3(np.eye(3), np.array([0.05 * i, 0.0, 0.0])) for i in range(4))


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


@pytest.mark.parametrize("tau, stride", [(0, 1), (2, 1), (1, 2)])
def test_inject_perturbation_keys_every_pair_with_salt_11(translating_scene, tau, stride):
    # a pair's wobble does not depend on where the pair sits in its video
    spec = dataclasses.replace(translating_scene, camera_path=_KEYED_PATH)
    pair = render_pair(spec, tau, stride)
    field = wobble_field(pair.image_b.shape[:2], 0.8, 5, salt=11)
    shaken = inject_perturbation(pair, PerturbationSpec(wobble_px=0.8), 5)
    assert shaken.image_b.tobytes() == synth._warp_rows(pair.image_b, lambda r0, r1: field[r0:r1]).tobytes()
    moved = inject_perturbation(pair, PerturbationSpec(wobble_px=0.8, corrupt_flow=True), 5)
    assert moved.flow_fwd.tobytes() == (pair.flow_fwd + field).tobytes()
    for out in (shaken, moved):
        assert out.image_a.tobytes() == pair.image_a.tobytes()


def test_texture_drift_spares_the_object():
    spec = SceneSpec(
        camera_path=(PoseSE3.identity(), PoseSE3.identity()),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5),
    )
    pair = render_pair(spec, 0)
    out = inject_perturbation(pair, PerturbationSpec(texture_drift_px=1.5), 0)
    obj = pair.dynamic_b
    np.testing.assert_array_equal(out.image_b[obj], pair.image_b[obj])
    assert not np.array_equal(out.image_b[~obj], pair.image_b[~obj])


def _drift_image_ref(img, object_mask, shift_px):
    """The former drift path: a gather of the pixels off the quad, each
    sampled shift_px to its right with the border clamp, scattered into a
    copy."""
    h, w = img.shape[:2]
    idx = np.flatnonzero(~object_mask)
    xy = np.empty((idx.size, 2))
    np.clip(idx % w + shift_px, 0.0, w - 1.0, out=xy[:, 0])
    xy[:, 1] = idx // w
    out = img.copy()
    out.reshape(h * w, -1)[idx] = bilinear_sample(img, xy)[0]
    return out


@pytest.mark.parametrize("h, w", [(48, 64), (256, 320)])
def test_texture_drift_matches_the_gather_and_scatter_reference(h, w):
    rng = np.random.default_rng([h, w])
    img = rng.standard_normal((h, w, 3))  # negative values included
    quad = np.zeros((h, w), dtype=bool)
    quad[h // 2 :, w - w // 5 :] = True  # touches the right and bottom borders
    quad[3:9, 5:20] = True
    for drift, frames in ((0.5, 1), (0.75, 3), (2.25, 5)):
        got = synth._corrupt_image(img, quad, PerturbationSpec(texture_drift_px=drift), 0, 11, frames)
        assert got.tobytes() == _drift_image_ref(img, quad, drift * frames).tobytes()


def test_morph_touches_only_the_object_region():
    spec = SceneSpec(
        camera_path=(PoseSE3.identity(), PoseSE3.identity()),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5),
    )
    pair = render_pair(spec, 0)
    out = inject_perturbation(pair, PerturbationSpec(object_morph=1.4), 0)
    assert not np.array_equal(out.image_b, pair.image_b)
    far = ~pair.dynamic_b
    # dilate by leaving a margin: morph magnifies radially around the object
    changed = np.any(out.image_b != pair.image_b, axis=-1)
    assert (changed & far).sum() < changed.sum()


def test_morph_compounds_over_the_frame_gap():
    """A pair two frames apart is morphed by object_morph ** 2, as
    render_video morphs its frame 2."""
    spec = SceneSpec(
        camera_path=(PoseSE3.identity(),) * 3,
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5),
    )
    pair = render_pair(spec, 0, stride=2)
    p = PerturbationSpec(object_morph=1.2)
    out = inject_perturbation(pair, p, 0)
    assert out.image_b.tobytes() == synth._morph_pixels(pair.image_b, pair.dynamic_b, 1.2**2).tobytes()
    assert out.image_b.tobytes() == render_video(spec, p).images[2].tobytes()
    assert out.image_b.tobytes() != synth._morph_pixels(pair.image_b, pair.dynamic_b, 1.2).tobytes()


def test_depth_noise_magnitude(translating_scene):
    pair = render_pair(translating_scene, 0)
    out = inject_perturbation(pair, PerturbationSpec(depth_noise_rel=0.1), 0)
    err = relative_depth_error(
        out.depth_b, pair.depth_b, 1e-9, np.ones(pair.depth_b.shape, dtype=bool)
    )
    assert 0.05 < err.mean() < 0.15


def test_warp_image_matches_the_mgrid_lattice():
    # the clamped sample coordinates from broadcast 1-D aranges, against the
    # former np.mgrid lattice, bit for bit, with samples clamped on every side
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(48, 64, 3))
    disp = 3.0 * rng.standard_normal((48, 64, 2))
    ys, xs = np.mgrid[0:48, 0:64].astype(np.float64)
    x = np.clip(xs + disp[..., 0], 0.0, 63.0)
    y = np.clip(ys + disp[..., 1], 0.0, 47.0)
    want, _ = bilinear_sample(img, np.stack([x, y], axis=-1).reshape(-1, 2))
    assert synth._warp_rows(img, lambda r0, r1: disp[r0:r1]).tobytes() == want.reshape(img.shape).tobytes()


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


def test_video_wobbles_frame_i_with_salt_11_plus_i(translating_scene):
    # the corruption key schedule, pinned against its own recomputation:
    # every frame after the first draws its field from (seed, 11 + i)
    spec = dataclasses.replace(translating_scene, camera_path=_KEYED_PATH)
    video = render_video(spec, PerturbationSpec(wobble_px=0.8), seed=5)
    for i in range(1, len(_KEYED_PATH)):
        clean = render_frame(spec, i)[0]
        field = wobble_field(clean.shape[:2], 0.8, 5, salt=11 + i)
        want = synth._warp_rows(clean, lambda r0, r1: field[r0:r1])
        assert video.images[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("stride", [1, 2])
def test_video_corrupt_flow_keys_pair_a_with_salt_11_plus_a_plus_stride(translating_scene, stride):
    # under corrupt_flow the frames keep their pixels, and forward flow a
    # takes the field of its second frame, a + stride
    spec = dataclasses.replace(translating_scene, camera_path=_KEYED_PATH)
    clean = render_video(spec, stride=stride)
    video = render_video(spec, PerturbationSpec(wobble_px=0.8, corrupt_flow=True), seed=5, stride=stride)
    for a, flow in enumerate(video.flows_fwd):
        want = clean.flows_fwd[a] + wobble_field(flow.shape[:2], 0.8, 5, salt=11 + a + stride)
        assert flow.tobytes() == want.tobytes()
        assert video.flows_bwd[a].tobytes() == clean.flows_bwd[a].tobytes()
    assert [f.tobytes() for f in video.images] == [f.tobytes() for f in clean.images]


# ---------------------------------------------------------------------------
# latent decoding

def test_decode_is_deterministic():
    z = np.array([0.3, -1.0, 0.5, 0.2])
    a = decode_latent(z, toy_scene())
    b = decode_latent(z, toy_scene())
    np.testing.assert_array_equal(a.image_b, b.image_b)
    np.testing.assert_array_equal(a.flow_fwd, b.flow_fwd)


def _assert_same_pair(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, PoseSE3):
            x, y = x.matrix34(), y.matrix34()
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def test_decode_reuses_a_given_first_frame():
    """A decode through a shared DecodeState, one that builds its own, and
    the public render_pair + inject_perturbation composition of the same
    decoded amplitudes agree bit for bit, with a translated (and a rotated)
    first pose, a moving quad and every corruption on."""
    for rotation in (np.eye(3), _rotation(0.02, -0.03, 0.01)):
        template = SceneSpec(
            geometry="two_plane",
            camera_path=(PoseSE3(rotation, np.array([0.05, -0.02, 0.1])),),
            moving_object=ObjectSpec(center=(0.1, 0.0, 1.2), size=0.3, velocity=(0.02, 0.01, 0.0)),
        )
        state = synth.DecodeState(template, seed=3)
        for z in (np.array([0.5, -0.3, 0.8, 1.0]), np.array([2.0, 1.5, -0.4, -1.2])):
            wobble, drift, morph, t_x = (synth._squash(z[i], *r) for i, r in enumerate(
                (synth.WOBBLE_RANGE, synth.DRIFT_RANGE, synth.MORPH_RANGE, synth.CAM_TX_RANGE)))
            assert min(wobble, drift, morph - 1.0, t_x) > 0
            first = template.camera_path[0]
            spec = dataclasses.replace(template, camera_path=(first, PoseSE3(first.r, first.t + [t_x, 0.0, 0.0])))
            corruption = PerturbationSpec(
                wobble_px=wobble, texture_drift_px=drift, object_morph=morph, corrupt_flow=True
            )
            reference = inject_perturbation(render_pair(spec, 0), corruption, seed=3)
            plain = decode_latent(z, template, seed=3)
            reused = decode_latent(z, template, seed=3, state=state)
            # an equal template built anew (fresh pose objects) shares the state too
            rebuilt = dataclasses.replace(template, camera_path=(PoseSE3(first.r.copy(), first.t.copy()),))
            reused_rebuilt = decode_latent(z, rebuilt, seed=3, state=state)
            assert plain.dynamic_a.any() and plain.dynamic_b.any()
            _assert_same_pair(reference, plain)
            _assert_same_pair(reference, reused)
            _assert_same_pair(reference, reused_rebuilt)
    # every surface's octaves come with lattice tables built ahead of the renders
    assert all(table is not None for _, octaves in state.textures.values() for *_, table in octaves)
    # the state is shared read-only, and only with decodes of its own template and seed
    assert not any(a.flags.writeable for a in (*state.frame_a, state.dirs, state.curl[0]))
    with pytest.raises(ConfigError):
        decode_latent(z, template, seed=4, state=state)
    with pytest.raises(ConfigError):
        decode_latent(z, dataclasses.replace(template, texture_seed=1), seed=3, state=state)
    with pytest.raises(ConfigError):
        render_pair(dataclasses.replace(spec, texture_seed=1), 0, state=state)


def test_decode_state_rejects_another_first_pose():
    """A state is tied to its template's first pose: a template whose first
    pose is translated or rotated away from it raises ConfigError, in a
    decode and in render_pair alike."""
    template = SceneSpec(camera_path=(PoseSE3(np.eye(3), np.array([0.05, -0.02, 0.1])),))
    state = synth.DecodeState(template, seed=3)
    first = template.camera_path[0]
    z = np.array([0.5, -0.3, 0.8, 1.0])
    for moved in (PoseSE3(first.r, first.t + [0.01, 0.0, 0.0]), PoseSE3(_rotation(0.0, 0.02, 0.0), first.t)):
        other = dataclasses.replace(template, camera_path=(moved,))
        with pytest.raises(ConfigError, match="first pose"):
            decode_latent(z, other, seed=3, state=state)
        second = PoseSE3(moved.r, moved.t + [0.1, 0.0, 0.0])
        with pytest.raises(ConfigError, match="first pose"):
            render_pair(dataclasses.replace(template, camera_path=(moved, second)), 0, state=state)


def test_decode_state_renders_only_the_first_pair():
    template = toy_scene()
    state = synth.DecodeState(template)
    spec = dataclasses.replace(template, camera_path=template.camera_path * 3)
    for frame, stride in ((1, 1), (0, 2)):
        with pytest.raises(ConfigError, match=r"renders the pair \(0, 1\)"):
            render_pair(spec, frame, stride, state=state)


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


def test_scene_from_dict_intrinsics_object():
    named = {"fx": 90.0, "fy": 80.0, "cx": 30.5, "cy": 22.0}
    spec = scene_from_dict({"intrinsics": named})
    assert spec.intrinsics == Intrinsics(**named)
    assert spec.intrinsics == scene_from_dict({"intrinsics": [90.0, 80.0, 30.5, 22.0]}).intrinsics


def test_scene_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        scene_from_dict({"geometry": "plane", "wobble": 2.0})


@pytest.mark.parametrize(
    "normal",
    [(float("inf"), 0.0, 1.0), (0.0, float("nan"), 1.0), (1e308, 1e308, 1.0)],
    ids=["inf", "nan", "norm_overflow"],
)
@pytest.mark.parametrize("geometry", ["plane", "inclined"])
def test_scene_normal_must_be_finite(geometry, normal):
    with pytest.raises(ConfigError, match="normal"):
        SceneSpec(geometry=geometry, normal=normal)


def test_linear_path_must_stay_finite():
    doc = {"camera_path": {"kind": "linear", "frames": 3, "velocity": [1e308, 0.0, 0.0]}}
    with pytest.raises(ConfigError, match="camera_path velocity"):
        scene_from_dict(doc)
    doc["camera_path"]["frames"] = 2
    assert scene_from_dict(doc).camera_path[1].t[0] == 1e308


def test_perturbation_from_dict():
    p = perturbation_from_dict({"wobble_px": 1.0, "corrupt_flow": True})
    assert p.wobble_px == 1.0 and p.corrupt_flow
    with pytest.raises(ConfigError):
        perturbation_from_dict({"wobble": 1.0})


@pytest.mark.parametrize("name", ["wobble_px", "texture_drift_px", "object_morph", "depth_noise_rel"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_perturbation_amplitudes_must_be_finite(name, value):
    with pytest.raises(ConfigError, match=name):
        PerturbationSpec(**{name: value})
