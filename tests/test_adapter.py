"""Round trips and validation for the on-disk video bundle layout."""

import dataclasses
import json
import os
import re
import shutil

import numpy as np
import pytest

from georeward import (
    Intrinsics,
    PerturbationSpec,
    PoseSE3,
    SceneSpec,
    VideoBundle,
    read_bundle,
    render_pair,
    render_video,
    save_tensor,
    score_video,
    write_bundle,
)
from georeward import adapter
from georeward.errors import InputError
from georeward.synth import ObjectSpec

K = Intrinsics(fx=40.0, fy=40.0, cx=8.0, cy=6.0)


def make_bundle(n=3, stride=1, with_optional=True, rng_seed=41):
    rng = np.random.default_rng(rng_seed)
    h, w = 12, 16
    poses = [PoseSE3(np.eye(3), np.array([0.05 * i, 0.0, 0.0])) for i in range(n)]
    kwargs = {}
    if with_optional:
        kwargs = dict(
            confidences=[rng.uniform(0.2, 1.0, (h, w)) for _ in range(n)],
            features=[rng.standard_normal((3, 4, 5)) for _ in range(n)],
            dynamic_masks=[rng.uniform(size=(h, w)) > 0.7 for _ in range(n)],
        )
    return VideoBundle(
        images=[rng.uniform(0.0, 1.0, (h, w, 3)) for _ in range(n)],
        depths=[rng.uniform(1.0, 3.0, (h, w)) for _ in range(n)],
        flows_fwd=[rng.standard_normal((h, w, 2)) for _ in range(n - stride)],
        flows_bwd=[rng.standard_normal((h, w, 2)) for _ in range(n - stride)],
        intrinsics=[K] * n,
        poses=poses,
        flow_stride=stride,
        **kwargs,
    )


def test_round_trip(tmp_path):
    bundle = make_bundle()
    write_bundle(tmp_path / "v", bundle)
    back = read_bundle(tmp_path / "v")
    assert len(back) == 3
    assert back.flow_stride == 1
    for i in range(3):
        # frames travel as f32; everything else is exact f64
        want = bundle.images[i].astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back.images[i], want)
        np.testing.assert_array_equal(back.depths[i], bundle.depths[i])
        np.testing.assert_array_equal(back.confidences[i], bundle.confidences[i])
        np.testing.assert_array_equal(back.features[i], bundle.features[i])
        np.testing.assert_array_equal(back.dynamic_masks[i], bundle.dynamic_masks[i])
        assert back.dynamic_masks[i].dtype == bool
        assert back.intrinsics[i] == K
        np.testing.assert_allclose(back.poses[i].t, bundle.poses[i].t, atol=1e-15)
    for i in range(2):
        np.testing.assert_array_equal(back.flows_fwd[i], bundle.flows_fwd[i])
        np.testing.assert_array_equal(back.flows_bwd[i], bundle.flows_bwd[i])


def test_rendered_video_round_trip(tmp_path):
    # render_video's bundle is what synth writes; reading the dump back
    # returns it, with frames at f32 precision
    spec = SceneSpec(
        geometry="two_plane",
        camera_path=tuple(PoseSE3(np.eye(3), np.array([0.05 * i, 0.0, 0.0])) for i in range(3)),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5, velocity=(0.0, 0.03, 0.0)),
    )
    video = render_video(spec, PerturbationSpec(wobble_px=1.0, depth_noise_rel=0.05), seed=3)
    write_bundle(tmp_path / "v", video)
    back = read_bundle(tmp_path / "v")
    assert len(back) == len(video) == 3
    assert back.flow_stride == video.flow_stride == 1
    assert back.features is None and video.features is None
    assert any(m.any() for m in video.dynamic_masks)
    for i in range(3):
        np.testing.assert_array_equal(back.images[i], video.images[i].astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.depths[i], video.depths[i])
        np.testing.assert_array_equal(back.confidences[i], video.confidences[i])
        np.testing.assert_array_equal(back.dynamic_masks[i], video.dynamic_masks[i])
        assert back.dynamic_masks[i].dtype == video.dynamic_masks[i].dtype == bool
        assert back.intrinsics[i] == video.intrinsics[i]
        np.testing.assert_array_equal(back.poses[i].t, video.poses[i].t)
    for i in range(2):
        np.testing.assert_array_equal(back.flows_fwd[i], video.flows_fwd[i])
        np.testing.assert_array_equal(back.flows_bwd[i], video.flows_bwd[i])


def test_pair_cuts_frames_flows_and_maps_at_the_stride():
    video = make_bundle(n=5, stride=2)
    for tau in range(3):
        pair = video.pair(tau)
        assert (pair.frame_a, pair.frame_b) == (tau, tau + 2)
        assert pair.flow_fwd is video.flows_fwd[tau]
        assert pair.flow_bwd is video.flows_bwd[tau]
        for side, frame in (("a", tau), ("b", tau + 2)):
            assert getattr(pair, f"image_{side}") is video.images[frame]
            assert getattr(pair, f"depth_{side}") is video.depths[frame]
            assert getattr(pair, f"intrinsics_{side}") is video.intrinsics[frame]
            assert getattr(pair, f"pose_{side}") is video.poses[frame]
            assert getattr(pair, f"confidence_{side}") is video.confidences[frame]
            assert getattr(pair, f"features_{side}") is video.features[frame]
            assert getattr(pair, f"dynamic_{side}") is video.dynamic_masks[frame]


def test_pair_without_optional_maps_leaves_them_none():
    pair = make_bundle(with_optional=False).pair(np.int64(1))
    assert (pair.frame_a, pair.frame_b) == (1, 2)
    for side in "ab":
        for name in ("confidence", "features", "dynamic"):
            assert getattr(pair, f"{name}_{side}") is None


@pytest.mark.parametrize(
    "n, stride, tau", [(3, 1, -1), (3, 1, 2), (3, 1, 5), (5, 2, 3), (5, 2, -2), (3, 1, 0.5), (3, 1, True)]
)
def test_pair_index_out_of_range_is_rejected(n, stride, tau):
    # a negative tau would pair the last frames with frame 0 under another flow file;
    # a float would index a list, and True would stand in for frame 1
    with pytest.raises(InputError, match=rf"0 <= tau < len\(video\) - flow_stride = {n - stride}, got {tau}"):
        make_bundle(n=n, stride=stride).pair(tau)


@pytest.mark.parametrize("field", ["confidences", "features", "dynamic_masks"])
def test_bundle_rejects_a_mis_sized_map(field):
    # checked where the bundle is built, so neither score_video (a bare
    # IndexError at the last pair) nor write_bundle ever sees it
    video = make_bundle()
    short = {field: getattr(video, field)[:-1]}
    message = rf"len\({field}\) is 2; 3 frames at flow_stride 1 need 3"
    with pytest.raises(InputError, match=message):
        VideoBundle(**{**vars(video), **short})
    with pytest.raises(InputError, match=message):
        dataclasses.replace(video, **short)


def test_rendered_pair_masks_match_the_video_pair():
    spec = SceneSpec(
        camera_path=tuple(PoseSE3(np.eye(3), np.array([0.04 * i, 0.0, 0.0])) for i in range(4)),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.5, velocity=(0.03, 0.02, 0.0)),
    )
    video = render_video(spec, stride=2)
    for tau in range(2):
        direct = render_pair(spec, tau, stride=2)
        cut = video.pair(tau)
        assert direct.dynamic_a.any() and direct.dynamic_b.any()
        assert not np.array_equal(direct.dynamic_a, direct.dynamic_b)
        np.testing.assert_array_equal(direct.dynamic_a, cut.dynamic_a)
        np.testing.assert_array_equal(direct.dynamic_b, cut.dynamic_b)


def test_optional_directories_default_to_none(tmp_path):
    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    back = read_bundle(tmp_path / "v")
    assert back.confidences is None
    assert back.features is None
    assert back.dynamic_masks is None


def test_u8_frames_are_rescaled(tmp_path):
    bundle = make_bundle(with_optional=False)
    write_bundle(tmp_path / "v", bundle)
    raw = np.arange(12 * 16 * 3, dtype=np.uint8).reshape(12, 16, 3) % 251
    save_tensor(raw, tmp_path / "v" / "frames" / "000.gft")
    back = read_bundle(tmp_path / "v")
    np.testing.assert_array_equal(back.images[0], raw.astype(np.float64) / 255.0)
    assert back.images[0].max() <= 1.0


def test_stride_two_layout(tmp_path):
    bundle = make_bundle(n=4, stride=2)
    write_bundle(tmp_path / "v", bundle)
    back = read_bundle(tmp_path / "v")
    assert back.flow_stride == 2
    assert len(back.flows_fwd) == 2
    assert len(back.images) == 4


def test_missing_required_directory(tmp_path):
    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    shutil.rmtree(tmp_path / "v" / "depth")
    with pytest.raises(InputError, match='missing "depth/"'):
        read_bundle(tmp_path / "v")


def test_missing_cameras_json(tmp_path):
    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    os.remove(tmp_path / "v" / "cameras.json")
    with pytest.raises(InputError, match="cameras.json"):
        read_bundle(tmp_path / "v")


def test_not_a_directory(tmp_path):
    with pytest.raises(InputError, match="not a directory"):
        read_bundle(tmp_path / "nope")


@pytest.mark.parametrize("folder,expected", [("depth", 3), ("flow_fwd", 2)])
def test_tensor_count_mismatch(tmp_path, folder, expected):
    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    os.remove(tmp_path / "v" / folder / "000.gft")
    with pytest.raises(InputError, match=f'"{folder}/" holds {expected - 1}'):
        read_bundle(tmp_path / "v")


def _edit_cameras(root, mutate):
    path = os.path.join(root, "cameras.json")
    with open(path) as f:
        doc = json.load(f)
    mutate(doc)
    with open(path, "w") as f:
        json.dump(doc, f)


def test_bad_flow_stride(tmp_path):
    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    _edit_cameras(tmp_path / "v", lambda d: d.update(flow_stride=0))
    with pytest.raises(InputError, match="flow_stride"):
        read_bundle(tmp_path / "v")


def test_too_few_frames_for_stride(tmp_path):
    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    _edit_cameras(tmp_path / "v", lambda d: d.update(flow_stride=3))
    with pytest.raises(InputError, match="cannot support"):
        read_bundle(tmp_path / "v")


def test_camera_entry_validation(tmp_path):
    # one fresh dump per broken entry: write_bundle refuses a dump's directory
    for i, (edit, message) in enumerate((
        (lambda d: d["cameras"][1].pop("extrinsics"), "camera 1"),
        (lambda d: d["cameras"][0].update(intrinsics=[1.0, 2.0, 3.0]), r"\[fx, fy, cx, cy\]"),
        (lambda d: d["cameras"][0].update(extrinsics=[[1.0, 0.0], [0.0, 1.0]]), "3x4"),
        (lambda d: d.update(cameras=[]), "non-empty"),
    )):
        write_bundle(tmp_path / f"v{i}", make_bundle(with_optional=False))
        _edit_cameras(tmp_path / f"v{i}", edit)
        with pytest.raises(InputError, match=message):
            read_bundle(tmp_path / f"v{i}")


SHAPE_MISMATCHES = [
    ("frames/001.gft", (12, 16)),
    ("frames/002.gft", (12, 8, 3)),
    ("depth/000.gft", (12, 16, 1)),
    ("flow_fwd/001.gft", (12, 16, 3)),
    ("flow_bwd/000.gft", (16, 12, 2)),
    ("confidence/002.gft", (6, 16)),
    ("dynamic/001.gft", (12, 15)),
    ("features/000.gft", (3, 20)),
    ("features/002.gft", (3, 4, 6)),
]


@pytest.mark.parametrize("name,shape", SHAPE_MISMATCHES)
def test_tensor_shape_mismatch(tmp_path, name, shape):
    write_bundle(tmp_path / "v", make_bundle())
    save_tensor(np.zeros(shape), str(tmp_path / "v" / name))
    with pytest.raises(InputError, match=f'"{name}" under .* has shape {re.escape(str(shape))}'):
        read_bundle(tmp_path / "v")


def _record_loads(monkeypatch, root):
    """Make adapter.load_tensor record each file it loads, relative to root."""
    loaded = []
    real = adapter.load_tensor

    def load(path):
        loaded.append(os.path.relpath(path, root))
        return real(path)

    monkeypatch.setattr(adapter, "load_tensor", load)
    return loaded


@pytest.mark.parametrize("name,shape", SHAPE_MISMATCHES)
def test_read_flows_checks_every_shape(tmp_path, name, shape, monkeypatch):
    # metrics reads its flows from read_bundle, which checks the shape of
    # every tensor in every directory before it loads any payload
    write_bundle(tmp_path / "v", make_bundle())
    save_tensor(np.zeros(shape), str(tmp_path / "v" / name))
    loaded = _record_loads(monkeypatch, tmp_path / "v")
    with pytest.raises(InputError, match=f'"{name}" under .* has shape {re.escape(str(shape))}'):
        read_bundle(tmp_path / "v")
    assert loaded == []


@pytest.mark.parametrize("stride,with_optional", [(1, True), (2, False)])
def test_read_flows_matches_read_bundle(tmp_path, stride, with_optional, monkeypatch):
    # the forward flows and dynamic masks that metrics reads from
    # read_bundle are the written ones, and reading them loads no frame,
    # depth, backward-flow or confidence payload
    bundle = make_bundle(n=4, stride=stride, with_optional=with_optional)
    write_bundle(tmp_path / "v", bundle)
    loaded = _record_loads(monkeypatch, tmp_path / "v")
    back = read_bundle(tmp_path / "v")
    assert loaded == []
    assert back.flow_stride == stride
    assert [f.tobytes() for f in back.flows_fwd] == [f.tobytes() for f in bundle.flows_fwd]
    if with_optional:
        dynamic = list(back.dynamic_masks)
        assert [d.dtype for d in dynamic] == [np.dtype(bool)] * 4
        assert [d.tobytes() for d in dynamic] == [d.tobytes() for d in bundle.dynamic_masks]
    else:
        assert back.dynamic_masks is None
    assert {os.path.dirname(p) for p in loaded} == ({"flow_fwd", "dynamic"} if with_optional else {"flow_fwd"})


def test_read_bundle_sequences_slice_without_loading(tmp_path, monkeypatch):
    bundle = make_bundle(n=4)
    write_bundle(tmp_path / "v", bundle)
    back = read_bundle(tmp_path / "v")
    loaded = _record_loads(monkeypatch, tmp_path / "v")
    tail = back.depths[1:]
    assert isinstance(tail, adapter.Lazy) and len(tail) == 3 and tail.shape == back.depths.shape == (12, 16)
    assert back.features.shape == (3, 4, 5)  # the first tensor's shape, for axes left open
    assert loaded == []
    np.testing.assert_array_equal(tail[-1], bundle.depths[3])
    assert loaded == [os.path.join("depth", "003.gft")]
    with pytest.raises(IndexError):
        tail[3]


def test_score_sizes_its_pool_without_loading_a_depth(tmp_path, monkeypatch):
    spec = SceneSpec(camera_path=tuple(PoseSE3(np.eye(3), np.array([0.05 * i, 0.0, 0.0])) for i in range(3)))
    write_bundle(tmp_path / "v", render_video(spec))
    loaded = _record_loads(monkeypatch, tmp_path / "v")
    score_video(read_bundle(tmp_path / "v"))
    # pairs (0, 1) and (1, 2) read their own depths; nothing else reads one
    depths = sorted(p for p in loaded if os.path.dirname(p) == "depth")
    assert depths == [os.path.join("depth", f"00{i}.gft") for i in (0, 1, 1, 2)]


def test_pair_loads_only_its_own_tensors(tmp_path, monkeypatch):
    write_bundle(tmp_path / "v", make_bundle(n=4, stride=1))
    loaded = _record_loads(monkeypatch, tmp_path / "v")
    pair = read_bundle(tmp_path / "v").pair(1)
    assert sorted(loaded) == sorted(
        [os.path.join(d, f"00{i}.gft") for d in ("frames", "depth", "confidence", "features", "dynamic") for i in (1, 2)]
        + [os.path.join("flow_fwd", "001.gft"), os.path.join("flow_bwd", "001.gft")]
    )
    assert pair.frame_a == 1 and pair.frame_b == 2 and pair.dynamic_a.dtype == bool
    assert pair.image_a.dtype == pair.depth_b.dtype == pair.flow_bwd.dtype == np.float64
