"""Round trips and validation for the on-disk video bundle layout."""

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
    render_video,
    save_tensor,
    write_bundle,
)
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
    write_bundle(tmp_path / "v", make_bundle(with_optional=False))

    _edit_cameras(tmp_path / "v", lambda d: d["cameras"][1].pop("extrinsics"))
    with pytest.raises(InputError, match="camera 1"):
        read_bundle(tmp_path / "v")

    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    _edit_cameras(tmp_path / "v", lambda d: d["cameras"][0].update(intrinsics=[1.0, 2.0, 3.0]))
    with pytest.raises(InputError, match=r"\[fx, fy, cx, cy\]"):
        read_bundle(tmp_path / "v")

    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    _edit_cameras(
        tmp_path / "v",
        lambda d: d["cameras"][0].update(extrinsics=[[1.0, 0.0], [0.0, 1.0]]),
    )
    with pytest.raises(InputError, match="3x4"):
        read_bundle(tmp_path / "v")

    write_bundle(tmp_path / "v", make_bundle(with_optional=False))
    _edit_cameras(tmp_path / "v", lambda d: d.update(cameras=[]))
    with pytest.raises(InputError, match="non-empty"):
        read_bundle(tmp_path / "v")


@pytest.mark.parametrize(
    "name,shape",
    [
        ("frames/001.gft", (12, 16)),
        ("frames/002.gft", (12, 8, 3)),
        ("depth/000.gft", (12, 16, 1)),
        ("flow_fwd/001.gft", (12, 16, 3)),
        ("flow_bwd/000.gft", (16, 12, 2)),
        ("confidence/002.gft", (6, 16)),
        ("dynamic/001.gft", (12, 15)),
        ("features/000.gft", (3, 20)),
        ("features/002.gft", (3, 4, 6)),
    ],
)
def test_tensor_shape_mismatch(tmp_path, name, shape):
    write_bundle(tmp_path / "v", make_bundle())
    save_tensor(np.zeros(shape), str(tmp_path / "v" / name))
    with pytest.raises(InputError, match=f'"{name}" under .* has shape {re.escape(str(shape))}'):
        read_bundle(tmp_path / "v")
