"""End-to-end command-line runs, all in-process via cli.main."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from georeward import load_tensor, params_vector, save_tensor
from georeward.cli import main
from georeward.policy import load_policy
from georeward.reward import RewardConfig


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_lines(path):
    """Parse a JSON-lines file strictly: NaN and Infinity are rejected."""
    with open(path) as f:
        return [json.loads(line, parse_constant=_reject_constant) for line in f]


STATIC_PATH = {"kind": "linear", "velocity": [0.0, 0.0, 0.0], "frames": 3}
TRANS_PATH = {"kind": "linear", "velocity": [0.1, 0.0, 0.0], "frames": 3}


@pytest.fixture(scope="module")
def static_dump(tmp_path_factory):
    root = tmp_path_factory.mktemp("static")
    spec = write_json(root / "spec.json", {"camera_path": STATIC_PATH})
    out = str(root / "dump")
    assert main(["synth", "--spec", spec, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def trans_dump(tmp_path_factory):
    root = tmp_path_factory.mktemp("trans")
    spec = write_json(
        root / "spec.json", {"geometry": "two_plane", "camera_path": TRANS_PATH}
    )
    out = str(root / "dump")
    assert main(["synth", "--spec", spec, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def object_dump(tmp_path_factory):
    root = tmp_path_factory.mktemp("obj")
    spec = write_json(
        root / "spec.json",
        {
            "geometry": "two_plane",
            "camera_path": TRANS_PATH,
            "moving_object": {
                "center": [0.0, 0.0, 1.5],
                "size": 0.5,
                # vertical motion crosses the horizontal epipolar lines of the
                # translating camera, so unmasked pairs must show the violation
                "velocity": [0.0, 0.03, 0.0],
            },
        },
    )
    out = str(root / "dump")
    assert main(["synth", "--spec", spec, "--out", out]) == 0
    return out


# ---------------------------------------------------------------------------
# synth

def test_synth_layout_and_manifest(static_dump):
    for sub in ("frames", "depth", "flow_fwd", "flow_bwd", "confidence", "dynamic"):
        assert os.path.isdir(os.path.join(static_dump, sub))
    assert len(os.listdir(os.path.join(static_dump, "frames"))) == 3
    assert len(os.listdir(os.path.join(static_dump, "flow_fwd"))) == 2
    assert not os.path.exists(os.path.join(static_dump, ".lock"))
    manifest = read_json(os.path.join(static_dump, "manifest.json"))
    assert manifest["command"] == "synth"
    assert set(manifest) == {
        "command", "config_hash", "seed", "version", "inputs", "outputs", "duration_s",
    }


def test_synth_is_deterministic(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"camera_path": TRANS_PATH})
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["synth", "--spec", spec, "--out", out, "--seed", "5"]) == 0
        outs.append(out)
    for sub in ("frames", "depth", "flow_fwd", "flow_bwd", "confidence", "dynamic"):
        for fname in sorted(os.listdir(os.path.join(outs[0], sub))):
            pair = [Path(o, sub, fname).read_bytes() for o in outs]
            assert pair[0] == pair[1], f"{sub}/{fname} differs between identical runs"
    cams = [Path(o, "cameras.json").read_bytes() for o in outs]
    assert cams[0] == cams[1]
    manifests = [read_json(os.path.join(o, "manifest.json")) for o in outs]
    for m in manifests:
        m.pop("duration_s")
        m.pop("outputs")
    assert manifests[0] == manifests[1]


def test_synth_perturbation_lowers_the_score(tmp_path, static_dump):
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    broken = str(tmp_path / "broken")
    assert main([
        "synth", "--spec", spec, "--out", broken,
        "--perturb", "wobble_px=2", "--perturb", "corrupt_flow=true",
    ]) == 0
    clean_report = str(tmp_path / "clean.json")
    broken_report = str(tmp_path / "broken.json")
    assert main(["score", "--input", static_dump, "--out", clean_report]) == 0
    assert main(["score", "--input", broken, "--out", broken_report]) == 0
    clean = read_json(clean_report)["r_video"]
    corrupted = read_json(broken_report)["r_video"]
    assert corrupted < clean - 0.01


def test_synth_rejects_bad_perturb(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "o1"),
                 "--perturb", "wobble_px"]) == 2
    assert "key=value" in capsys.readouterr().err
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "o2"),
                 "--perturb", "gusto=1"]) == 2
    assert "gusto" in capsys.readouterr().err
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "o3"),
                 "--perturb", "corrupt_flow=maybe"]) == 2


def test_synth_respects_the_lock(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 2
    assert "locked" in capsys.readouterr().err


def test_synth_unknown_scene_field(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"wallpaper": 1})
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    assert "wallpaper" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# score

def test_score_clean_static_video(static_dump, tmp_path):
    report_path = str(tmp_path / "report.json")
    maps_dir = str(tmp_path / "maps")
    assert main(["score", "--input", static_dump, "--out", report_path,
                 "--dump-maps", maps_dir]) == 0
    report = read_json(report_path)
    assert abs(report["r_video"]) < 1e-6
    assert len(report["pairs"]) == 2
    assert report["config"] == RewardConfig().to_dict()

    # the dumped maps must reproduce the scalar: soft gating with unit
    # confidence reduces to a plain mean of q over the valid region
    q = load_tensor(os.path.join(maps_dir, "q_geo_000.gft"))
    omega = load_tensor(os.path.join(maps_dir, "omega_000.gft")).astype(bool)
    assert q[omega].mean() == pytest.approx(report["pairs"][0]["r_geo"] + 1.0, abs=1e-12)

    manifest = read_json(report_path + ".manifest.json")
    assert manifest["command"] == "score"
    assert manifest["outputs"] == [report_path, maps_dir]


@pytest.mark.parametrize("stride", [1, 2])
def test_score_report_config_round_trips(stride, tmp_path):
    """score.json's config, fed back as --config, reproduces score.json."""
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    dump = str(tmp_path / "dump")
    assert main(["synth", "--spec", spec, "--stride", str(stride), "--out", dump]) == 0
    first = tmp_path / "first.json"
    assert main(["score", "--input", dump, "--out", str(first)]) == 0
    cfg = write_json(tmp_path / "cfg.json", read_json(first)["config"])
    second = tmp_path / "second.json"
    assert main(["score", "--input", dump, "--config", cfg, "--out", str(second)]) == 0
    assert len(read_json(first)["pairs"]) == 3 - stride
    assert second.read_bytes() == first.read_bytes()


def test_score_rejects_bad_config(static_dump, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["score", "--input", static_dump, "--config", str(bad),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    unknown = write_json(tmp_path / "unknown.json", {"sharpness": 2})
    assert main(["score", "--input", static_dump, "--config", unknown,
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "sharpness" in capsys.readouterr().err


# documents of the wrong shape or type, or not strict JSON, by subcommand
BAD_SCORE_CONFIGS = {
    "score_config_type": [1],
    "score_feature_patch_type": {"feature_patch": "8"},
    "score_stale_pair_stride": {"pair_stride": 1},
}
BAD_SPECS = {
    "scene_depth_type": {"depth": "a"},
    "scene_object_type": {"moving_object": [1]},
    "scene_resolution_type": {"resolution": "ab"},
    "scene_frames_type": {"camera_path": {"kind": "linear", "frames": "x"}},
    "scene_intrinsics_keys": {"intrinsics": {"fx": 1}},
    "synth_negative_seed": {"camera_path": STATIC_PATH},
}
BAD_PRETRAIN = {
    "pretrain_list": [1],
    "pretrain_seed_type": {"seed": "x"},
    "pretrain_hidden_type": {"hidden": "a"},
    "data_std_type": {"data": {"kind": "normal", "std": "a"}},
    "data_mean_length": {"data": {"kind": "normal", "mean": [1, 2]}},
    "data_means_type": {"data": {"kind": "coordinate_mixture", "means": "ab"}},
    "data_weights_type": {"data": {"kind": "coordinate_mixture", "means": [1.0], "weights": "x"}},
    "pretrain_negative_seed": {"seed": -3},
    "pretrain_batch_size": {"batch_size": 0, "iterations": 2},
    "pretrain_nan": {"lr": float("nan"), "iterations": 2},
}
BAD_GRPO = {
    "trainer_field_type": {"trainer": {"group_size": "4"}},
    "trainer_clip_eps": {"trainer": {"clip_eps": 0.001}},
    "grpo_pretrain_type": {"pretrain": 5},
    "grpo_data_type": {"pretrain": {"data": [1]}},
    "trainer_negative_seed": {"trainer": {"seed": -1}},
    "grpo_trainer_nan": {"trainer": {"lr": float("nan"), "iterations": 2}},
}
# one tensor of a copy of the 48x64 static dump swapped for a 32x32 one,
# then read by the given subcommand
BAD_SHAPES = {
    "dynamic_shape": (["metrics", "--stride", "1"], "dynamic/000.gft", (32, 32), np.uint8),
    "frame_shape": (["score"], "frames/001.gft", (32, 32, 3), np.float32),
}
# what the message must name, for cases that pin it
NAMED = {
    "trainer_clip_eps": "clip_eps",
    "data_std_type": "std",
    "data_mean_length": "mean",
    "data_means_type": "means",
    "data_weights_type": "weights",
    "tensor_name": "007.gft",
    "dynamic_shape": "dynamic/000.gft",
    "frame_shape": "frames/001.gft",
    "synth_negative_seed": "seed",
    "trainer_negative_seed": "seed",
    "pretrain_negative_seed": "seed",
    "pretrain_batch_size": "batch_size",
    "score_feature_patch_type": "must be int",
    "score_stale_pair_stride": "pair_stride",
    "pretrain_nan": "NaN",
    "grpo_trainer_nan": "NaN",
    "cameras_nan": "cameras.json",
}


@pytest.mark.parametrize(
    "case",
    [
        "cameras_list",
        "camera_entries",
        "flow_stride_type",
        "intrinsics_type",
        "extrinsics_type",
        "cameras_nan",
        *BAD_SCORE_CONFIGS,
        "tensor_name",
        *BAD_SPECS,
        *BAD_PRETRAIN,
        *BAD_GRPO,
        *BAD_SHAPES,
        "policy_manifest_list",
    ],
)
def test_malformed_input_exits_2(case, static_dump, tmp_path, capsys):
    cameras = read_json(os.path.join(static_dump, "cameras.json"))
    cam0 = cameras["cameras"][0]
    bad_cameras = {
        "cameras_list": [],
        "camera_entries": {"cameras": [1, 2]},
        "flow_stride_type": dict(cameras, flow_stride="a"),
        "intrinsics_type": dict(cameras, cameras=[dict(cam0, intrinsics="abcd")]),
        "extrinsics_type": dict(cameras, cameras=[dict(cam0, extrinsics=[["a"] * 4] * 3)]),
        "cameras_nan": dict(cameras, cameras=[dict(cam0, extrinsics=[[float("nan")] + [0.0] * 3]
                                                      + cam0["extrinsics"][1:])]),
    }
    report = str(tmp_path / "r.json")
    out = str(tmp_path / "run")
    if case in bad_cameras:
        dump = tmp_path / "dump"
        shutil.copytree(static_dump, dump)
        write_json(dump / "cameras.json", bad_cameras[case])
        argv = ["score", "--input", str(dump), "--out", report]
    elif case == "tensor_name":
        dump = tmp_path / "dump"
        shutil.copytree(static_dump, dump)
        os.rename(dump / "depth" / "001.gft", dump / "depth" / "007.gft")
        argv = ["score", "--input", str(dump), "--out", report]
    elif case in BAD_SHAPES:
        command, name, shape, dtype = BAD_SHAPES[case]
        dump = tmp_path / "dump"
        shutil.copytree(static_dump, dump)
        save_tensor(np.zeros(shape, dtype=dtype), str(dump / name))
        argv = command + ["--input", str(dump), "--out", report]
    elif case in BAD_SCORE_CONFIGS:
        cfg = write_json(tmp_path / "cfg.json", BAD_SCORE_CONFIGS[case])
        argv = ["score", "--input", static_dump, "--config", cfg, "--out", report]
    elif case in BAD_SPECS:
        spec = write_json(tmp_path / "spec.json", BAD_SPECS[case])
        argv = ["synth", "--spec", spec, "--out", out]
        if case == "synth_negative_seed":
            argv += ["--seed", "-1", "--perturb", "depth_noise_rel=0.1"]
    elif case in BAD_PRETRAIN:
        cfg = write_json(tmp_path / "cfg.json", BAD_PRETRAIN[case])
        argv = ["pretrain", "--config", cfg, "--out", out]
    elif case in BAD_GRPO:
        cfg = write_json(tmp_path / "cfg.json", BAD_GRPO[case])
        argv = ["grpo", "--config", cfg, "--out", out]
    else:
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        write_json(ckpt / "policy.json", [])
        cfg = write_json(tmp_path / "cfg.json", {"init_checkpoint": str(ckpt)})
        argv = ["grpo", "--config", cfg, "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert NAMED.get(case, "") in err


def test_score_incomplete_dump(tmp_path, capsys):
    partial = tmp_path / "partial"
    (partial / "frames").mkdir(parents=True)
    assert main(["score", "--input", str(partial), "--out", str(tmp_path / "r.json")]) == 2
    assert '"depth/"' in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pretrain

def test_pretrain_cli(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"iterations": 40, "hidden": 8, "seed": 3})
    out = tmp_path / "run"
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    rows = read_lines(out / "metrics.jsonl")
    assert len(rows) == 40
    assert all(set(r) == {"iter", "loss"} for r in rows)
    assert rows[0]["iter"] == 0
    policy = load_policy(str(out / "checkpoint"))
    assert policy.dim == 4
    resolved = read_json(out / "config.json")
    assert resolved["iterations"] == 40 and resolved["hidden"] == 8
    assert read_json(out / "manifest.json")["command"] == "pretrain"


def test_pretrain_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"widgets": 3})
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "widgets" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grpo

TINY_TRAINER = {
    "iterations": 5, "group_size": 2, "steps": 4, "grad_window": 2, "seed": 0,
}
TINY_PRETRAIN = {"iterations": 60, "hidden": 8}


def test_grpo_cli(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json", {"trainer": TINY_TRAINER, "pretrain": TINY_PRETRAIN}
    )
    out = tmp_path / "run"
    assert main(["grpo", "--config", cfg, "--out", str(out)]) == 0
    rows = read_lines(out / "metrics.jsonl")
    assert len(rows) == 5
    want = {"iter", "reward_mean", "reward_std", "kl", "grad_norm"}
    assert all(set(r) == want for r in rows)
    load_policy(str(out / "checkpoint"))
    load_policy(str(out / "checkpoint_ema"))
    resolved = read_json(out / "config.json")
    assert resolved["trainer"]["grad_window"] == 2
    assert resolved["trainer"]["sync_noise"] is True
    assert resolved["scene"] == "toy_scene"
    assert read_json(out / "manifest.json")["command"] == "grpo"


def test_grpo_from_checkpoint(tmp_path):
    pre_cfg = write_json(tmp_path / "pre.json", TINY_PRETRAIN)
    pre_out = tmp_path / "pre"
    assert main(["pretrain", "--config", pre_cfg, "--out", str(pre_out)]) == 0
    cfg = write_json(
        tmp_path / "cfg.json",
        {"trainer": TINY_TRAINER, "init_checkpoint": str(pre_out / "checkpoint")},
    )
    assert main(["grpo", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_grpo_config_errors(tmp_path, capsys):
    cfg = write_json(tmp_path / "a.json", {"trainer": {"steps": 4, "grad_window": 5}})
    assert main(["grpo", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    assert "grad_window exceeds steps (5 > 4)" in capsys.readouterr().err

    cfg = write_json(
        tmp_path / "b.json",
        {"pretrain": TINY_PRETRAIN, "init_checkpoint": "x", "trainer": TINY_TRAINER},
    )
    assert main(["grpo", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    assert "not both" in capsys.readouterr().err

    cfg = write_json(tmp_path / "c.json", {"sprockets": 1})
    assert main(["grpo", "--config", cfg, "--out", str(tmp_path / "o3")]) == 2
    assert "sprockets" in capsys.readouterr().err


def test_grpo_zero_noise_fails_cleanly(tmp_path, capsys):
    trainer = dict(TINY_TRAINER, noise_scale=0.0, iterations=2)
    cfg = write_json(tmp_path / "cfg.json", {"trainer": trainer, "pretrain": TINY_PRETRAIN})
    out = tmp_path / "run"
    assert main(["grpo", "--config", cfg, "--out", str(out)]) == 3
    assert "noise_scale is 0" in capsys.readouterr().err
    assert not os.path.exists(out / "checkpoint")


def test_grpo_divergence_leaves_last_good(tmp_path, capsys):
    trainer = dict(TINY_TRAINER, kl_beta=1e280, iterations=6)
    cfg = write_json(tmp_path / "cfg.json", {"trainer": trainer, "pretrain": TINY_PRETRAIN})
    out = tmp_path / "run"
    assert main(["grpo", "--config", cfg, "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    rescued = load_policy(str(out / "checkpoint_last_good"))
    assert np.isfinite(params_vector(rescued)).all()
    rows = read_lines(out / "metrics.jsonl")
    assert len(rows) >= 2
    # the diverged row keeps its keys; its non-finite values are null
    assert None in rows[-1].values()


# ---------------------------------------------------------------------------
# metrics

def test_metrics_static_video_degenerates(static_dump, tmp_path):
    report_path = str(tmp_path / "m.json")
    assert main(["metrics", "--input", static_dump, "--stride", "1",
                 "--out", report_path]) == 0
    report = read_json(report_path)
    assert report["sampson_mean"] is None
    assert report["pairs"] == 0
    # rendered flow keeps a few ulp of projection rounding even when static
    assert report["dynamic_degree"] < 1e-12
    assert len(report["warnings"]) == 2


def test_metrics_epipolar_floor(trans_dump, tmp_path):
    report_path = str(tmp_path / "m.json")
    assert main(["metrics", "--input", trans_dump, "--stride", "1",
                 "--out", report_path]) == 0
    report = read_json(report_path)
    assert "warnings" not in report
    assert report["pairs"] > 0
    assert report["sampson_mean"] < 1e-10
    assert report["dynamic_degree"] > 1.0


def test_metrics_skips_pairs_without_enough_correspondences(trans_dump, tmp_path):
    # a huge flow sends every lattice point of pair 0 out of frame; the pair
    # is listed under warnings and pair 1 is still scored
    dump = tmp_path / "dump"
    shutil.copytree(trans_dump, dump)
    flow_path = str(dump / "flow_fwd" / "000.gft")
    save_tensor(load_tensor(flow_path) * np.float32(1e20), flow_path)
    report_path = str(tmp_path / "m.json")
    assert main(["metrics", "--input", str(dump), "--out", report_path]) == 0
    report = read_json(report_path)
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith("pair 0:")
    assert report["pairs"] > 0
    assert report["sampson_mean"] < 1e-10


def test_metrics_stride_validation(static_dump, tmp_path, capsys):
    # the default stride is the dump's flow_stride
    assert main(["metrics", "--input", static_dump,
                 "--out", str(tmp_path / "m.json")]) == 0
    # a 3-frame dump cannot support stride 4
    assert main(["metrics", "--input", static_dump, "--stride", "4",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "at least 5 frames" in capsys.readouterr().err
    assert main(["metrics", "--input", static_dump, "--stride", "2",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "flow_stride" in capsys.readouterr().err


def test_metrics_dynamic_masks_rescue_the_floor(object_dump, tmp_path):
    # step 8 leaves too few lattice columns once the object footprint is
    # masked out, so densify the grid for both runs
    masked_path = str(tmp_path / "masked.json")
    assert main(["metrics", "--input", object_dump, "--stride", "1",
                 "--grid-step", "4", "--out", masked_path]) == 0
    masked = read_json(masked_path)

    stripped = str(tmp_path / "stripped")
    shutil.copytree(object_dump, stripped)
    shutil.rmtree(os.path.join(stripped, "dynamic"))
    bare_path = str(tmp_path / "bare.json")
    assert main(["metrics", "--input", stripped, "--stride", "1",
                 "--grid-step", "4", "--out", bare_path]) == 0
    bare = read_json(bare_path)

    assert "warnings" not in masked
    assert masked["sampson_mean"] < 1e-10
    assert bare["sampson_mean"] > 1e-3


# ---------------------------------------------------------------------------
# cross-cutting

def test_score_is_thread_count_invariant(trans_dump, tmp_path, monkeypatch):
    reports = []
    for threads in ("1", "8"):
        monkeypatch.setenv("GEOFLOW_THREADS", threads)
        path = tmp_path / f"r{threads}.json"
        assert main(["score", "--input", trans_dump, "--out", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "georeward" in capsys.readouterr().out


def test_missing_required_argument():
    with pytest.raises(SystemExit) as exc:
        main(["score"])
    assert exc.value.code == 2
