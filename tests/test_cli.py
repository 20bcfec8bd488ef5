"""End-to-end command-line runs, all in-process via cli.main."""

import dataclasses
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from georeward import cli, grpo, load_tensor, params_vector, reward, runtime, save_tensor, synth
from georeward.cli import main
from georeward.errors import ConfigError
from georeward.grid import _from_dict, _json_type_ok
from georeward.grpo import TrainerConfig
from georeward.policy import init_policy, load_policy, save_policy
from georeward.reward import RewardConfig


# string values that write_json emits as these raw number literals, which
# json.dump cannot write: a float literal beyond the float range, and an int
# literal longer than Python's int-parsing digit limit
RAW_LITERALS = {"<1e400>": "1e400", "<5000 digits>": "1" * 5000}


def write_json(path, doc):
    text = json.dumps(doc)
    for marker, literal in RAW_LITERALS.items():
        text = text.replace(json.dumps(marker), literal)
    with open(path, "w") as f:
        f.write(text)
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
PAIR_PATH = {"kind": "linear", "velocity": [0.0, 0.0, 0.0], "frames": 2}
# the second camera looks along +x, parallel to the plane, so its rays escape
ESCAPING_PATH = [
    {"r": np.eye(3).tolist(), "t": [0.0, 0.0, 0.0]},
    {"r": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]], "t": [0.0, 0.0, 0.0]},
]


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


def test_lock_records_the_pid_while_the_command_runs(tmp_path, monkeypatch):
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    out = tmp_path / "dump"
    seen = []
    real = cli.write_bundle

    def write_bundle(root, video):
        seen.append(Path(root, ".lock").read_text())
        return real(root, video)

    monkeypatch.setattr(cli, "write_bundle", write_bundle)
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
    assert seen == [str(os.getpid())]
    assert not (out / ".lock").exists()


def test_lock_message_names_the_holding_pid(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").write_text("4242")
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 2
    assert "locked by another run (pid 4242)" in capsys.readouterr().err


def test_escaping_ray_leaves_no_output_directory(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": ESCAPING_PATH})
    out = tmp_path / "dump"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 2
    assert "escape" in capsys.readouterr().err
    assert not out.exists()


def test_failed_run_removes_the_parent_directories_it_made(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": ESCAPING_PATH})
    cfg = write_json(tmp_path / "cfg.json", {"seed": -1})
    for command in (["synth", "--spec", spec], ["pretrain", "--config", cfg], ["grpo", "--config", cfg]):
        assert main(command + ["--out", str(tmp_path / "new" / "deeper" / "run")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "new").exists()


def test_failed_synth_keeps_a_directory_it_did_not_create(tmp_path, monkeypatch):
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    out = tmp_path / "dump"
    out.mkdir()
    monkeypatch.setenv("GEOFLOW_THREADS", "x")
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 2
    assert out.is_dir() and not any(out.iterdir())


def test_synth_into_an_existing_dump_leaves_it_as_it_was(tmp_path, capsys):
    # a shorter clip over a longer one would leave the old extra tensors behind
    out = tmp_path / "dump"
    five, three = (write_json(tmp_path / f"spec{n}.json", {"camera_path": dict(TRANS_PATH, frames=n)}) for n in (5, 3))
    assert main(["synth", "--spec", five, "--out", str(out)]) == 0
    before = {f: f.read_bytes() for f in out.rglob("*") if f.is_file()}
    assert main(["synth", "--spec", three, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and '"frames/"' in err and str(out) in err
    assert {f: f.read_bytes() for f in out.rglob("*") if f.is_file()} == before
    assert main(["score", "--input", str(out), "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize(
    "message",
    ["Unable to allocate 894. GiB for an array with shape (200000, 200000, 3) and data type float64", ""],
)
def test_out_of_memory_exits_2_with_one_line(message, tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    # grpo runs out of memory once its policy is pretrained: nothing may be left behind
    cfg = write_json(tmp_path / "cfg.json", {"pretrain": {"iterations": 1, "batch_size": 2}})
    for name, command in (("render_video", ["synth", "--spec", spec]), ("train", ["grpo", "--config", cfg])):
        monkeypatch.setattr(cli, name, no_memory)
        out = tmp_path / command[0]
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert "Traceback" not in err and (message or "allocation failed") in err
        assert not out.exists()


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
    assert report["config"] == dataclasses.asdict(RewardConfig())

    # the dumped maps must reproduce the scalar: soft gating with unit
    # confidence reduces to a plain mean of q over the valid region
    q = load_tensor(os.path.join(maps_dir, "q_geo_000.gft"))
    omega = load_tensor(os.path.join(maps_dir, "omega_000.gft")).astype(bool)
    assert q[omega].mean() == pytest.approx(report["pairs"][0]["r_geo"] + 1.0, abs=1e-12)

    manifest = read_json(report_path + ".manifest.json")
    assert manifest["command"] == "score"
    assert manifest["outputs"] == [report_path, maps_dir]


def test_score_writes_no_report_when_the_maps_cannot_be_written(static_dump, tmp_path, capsys):
    maps = tmp_path / "maps"
    maps.write_text("")  # a file where the map directory should go
    report = tmp_path / "r.json"
    assert main(["score", "--input", static_dump, "--out", str(report), "--dump-maps", str(maps)]) == 2
    assert str(maps) in capsys.readouterr().err
    assert not report.exists()
    assert not os.path.exists(f"{report}.manifest.json")


def test_score_refuses_to_dump_maps_over_old_maps(tmp_path, monkeypatch, capsys):
    # a shorter clip's maps beside a longer one's would not match its report
    maps = tmp_path / "maps"
    maps.mkdir()  # an existing empty directory is fine
    dumps = {}
    for n in (5, 3):
        spec = write_json(tmp_path / f"spec{n}.json", {"camera_path": dict(TRANS_PATH, frames=n)})
        dumps[n] = str(tmp_path / f"dump{n}")
        assert main(["synth", "--spec", spec, "--out", dumps[n]]) == 0
    first = str(tmp_path / "first.json")
    assert main(["score", "--input", dumps[5], "--out", first, "--dump-maps", str(maps)]) == 0
    before = {f: f.read_bytes() for f in maps.iterdir()}
    assert len(before) == 16

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored before refusing the map directory")

    monkeypatch.setattr(cli, "score_video", no_scoring)
    report = tmp_path / "second.json"
    assert main(["score", "--input", dumps[3], "--out", str(report), "--dump-maps", str(maps)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(maps) in err
    assert not report.exists()
    assert not os.path.exists(f"{report}.manifest.json")
    assert {f: f.read_bytes() for f in maps.iterdir()} == before


def test_score_refuses_to_dump_maps_into_a_file(tmp_path, monkeypatch, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": dict(TRANS_PATH, frames=3)})
    dump = str(tmp_path / "dump")
    assert main(["synth", "--spec", spec, "--out", dump]) == 0
    maps = tmp_path / "maps"
    maps.write_bytes(b"not a directory")
    calls, score_video = [], cli.score_video

    def counting(*args, **kwargs):
        calls.append(args)
        return score_video(*args, **kwargs)

    monkeypatch.setattr(cli, "score_video", counting)
    report = tmp_path / "score.json"
    assert main(["score", "--input", dump, "--out", str(report), "--dump-maps", str(maps)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(maps) in err and "Errno" not in err
    assert not report.exists()
    assert not os.path.exists(f"{report}.manifest.json")
    assert maps.read_bytes() == b"not a directory"


def _poison(path):
    """Overwrite the last element of a float GFT payload with NaN."""
    blob = bytearray(path.read_bytes())
    fmt = {1: "<f", 2: "<d"}[blob[4]]
    blob[-struct.calcsize(fmt):] = struct.pack(fmt, float("nan"))
    path.write_bytes(bytes(blob))


# frame 1 of a 3-frame stride-2 dump is in no pair; frame 0 is in pair 0
@pytest.mark.parametrize("stride,name", [
    (2, "frames/001.gft"),
    (2, "depth/001.gft"),
    (2, "confidence/001.gft"),
    (1, "confidence/000.gft"),
    (1, "features/000.gft"),
])
def test_score_checks_every_payload(stride, name, tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": TRANS_PATH})
    dump = tmp_path / "dump"
    assert main(["synth", "--spec", spec, "--stride", str(stride), "--out", str(dump)]) == 0
    (dump / "features").mkdir()
    rng = np.random.default_rng(3)
    for i in range(3):
        save_tensor(rng.uniform(0.1, 1.0, (6, 8, 4)), str(dump / "features" / f"{i:03d}.gft"))
    assert main(["score", "--input", str(dump), "--out", str(tmp_path / "clean.json")]) == 0
    _poison(dump / name)
    report = tmp_path / "r.json"
    assert main(["score", "--input", str(dump), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert name in err and "non-finite" in err
    assert not report.exists()


def test_score_accepts_the_relative_pose_of_two_accepted_poses(tmp_path, capsys):
    # each rotation passes the 1e-9 orthonormality check; their product
    # diag((1 + 4.5e-10)**2, (1 - 4.5e-10)**2, 1) misses it
    r = [[1 + 4.5e-10, 0.0, 0.0], [0.0, 1 - 4.5e-10, 0.0], [0.0, 0.0, 1.0]]
    path = [{"r": r, "t": [0.0, 0.0, 0.0]}, {"r": r, "t": [0.05, 0.0, 0.0]}]
    spec = write_json(tmp_path / "spec.json", {"camera_path": path})
    dump = str(tmp_path / "dump")
    assert main(["synth", "--spec", spec, "--out", dump]) == 0
    assert main(["score", "--input", dump, "--out", str(tmp_path / "r.json")]) == 0, capsys.readouterr().err


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
    # an int beyond the float range in a float field
    "score_eps_num_overflow": {"eps_num": 10**400},
    # a float literal beyond the float range, which Python parses as inf
    "score_eps_num_float_overflow": {"eps_num": "<1e400>"},
    # an int of hundreds of digits that the range check, not the type check, rejects
    "score_lam_range_huge": {"lam": 10**300},
    "score_conf_threshold_hard": {"gating": "hard", "conf_threshold": 1.0},
    "score_feature_patch_zero": {"feature_patch": 0},
}
BAD_SPECS = {
    "scene_depth_type": {"depth": "a"},
    "scene_object_type": {"moving_object": [1]},
    "scene_resolution_type": {"resolution": "ab"},
    "scene_frames_type": {"camera_path": {"kind": "linear", "frames": "x"}},
    "scene_intrinsics_keys": {"intrinsics": {"fx": 1}},
    "synth_negative_seed": {"camera_path": STATIC_PATH},
    "synth_seed_overflow": {"camera_path": STATIC_PATH},
    "scene_texture_seed_overflow": {"texture_seed": 2**70, "camera_path": STATIC_PATH},
    "perturb_wobble_nan": {"camera_path": STATIC_PATH},
    "perturb_drift_inf": {"camera_path": STATIC_PATH},
    "perturb_morph_nan": {"camera_path": STATIC_PATH},
    "perturb_depth_noise_inf": {"camera_path": STATIC_PATH},
    # texture coordinates beyond the int64 lattice
    "scene_texture_freq_huge": {"texture_freq": 1e300, "camera_path": PAIR_PATH},
    "scene_depth_huge": {"depth": 1e300, "camera_path": PAIR_PATH},
    "scene_intrinsics_tiny": {"intrinsics": [1e-300, 1e-300, 0, 0], "camera_path": PAIR_PATH},
    "scene_velocity_huge": {"camera_path": {**PAIR_PATH, "velocity": [1e300, 0.0, 0.0]}},
    # float overflow in the scene's own numbers
    "scene_normal_overflow_inclined": {"geometry": "inclined", "normal": [1e308, 1e308, 1],
                                       "camera_path": PAIR_PATH},
    "scene_normal_overflow_plane": {"geometry": "plane", "normal": [1e308, 1e308, 1], "camera_path": PAIR_PATH},
    "scene_path_velocity_overflow": {"camera_path": {**STATIC_PATH, "velocity": [1e308, 0.0, 0.0]}},
    "scene_depth_int_overflow": {"depth": 10**400, "camera_path": PAIR_PATH},
    "scene_intrinsics_int_overflow": {"intrinsics": [10**400, 1.0, 2.0, 3.0], "camera_path": PAIR_PATH},
    # an RGB frame of this many float64s is past numpy's index range
    "scene_resolution_unallocatable": {"resolution": [4000000000, 4000000000], "camera_path": PAIR_PATH},
    # range checks of SceneSpec, and scene documents of the wrong shape
    "scene_document_type": [1],
    "scene_geometry": {"geometry": "cone"},
    "scene_depth_nonpositive": {"depth": 0.0},
    "scene_depth2_in_front": {"geometry": "two_plane", "depth": 2.0, "depth2": 1.5},
    "scene_normal_z": {"geometry": "inclined", "normal": [0.0, 1.0, 0.0]},
    "scene_camera_path_empty": {"camera_path": []},
    "scene_pose_without_t": {"camera_path": [{"r": np.eye(3).tolist()}]},
    "scene_texture_freq": {"texture_freq": 0.0},
    "perturb_negative_amplitude": {"camera_path": STATIC_PATH},
    "perturb_morph_nonpositive": {"camera_path": STATIC_PATH},
    "scene_path_kind": {"camera_path": {"kind": "circle", "frames": 2}},
    "perturb_not_a_number": {"camera_path": STATIC_PATH},
}
# extra synth arguments of the BAD_SPECS cases that need them
SYNTH_ARGS = {
    "synth_negative_seed": ["--seed", "-1", "--perturb", "depth_noise_rel=0.1"],
    "synth_seed_overflow": ["--seed", str(2**63), "--perturb", "wobble_px=1"],
    "perturb_wobble_nan": ["--perturb", "wobble_px=nan"],
    "perturb_drift_inf": ["--perturb", "texture_drift_px=inf"],
    "perturb_morph_nan": ["--perturb", "object_morph=nan"],
    "perturb_depth_noise_inf": ["--perturb", "depth_noise_rel=inf"],
    "perturb_negative_amplitude": ["--perturb", "texture_drift_px=-0.5"],
    "perturb_morph_nonpositive": ["--perturb", "object_morph=0"],
    "perturb_not_a_number": ["--perturb", "wobble_px=abc"],
}
BAD_PRETRAIN = {
    "pretrain_list": [1],
    "pretrain_seed_type": {"seed": "x"},
    "pretrain_hidden_type": {"hidden": "a"},
    "data_std_type": {"data": {"kind": "normal", "std": "a"}},
    "data_mean_length": {"data": {"kind": "normal", "mean": [1, 2]}},
    "data_means_type": {"data": {"kind": "coordinate_mixture", "means": "ab"}},
    "data_weights_type": {"data": {"kind": "coordinate_mixture", "means": [1.0], "weights": "x"}},
    "data_normal_unknown_key": {"data": {"kind": "normal", "stdev": 0.0}},
    "data_mixture_unknown_key": {"data": {"kind": "coordinate_mixture", "means": [1.0], "mean": 0.0}},
    "pretrain_negative_seed": {"seed": -3},
    "pretrain_batch_size": {"batch_size": 0, "iterations": 2},
    "pretrain_nan": {"lr": float("nan"), "iterations": 2},
    # integers beyond int64 would reach numpy as a shape or a count
    "pretrain_iterations_huge": {"iterations": 10**30},
    "pretrain_dim_huge": {"dim": 10**30},
    "pretrain_batch_size_huge": {"batch_size": 10**30},
    # counts within int64 whose arrays numpy still cannot build: rejected
    # before anything is allocated
    "pretrain_iterations_unallocatable": {"iterations": 2**62},
    "pretrain_batch_size_unallocatable": {"batch_size": 2**62, "iterations": 2},
    "pretrain_dim_unallocatable": {"dim": 2**62},
    "pretrain_hidden_unallocatable": {"hidden": 2**62, "iterations": 2},
    "pretrain_lr_int_overflow": {"lr": 10**400, "iterations": 2},
    "pretrain_lr_float_overflow": {"lr": "<1e400>", "iterations": 2},
    "pretrain_momentum_float_overflow": {"momentum": "<1e400>", "iterations": 2},
    "pretrain_lr_int_digits": {"lr": "<5000 digits>", "iterations": 2},
    "data_means_int_overflow": {"data": {"kind": "coordinate_mixture", "means": [10**400]}},
    "data_weights_negative": {"data": {"kind": "coordinate_mixture", "means": [1.0, 2.0], "weights": [-1.0, 2.0]}},
    "data_means_empty": {"data": {"kind": "coordinate_mixture", "means": []}},
    "data_mixture_std_zero": {"data": {"kind": "coordinate_mixture", "means": [1.0], "std": 0}},
}
BAD_GRPO = {
    "trainer_field_type": {"trainer": {"group_size": "4"}},
    "trainer_clip_eps": {"trainer": {"clip_eps": 0.001}},
    "grpo_pretrain_type": {"pretrain": 5},
    "grpo_data_type": {"pretrain": {"data": [1]}},
    "trainer_negative_seed": {"trainer": {"seed": -1}},
    "grpo_trainer_nan": {"trainer": {"lr": float("nan"), "iterations": 2}},
    "trainer_seed_overflow": {"trainer": {"seed": 2**70}},
    "trainer_steps_huge": {"trainer": {"steps": 10**30}},
    "grpo_init_checkpoint_int": {"init_checkpoint": 5},
    "grpo_init_checkpoint_list": {"init_checkpoint": ["ckpt"]},
    "trainer_lr_int_overflow": {"trainer": {"lr": 10**400, "iterations": 2}},
    "trainer_lr_float_overflow": {"trainer": {"lr": "<1e400>", "iterations": 2}},
    "trainer_ema_decay_range_huge": {"trainer": {"ema_decay": 10**300, "iterations": 2}},
    "grpo_scene_resolution_unallocatable": {"scene": {"resolution": [4000000000, 4000000000]}},
    "trainer_noise_scale_negative": {"trainer": {"noise_scale": -0.1}},
    "grpo_config_type": [1],
    "grpo_trainer_type": {"trainer": 5},
    "grpo_scene_type": {"scene": [1]},
}
# one tensor of a copy of the 48x64 static dump swapped for a 32x32 one,
# then read by the given subcommand
BAD_SHAPES = {
    "dynamic_shape": (["metrics", "--stride", "1"], "dynamic/000.gft", (32, 32), np.uint8),
    "frame_shape": (["score"], "frames/001.gft", (32, 32, 3), np.float32),
    # metrics reads only these headers, not their payloads
    "metrics_frame_shape": (["metrics"], "frames/001.gft", (32, 32, 3), np.float32),
    "metrics_depth_shape": (["metrics"], "depth/002.gft", (48, 64, 1), np.float64),
    "metrics_flow_bwd_shape": (["metrics"], "flow_bwd/000.gft", (48, 64, 3), np.float64),
    "metrics_confidence_shape": (["metrics"], "confidence/000.gft", (64, 48), np.float64),
}
# one tensor of a copy of the static dump cut short by 4 bytes, then read by
# the given subcommand
TRUNCATED = {
    "score_flow_fwd_truncated": (["score"], "flow_fwd/001.gft"),
    "metrics_frame_truncated": (["metrics"], "frames/002.gft"),
    "metrics_depth_truncated": (["metrics"], "depth/000.gft"),
    "metrics_flow_bwd_truncated": (["metrics"], "flow_bwd/001.gft"),
    "metrics_confidence_truncated": (["metrics"], "confidence/001.gft"),
}
# range checks of config fields that hold a value of hundreds of digits:
# the one-line message must stay about as short as a typical one
SHORT_RANGE_MESSAGES = {"score_lam_range_huge", "trainer_ema_decay_range_huge"}
# cases whose offending value has hundreds of digits: the message must stay short
LONG_VALUES = SHORT_RANGE_MESSAGES | {
    "score_eps_num_overflow",
    "scene_depth_int_overflow",
    "scene_intrinsics_int_overflow",
    "pretrain_lr_int_overflow",
    "data_means_int_overflow",
    "trainer_lr_int_overflow",
    "flow_stride_huge",
}
# what the message must name, for cases that pin it
NAMED = {
    "trainer_clip_eps": "clip_eps",
    "data_std_type": "std",
    "data_mean_length": "mean",
    "data_means_type": "means",
    "data_weights_type": "weights",
    "data_normal_unknown_key": "unknown normal data keys: stdev",
    "data_mixture_unknown_key": "unknown coordinate_mixture data keys: mean",
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
    "flow_stride_huge": "flow_stride",
    "extrinsics_bool": "extrinsics",
    "config_not_utf8": "cfg.json",
    "score_config_missing": "missing.json",
    "policy_manifest_missing": "no policy manifest at ",
    "synth_seed_overflow": "seed",
    "scene_texture_seed_overflow": "texture_seed",
    "trainer_seed_overflow": "seed",
    "pretrain_iterations_huge": "iterations",
    "pretrain_dim_huge": "dim",
    "pretrain_batch_size_huge": "batch_size",
    "pretrain_iterations_unallocatable": "iterations",
    "pretrain_batch_size_unallocatable": "batch_size",
    "pretrain_dim_unallocatable": "dim",
    "pretrain_hidden_unallocatable": "hidden",
    "score_lam_range_huge": "lam",
    "trainer_ema_decay_range_huge": "ema_decay",
    "trainer_steps_huge": "steps",
    "grpo_init_checkpoint_int": "grpo config key init_checkpoint must be str",
    "grpo_init_checkpoint_list": "grpo config key init_checkpoint must be str",
    "perturb_wobble_nan": "wobble_px",
    "perturb_drift_inf": "texture_drift_px",
    "perturb_morph_nan": "object_morph",
    "perturb_depth_noise_inf": "depth_noise_rel",
    "scene_texture_freq_huge": "texture lattice",
    "scene_depth_huge": "texture lattice",
    "scene_intrinsics_tiny": "texture lattice",
    "scene_velocity_huge": "texture lattice",
    "scene_normal_overflow_inclined": "normal",
    "scene_normal_overflow_plane": "normal",
    "scene_path_velocity_overflow": "camera_path velocity",
    "score_eps_num_overflow": "eps_num",
    "scene_depth_int_overflow": "depth",
    "pretrain_lr_int_overflow": "lr",
    "trainer_lr_int_overflow": "lr",
    "scene_intrinsics_int_overflow": "intrinsics",
    "data_means_int_overflow": "means",
    "score_eps_num_float_overflow": "cfg.json: number '1e400' overflows a float",
    "pretrain_lr_float_overflow": "cfg.json: number '1e400' overflows a float",
    "pretrain_momentum_float_overflow": "cfg.json: number '1e400' overflows a float",
    "trainer_lr_float_overflow": "cfg.json: number '1e400' overflows a float",
    "pretrain_lr_int_digits": "cfg.json",
    "scene_resolution_unallocatable": "resolution 4000000000x4000000000",
    "grpo_scene_resolution_unallocatable": "resolution 4000000000x4000000000",
    "score_conf_threshold_hard": "conf_threshold",
    "score_feature_patch_zero": "feature_patch",
    "scene_document_type": "scene document must be a JSON object",
    "scene_geometry": "geometry",
    "scene_depth_nonpositive": "depth",
    "scene_depth2_in_front": "far plane",
    "scene_normal_z": "normal",
    "scene_camera_path_empty": "camera_path",
    "scene_pose_without_t": "'t'",
    "scene_texture_freq": "texture_freq",
    "perturb_negative_amplitude": "texture_drift_px must be >= 0",
    "perturb_morph_nonpositive": "object_morph",
    "scene_path_kind": "unknown camera path kind 'circle'",
    "perturb_not_a_number": "--perturb wobble_px needs a number, got 'abc'",
    "data_means_empty": 'coordinate_mixture needs a non-empty "means" list, got []',
    "data_mixture_std_zero": "data std must be > 0",
    "data_weights_negative": "weights",
    "trainer_noise_scale_negative": "noise_scale",
    "grpo_pretrain_type": "grpo config key pretrain must be dict",
    "grpo_config_type": "grpo config must be a JSON object",
    "grpo_trainer_type": "grpo config key trainer must be dict",
    "grpo_scene_type": "grpo config key scene must be dict",
    "pretrain_list": "pretrain config must be a JSON object",
    "pretrain_seed_type": "pretrain config key seed must be int",
    "metrics_frame_shape": "frames/001.gft",
    "metrics_depth_shape": "depth/002.gft",
    "metrics_flow_bwd_shape": "flow_bwd/000.gft",
    "metrics_confidence_shape": "confidence/000.gft",
    **{case: name for case, (_, name) in TRUNCATED.items()},
}


@pytest.mark.parametrize(
    "case",
    [
        "cameras_list",
        "camera_entries",
        "flow_stride_type",
        "flow_stride_huge",
        "intrinsics_type",
        "extrinsics_type",
        "extrinsics_bool",
        "cameras_nan",
        *BAD_SCORE_CONFIGS,
        "tensor_name",
        *BAD_SPECS,
        *BAD_PRETRAIN,
        *BAD_GRPO,
        *BAD_SHAPES,
        *TRUNCATED,
        "policy_manifest_list",
        "policy_manifest_missing",
        "config_not_utf8",
        "score_config_missing",
    ],
)
def test_malformed_input_exits_2(case, static_dump, tmp_path, capsys):
    cameras = read_json(os.path.join(static_dump, "cameras.json"))
    cam0 = cameras["cameras"][0]
    bad_cameras = {
        "cameras_list": [],
        "camera_entries": {"cameras": [1, 2]},
        "flow_stride_type": dict(cameras, flow_stride="a"),
        "flow_stride_huge": dict(cameras, flow_stride=10**400),
        "intrinsics_type": dict(cameras, cameras=[dict(cam0, intrinsics="abcd")]),
        "extrinsics_type": dict(cameras, cameras=[dict(cam0, extrinsics=[["a"] * 4] * 3)]),
        "cameras_nan": dict(cameras, cameras=[dict(cam0, extrinsics=[[float("nan")] + [0.0] * 3]
                                                      + cam0["extrinsics"][1:])]),
        # every camera kept, so only the booleans can fail the read
        "extrinsics_bool": dict(cameras, cameras=[
            dict(cam0, extrinsics=[[bool(v) for v in row] for row in cam0["extrinsics"]]),
            *cameras["cameras"][1:],
        ]),
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
    elif case in TRUNCATED:
        command, name = TRUNCATED[case]
        dump = tmp_path / "dump"
        shutil.copytree(static_dump, dump)
        blob = (dump / name).read_bytes()
        (dump / name).write_bytes(blob[:-4])
        argv = command + ["--input", str(dump), "--out", report]
    elif case in BAD_SCORE_CONFIGS:
        cfg = write_json(tmp_path / "cfg.json", BAD_SCORE_CONFIGS[case])
        argv = ["score", "--input", static_dump, "--config", cfg, "--out", report]
    elif case in BAD_SPECS:
        spec = write_json(tmp_path / "spec.json", BAD_SPECS[case])
        argv = ["synth", "--spec", spec, "--out", out] + SYNTH_ARGS.get(case, [])
    elif case in BAD_PRETRAIN:
        cfg = write_json(tmp_path / "cfg.json", BAD_PRETRAIN[case])
        argv = ["pretrain", "--config", cfg, "--out", out]
    elif case in BAD_GRPO:
        cfg = write_json(tmp_path / "cfg.json", BAD_GRPO[case])
        argv = ["grpo", "--config", cfg, "--out", out]
    elif case == "score_config_missing":
        argv = ["score", "--input", static_dump, "--config", str(tmp_path / "missing.json"), "--out", report]
    elif case == "config_not_utf8":
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{")
        argv = ["pretrain", "--config", str(cfg), "--out", out]
    else:
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        if case == "policy_manifest_list":
            write_json(ckpt / "policy.json", [])
        cfg = write_json(tmp_path / "cfg.json", {"init_checkpoint": str(ckpt)})
        argv = ["grpo", "--config", cfg, "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert NAMED.get(case, "") in err
    assert not os.path.exists(out)
    if case in LONG_VALUES:
        assert len(err) < 200
    if case in SHORT_RANGE_MESSAGES:
        assert len(err.strip()) <= 120, err


def test_trainer_group_size_beyond_int64_is_rejected():
    # checked on the config alone: a trainer run with this group size would
    # try to draw that many members
    with pytest.raises(ConfigError, match="group_size"):
        _from_dict(TrainerConfig, {"group_size": 10**30}, "trainer config")
    assert _json_type_ok(2**63 - 1, int) and _json_type_ok(-(2**63), int)
    assert not _json_type_ok(2**63, int) and not _json_type_ok(-(2**63) - 1, int)


def test_config_errors_cut_long_values():
    # a library caller can pass an int too long for repr itself
    for value in (10**400, 10**5000, [10**400] * 3):
        with pytest.raises(ConfigError, match="eps_num") as exc:
            _from_dict(RewardConfig, {"eps_num": value}, "reward config")
        assert len(str(exc.value)) < 150


def test_score_rejects_confidence_outside_unit_range(static_dump, tmp_path, capsys):
    dump = tmp_path / "dump"
    shutil.copytree(static_dump, dump)
    conf_path = str(dump / "confidence" / "001.gft")
    conf = load_tensor(conf_path)
    conf[5, 7] = -0.25
    save_tensor(conf, conf_path)
    report = tmp_path / "r.json"
    assert main(["score", "--input", str(dump), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    # frame 1 is the b side of pair 0, the first pair scored
    assert err.startswith("error:") and "confidence_b" in err and "[0, 1]" in err
    assert not report.exists()


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


def test_pretrain_mixture_weights_are_normalised(tmp_path):
    # weights [0, 2] draw every coordinate from the second mean
    data = {"kind": "coordinate_mixture", "means": [-5.0, 5.0], "std": 1e-6, "weights": [0.0, 2.0]}
    samples = cli._data_sampler(data, 4)(np.random.default_rng(0), 64)
    np.testing.assert_allclose(samples, 5.0, atol=1e-4)
    cfg = write_json(tmp_path / "cfg.json", {"iterations": 2, "hidden": 8, "data": data})
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert read_json(tmp_path / "run" / "config.json")["data"]["weights"] == [0.0, 2.0]


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


def test_grpo_rejects_a_policy_of_the_wrong_dim(tmp_path, capsys):
    small = dict(TINY_PRETRAIN, iterations=5, dim=3)
    pre_cfg = write_json(tmp_path / "pre.json", small)
    pre_out = tmp_path / "pre"
    assert main(["pretrain", "--config", pre_cfg, "--out", str(pre_out)]) == 0
    trainer = dict(TINY_TRAINER, iterations=2)
    docs = {
        "pretrain": {"trainer": trainer, "pretrain": small},
        "checkpoint": {"trainer": trainer, "init_checkpoint": str(pre_out / "checkpoint")},
    }
    for name, doc in docs.items():
        cfg, out = write_json(tmp_path / f"{name}.json", doc), tmp_path / name
        assert main(["grpo", "--config", cfg, "--out", str(out)]) == 2
        assert "policy dim 3 does not match the latent dimension 4" in capsys.readouterr().err
        assert not out.exists()


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
    assert read_json(out / "config.json")["trainer"]["kl_beta"] == 1e280


EYE = np.eye(3).tolist()
# every JSON object the CLI reads: (subcommand, document, key path of the
# object in it); an "extra" key added there must exit 2 naming it
EXTRA_KEY = {
    "scene": ("synth", {"camera_path": PAIR_PATH}, ()),
    "camera_path": ("synth", {"camera_path": PAIR_PATH}, ("camera_path",)),
    "pose": ("synth", {"camera_path": [{"r": EYE, "t": [0.0, 0.0, 0.0]}] * 2}, ("camera_path", 1)),
    "intrinsics": ("synth", {"intrinsics": {"fx": 100.0, "fy": 100.0, "cx": 31.5, "cy": 23.5},
                             "camera_path": PAIR_PATH}, ("intrinsics",)),
    "moving_object": ("synth", {"moving_object": {"size": 0.4}, "camera_path": PAIR_PATH}, ("moving_object",)),
    "pretrain": ("pretrain", {"iterations": 2}, ()),
    "data_normal": ("pretrain", {"iterations": 2, "data": {"kind": "normal"}}, ("data",)),
    "data_mixture": ("pretrain", {"iterations": 2, "data": {"kind": "coordinate_mixture", "means": [0.0]}},
                     ("data",)),
    "grpo": ("grpo", {"trainer": TINY_TRAINER, "pretrain": TINY_PRETRAIN}, ()),
    "grpo_trainer": ("grpo", {"trainer": dict(TINY_TRAINER), "pretrain": TINY_PRETRAIN}, ("trainer",)),
    "grpo_reward": ("grpo", {"trainer": TINY_TRAINER, "pretrain": TINY_PRETRAIN, "reward": {}}, ("reward",)),
    "grpo_pretrain": ("grpo", {"trainer": TINY_TRAINER, "pretrain": dict(TINY_PRETRAIN)}, ("pretrain",)),
    "score_config": ("score", {}, ()),
    # the extra key goes into the checkpoint's policy.json
    "policy_json": ("grpo", {"trainer": dict(TINY_TRAINER, iterations=1)}, None),
}


@pytest.mark.parametrize("case", EXTRA_KEY)
def test_every_json_object_rejects_an_unknown_key(case, static_dump, tmp_path, capsys):
    command, doc, path = EXTRA_KEY[case]
    doc = json.loads(json.dumps(doc))
    if path is None:
        ckpt = tmp_path / "ckpt"
        save_policy(init_policy(synth.LATENT_DIM, 4, np.random.default_rng(0)), str(ckpt))
        write_json(ckpt / "policy.json", dict(read_json(ckpt / "policy.json"), extra=1))
        doc["init_checkpoint"] = str(ckpt)
    else:
        target = doc
        for key in path:
            target = target[key]
        target["extra"] = 1
    cfg = write_json(tmp_path / "doc.json", doc)
    out = str(tmp_path / "out")
    if command == "score":
        argv = ["score", "--input", static_dump, "--config", cfg, "--out", out]
    else:
        argv = [command, "--spec" if command == "synth" else "--config", cfg, "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and "keys: extra" in err
    assert not os.path.exists(out)


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


def test_metrics_grid_step_beyond_c_long_keeps_one_point(trans_dump, tmp_path):
    # every step of at least max(h, w) samples the lattice at (0, 0) alone
    reports = []
    for step in (10**30, 10000):
        path = tmp_path / f"m{step}.json"
        assert main(["metrics", "--input", trans_dump, "--grid-step", str(step), "--out", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    assert "only 1 usable correspondences" in reports[0].decode()


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


def test_metrics_reads_no_frame_payload(trans_dump, tmp_path, capsys):
    # score reads every payload and rejects a NaN in a frame; metrics checks
    # that frame's header and size but loads only the flow_fwd and dynamic
    # payloads, so it reports on the dump as if the frame were clean
    dump = tmp_path / "dump"
    shutil.copytree(trans_dump, dump)
    _poison(dump / "frames" / "001.gft")
    assert main(["score", "--input", str(dump), "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert "frames/001.gft" in err and "non-finite" in err
    clean, dirty = tmp_path / "clean.json", tmp_path / "dirty.json"
    assert main(["metrics", "--input", trans_dump, "--out", str(clean)]) == 0
    assert main(["metrics", "--input", str(dump), "--out", str(dirty)]) == 0
    assert dirty.read_bytes() == clean.read_bytes()


# ---------------------------------------------------------------------------
# cross-cutting

@pytest.fixture(scope="module")
def pooled_scene(pooled_fields):
    """The 96x128 fields in scene-document form."""
    k = pooled_fields["intrinsics"]
    return {"resolution": list(pooled_fields["resolution"]), "intrinsics": [k.fx, k.fy, k.cx, k.cy]}


@pytest.fixture(scope="module")
def pooled_dump(pooled_scene, tmp_path_factory):
    root = tmp_path_factory.mktemp("pooled")
    spec = write_json(
        root / "spec.json", {"geometry": "two_plane", "camera_path": TRANS_PATH, **pooled_scene}
    )
    out = str(root / "dump")
    assert main(["synth", "--spec", spec, "--out", out]) == 0
    return out


def test_score_is_thread_count_invariant(pooled_dump, tmp_path, watch_threads, monkeypatch):
    watch, off_main = watch_threads

    def report(threads):
        monkeypatch.setenv("GEOFLOW_THREADS", threads)
        path = tmp_path / f"r{threads}.json"
        assert main(["score", "--input", pooled_dump, "--out", str(path)]) == 0
        return path.read_bytes()

    serial = report("1")
    watch(reward, "score_pair")
    assert report("8") == serial
    assert off_main["score_pair"] == [True, True]


def test_cli_reports_are_thread_count_invariant_on_the_pool(pooled_scene, tmp_path, watch_threads, monkeypatch):
    """Criterion 10 at 96x128, where synth, score and grpo run every
    ordered_map stage on the pool (at 48x64 they run serially)."""
    spec = write_json(
        tmp_path / "spec.json", {"geometry": "two_plane", "camera_path": TRANS_PATH, **pooled_scene}
    )
    toy = {"depth": 2.0, "moving_object": {"center": [0.0, 0.0, 1.5], "size": 0.4}}
    grpo_cfg = write_json(tmp_path / "grpo.json", {
        "trainer": {"iterations": 2, "seed": 0},
        "pretrain": {"iterations": 100, "hidden": 8},
        "scene": {**toy, **pooled_scene},
    })
    a, b = tmp_path / "threads1", tmp_path / "threads8"

    def run(threads, root):
        monkeypatch.setenv("GEOFLOW_THREADS", threads)
        root.mkdir()
        assert main(["synth", "--spec", spec, "--out", str(root / "dump")]) == 0
        # both scoring runs read the first dump so their inputs match
        assert main(["score", "--input", str(a / "dump"), "--out", str(root / "score.json")]) == 0
        assert main(["grpo", "--config", grpo_cfg, "--out", str(root / "grpo")]) == 0

    run("1", a)
    watch, off_main = watch_threads
    for module, name in ((synth, "render_frame"), (synth, "_flow"), (reward, "score_pair"), (grpo, "latent_reward")):
        watch(module, name)
    run("8", b)

    # every call ran off the calling thread: synth's frames and flow pairs,
    # score's 2 pairs and the 2 groups of 4 members, whose decodes render too
    assert sorted(off_main) == ["_flow", "latent_reward", "render_frame", "score_pair"]
    assert all(all(flags) for flags in off_main.values())
    assert len(off_main["score_pair"]) == 2 and len(off_main["latent_reward"]) == 8
    files = [os.path.join("dump", sub, name)
             for sub in ("frames", "depth", "flow_fwd", "flow_bwd", "confidence", "dynamic")
             for name in sorted(os.listdir(a / "dump" / sub))]
    files += ["dump/cameras.json", "score.json", "grpo/metrics.jsonl", "grpo/config.json"]
    files += [os.path.join("grpo", ckpt, name) for ckpt in ("checkpoint", "checkpoint_ema")
              for name in sorted(os.listdir(a / "grpo" / ckpt))]
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs"


def test_synth_rejects_a_bad_thread_count(tmp_path, monkeypatch, capsys):
    spec = write_json(tmp_path / "spec.json", {"camera_path": STATIC_PATH})
    for threads, reason in (("x", "must be an integer"), ("-1", "must be >= 0")):
        monkeypatch.setenv("GEOFLOW_THREADS", threads)
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "dump")]) == 2
        assert f"GEOFLOW_THREADS {reason}" in capsys.readouterr().err
        assert not (tmp_path / "dump").exists()


def test_main_retains_the_heap_once_per_invocation(static_dump, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(runtime, "retain_heap", lambda: calls.append(1))
    assert main(["score", "--input", static_dump, "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1
    assert main(["score", "--input", str(tmp_path / "missing"), "--out", str(tmp_path / "m.json")]) == 2
    assert len(calls) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "georeward" in capsys.readouterr().out


def test_missing_required_argument():
    with pytest.raises(SystemExit) as exc:
        main(["score"])
    assert exc.value.code == 2
