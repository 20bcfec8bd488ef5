"""The traced benchmark's wrap targets exist, are called by the commands
it traces, and its counters read the results the package returns.

perfbench/layers.py wraps georeward functions by module attribute and reads
fields of their results. A refactor that drops, reshapes or stops calling
one would otherwise only show in a traced benchmark run. The perfbench
files are imported, never changed.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from georeward import PoseSE3, SceneSpec, render_frame, render_pair, render_video, score_pair
from georeward.cli import main
from georeward.synth import ObjectSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "grpo", "reward", "grid", "synth", "adapter", "policy", "runtime")


def _import_perfbench(name):
    # layers.py imports its sibling spans.py by top-level name
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def layers():
    return _import_perfbench("layers")


@pytest.fixture(scope="module")
def spans():
    return _import_perfbench("spans")


def _modules():
    return {name: importlib.import_module(f"georeward.{name}") for name in MODULES}


def test_every_wrapped_attribute_exists_and_is_callable(layers):
    rows = layers.targets(_modules())
    assert rows
    for module, attr, span, _ in rows:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {span})"


def test_counters_read_real_results(layers):
    spec = SceneSpec(
        camera_path=(PoseSE3.identity(), PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0]))),
        moving_object=ObjectSpec(center=(0.0, 0.0, 1.5), size=0.4, velocity=(0.03, 0.0, 0.0)),
    )
    h, w = spec.resolution
    assert layers._count_frame((spec, 0), {}, render_frame(spec, 0)) == {"pixels": h * w}
    pair = render_pair(spec, 0)
    assert layers._count_pair((spec, 0), {}, pair) == {"pixels": 2 * h * w}
    assert layers._count_video((spec,), {}, render_video(spec)) == {"pixels": 2 * h * w}
    counts = layers._count_score((pair,), {}, score_pair(pair))
    assert counts["scored"] == h * w
    assert 0 < counts["omega"] <= h * w


def test_traced_commands_feed_every_timed_layer_metric(layers, spans, tmp_path):
    """Each workload's commands, on a 48x64 scene, traced on their own with
    the traced run's wrappers after an untraced set-up: every timed metric
    of that workload gets a span, and each GRPO group maps its members in
    one runtime.ordered_map call."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "geometry": "two_plane",
        "camera_path": {"kind": "linear", "velocity": [0.1, 0.0, 0.0], "frames": 3},
        "moving_object": {"center": [0.2, 0.0, 1.5], "size": 0.4, "velocity": [-0.01, 0.0, 0.0]},
    }))
    pretrain_cfg = tmp_path / "pretrain.json"
    pretrain_cfg.write_text(json.dumps({"iterations": 20}))
    grpo_cfg = tmp_path / "grpo.json"
    grpo_cfg.write_text(json.dumps({
        "trainer": {"iterations": 2},
        "init_checkpoint": str(tmp_path / "pretrain" / "checkpoint"),
    }))
    perturb = ["wobble_px=1.0", "texture_drift_px=0.5", "object_morph=1.05", "depth_noise_rel=0.01"]
    dump = str(tmp_path / "dump")

    def synth(out):
        return ["synth", "--spec", str(spec), "--out", out] + [a for p in perturb for a in ("--perturb", p)]

    # (set-up commands, traced commands) per workload, as perfbench/workloads.py runs them
    workloads = {
        "train_toy": (
            [["pretrain", "--config", str(pretrain_cfg), "--out", str(tmp_path / "pretrain")]],
            [["grpo", "--config", str(grpo_cfg), "--out", str(tmp_path / "grpo")]],
        ),
        "eval_hires": (
            [synth(dump)],
            [
                ["score", "--input", dump, "--out", str(tmp_path / "score.json")],
                ["metrics", "--input", dump, "--out", str(tmp_path / "metrics.json")],
            ],
        ),
        "synth_hires": ([], [synth(str(tmp_path / "synth"))]),
    }
    assert sorted(workloads) == sorted(layers.LAYER_METRICS)
    targets = layers.targets(_modules())
    for workload, (setup, commands) in workloads.items():
        for argv in setup:
            assert main(argv) == 0, argv[0]
        tracer = spans.Tracer()
        with spans.Patch(tracer, targets):
            for argv in commands:
                assert main(argv) == 0, argv[0]
        spans.assert_unwrapped(targets)

        traced = {s.name for s in tracer.spans}
        timed = {
            stem
            for stem, _, kind in (m.rpartition(".") for m in layers.LAYER_METRICS[workload])
            if kind in ("ms", "self_ms")
        }
        assert sorted(timed - traced) == [], workload
        if workload == "train_toy":
            names = {s.sid: s.name for s in tracer.spans}
            groups = [s.sid for s in tracer.spans if s.name == "grpo.sample_group"]
            group_maps = [
                s.parent
                for s in tracer.spans
                if s.name == "runtime.ordered_map" and names.get(s.parent) == "grpo.sample_group"
            ]
            assert len(groups) == 2
            assert sorted(group_maps) == sorted(groups)
