"""The traced benchmark's wrap targets exist, and its counters read the
results the package returns.

perfbench/layers.py wraps georeward functions by module attribute and reads
fields of their results. A refactor that drops or reshapes one would
otherwise only show in a traced benchmark run. The file is imported, never
changed.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from georeward import PoseSE3, SceneSpec, render_frame, render_pair, render_video, score_pair
from georeward.synth import ObjectSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "grpo", "reward", "grid", "synth", "adapter", "policy", "runtime")


@pytest.fixture(scope="module")
def layers():
    # layers.py imports its sibling spans.py by top-level name
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_attribute_exists_and_is_callable(layers):
    mods = {name: importlib.import_module(f"georeward.{name}") for name in MODULES}
    rows = layers.targets(mods)
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
