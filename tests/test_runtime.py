"""runtime.retain_heap tunes the C allocator only where it can, and only
the CLI calls it."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from georeward import runtime


class _NoMallopt:
    pass


def _missing_library(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("cdll", [_missing_library, lambda name: _NoMallopt()])
def test_retain_heap_is_quiet_without_mallopt(cdll, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert runtime.retain_heap() is None


_LIBRARY_RUN = """
import ctypes
opened = []
real = ctypes.CDLL
ctypes.CDLL = lambda name, *a, **k: opened.append(name) or real(name, *a, **k)
import os
os.environ["GEOFLOW_THREADS"] = "2"
import numpy as np
import georeward
from georeward import PoseSE3, SceneSpec, runtime
runtime.retain_heap = lambda: opened.append("retain_heap")
path = (PoseSE3.identity(), PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0])))
georeward.render_video(SceneSpec(camera_path=path))
assert None not in opened and "retain_heap" not in opened, opened
"""


def test_library_use_leaves_the_allocator_alone():
    # a fresh interpreter, so the import itself is watched too
    src = str(Path(runtime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _LIBRARY_RUN], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
