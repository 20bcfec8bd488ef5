"""runtime.ordered_map, the package's one fan-out, pools only tasks large
enough to gain from it, and iterating a lazy sequence does not pool;
runtime.retain_heap tunes the C allocator only where it can, and only the
CLI calls it."""

import ctypes
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from georeward import runtime
from georeward.adapter import Lazy


def _thread_of(i):
    return threading.get_ident()


def test_tasks_below_the_threshold_run_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("GEOFLOW_THREADS", "4")
    tasks = runtime.Tasks(range(6), runtime._POOL_MIN_PIXELS - 1)
    assert runtime.ordered_map(_thread_of, tasks) == [threading.get_ident()] * 6


def test_tasks_at_the_threshold_run_on_pool_threads(monkeypatch):
    monkeypatch.setenv("GEOFLOW_THREADS", "2")
    threads = runtime.ordered_map(_thread_of, runtime.Tasks(range(6), runtime._POOL_MIN_PIXELS))
    assert len(threads) == 6 and threading.get_ident() not in threads


def test_pool_still_obeys_the_thread_cap(monkeypatch):
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    tasks = runtime.Tasks(range(3), 10 * runtime._POOL_MIN_PIXELS)
    assert runtime.ordered_map(_thread_of, tasks) == [threading.get_ident()] * 3


def test_pooled_results_keep_item_order(monkeypatch):
    monkeypatch.setenv("GEOFLOW_THREADS", "2")

    def late_first(i):
        # the first items finish last
        time.sleep(0.01 * (5 - i))
        return i * i

    assert runtime.ordered_map(late_first, runtime.Tasks(range(6), runtime._POOL_MIN_PIXELS)) == [
        0, 1, 4, 9, 16, 25
    ]


def test_iterating_a_lazy_sequence_stays_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("GEOFLOW_THREADS", "4")
    lazy = Lazy(_thread_of, range(6), (96, 128))  # pool-sized entries
    assert list(lazy) == [threading.get_ident()] * 6


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
from georeward import Intrinsics, PoseSE3, SceneSpec, runtime
runtime.retain_heap = lambda: opened.append("retain_heap")
path = (PoseSE3.identity(), PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0])))
# 96x128, so the frames render on the pool
pooled = {"resolution": (96, 128), "intrinsics": Intrinsics(200.0, 200.0, 63.5, 47.5)}
georeward.render_video(SceneSpec(camera_path=path, **pooled))
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
