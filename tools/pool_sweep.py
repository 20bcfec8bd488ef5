#!/usr/bin/env python3
"""Pool/serial crossover sweep behind runtime._POOL_MIN_PIXELS.

    python3 tools/pool_sweep.py --reps 15 > sweep.json

Times the runtime.ordered_map stages at several frame sizes, once with
the stage forced onto a 2-worker pool (the pixel gate set to 0) and once
serially (GEOFLOW_THREADS=1), interleaved, and prints one JSON object:
per stage and size, the median seconds of each side and pool / serial. A
ratio below 1 means the pool pays off at that task size. The stages are
one GRPO group (4 members, each a rollout and a latent reward), synth
(render_video's traces, then write_bundle shading each frame and computing
and saving each tensor into a temporary directory, which it empties
first), and score_video's pairs, over a bundle whose images are rendered
ahead, so that stage times scoring alone. synth and score_video are also
swept at the benchmark's 256x320, where a score pair runs in three row
bands (grid._BAND_PIXELS). Like the CLI, the process keeps one malloc heap
(runtime.retain_heap). The package is imported from src/ of this checkout.
"""

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from georeward import (  # noqa: E402
    Intrinsics,
    PerturbationSpec,
    PolicySnapshot,
    PoseSE3,
    SceneSpec,
    TrainerConfig,
    init_policy,
    render_video,
    sample_group,
    score_video,
    toy_scene,
    write_bundle,
)
from georeward import runtime  # noqa: E402
from georeward.synth import ObjectSpec  # noqa: E402

# 48x64 is the toy size; the others keep its 3:4 aspect and scale its
# intrinsics with the width. Each size names the stages swept at it.
SIZES = tuple(((h, w), None) for h, w in ((48, 64), (72, 96), (96, 128), (128, 160))) + (
    ((256, 320), {"synth", "score_video"}),
)
FRAMES = 5
PERTURB = PerturbationSpec(wobble_px=1.0, texture_drift_px=0.5, object_morph=1.05, depth_noise_rel=0.01)


def _fields(h, w):
    s = w / 64.0
    return {"resolution": (h, w), "intrinsics": Intrinsics(100.0 * s, 100.0 * s, (w - 1) / 2.0, (h - 1) / 2.0)}


def _synth(scene, root):
    """The synth command's work, written to root/dump."""
    shutil.rmtree(root / "dump", ignore_errors=True)
    write_bundle(root / "dump", render_video(scene, PERTURB, seed=1))


def stages(h, w, root):
    """{stage name: zero-argument callable} at frame size h x w; synth
    writes under the directory root."""
    path = tuple(PoseSE3(np.eye(3), np.array([0.02 * i, 0.0, 0.0])) for i in range(FRAMES))
    scene = SceneSpec(
        geometry="two_plane",
        camera_path=path,
        moving_object=ObjectSpec(center=(0.3, 0.0, 1.5), size=0.4, velocity=(-0.01, 0.0, 0.0)),
        **_fields(h, w),
    )
    video = render_video(scene, PERTURB, seed=1)
    video = dataclasses.replace(video, images=list(video.images))  # shaded here, not in score_video's timing
    template = dataclasses.replace(toy_scene(), **_fields(h, w))
    snapshot = PolicySnapshot.from_policy(init_policy(4, 32, np.random.default_rng(1)))
    config = TrainerConfig(group_size=4, seed=1)
    return {
        "grpo_group_x4": lambda: sample_group(snapshot, template, config, np.random.default_rng(1)),
        "synth": lambda: _synth(scene, root),
        "score_video": lambda: score_video(video),
    }


def _timed(fn, threads):
    os.environ["GEOFLOW_THREADS"] = threads
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=15, help="timed pairs per stage and size")
    args = p.parse_args(argv)
    runtime.retain_heap()
    gate = runtime._POOL_MIN_PIXELS
    runtime._POOL_MIN_PIXELS = 0
    rows = []
    root = tempfile.TemporaryDirectory()
    try:
        for (h, w), names in SIZES:
            for name, fn in stages(h, w, Path(root.name)).items():
                if names is not None and name not in names:
                    continue
                fn()  # warm-up
                pool, serial = [], []
                for rep in range(args.reps):
                    # alternate which side runs first
                    order = (("2", pool), ("1", serial))
                    for threads, out in order if rep % 2 == 0 else order[::-1]:
                        out.append(_timed(fn, threads))
                row = {
                    "stage": name,
                    "resolution": [h, w],
                    "pixels": h * w,
                    "pool_s": statistics.median(pool),
                    "serial_s": statistics.median(serial),
                }
                row["pool_over_serial"] = round(row["pool_s"] / row["serial_s"], 3)
                rows.append(row)
                print(json.dumps(row), file=sys.stderr)
    finally:
        runtime._POOL_MIN_PIXELS = gate
        root.cleanup()
    print(json.dumps({
        "cpu_count": os.cpu_count(),
        "pool_threads": 2,
        "reps": args.reps,
        "frames": FRAMES,
        "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
