"""Seeded fuzzing of every document and tensor the CLI reads.

Each case mutates one input (a cameras.json value, a tensor's shape, dtype
or header bytes, or one value of a trainer, pretrain or scene document),
runs the subcommand that reads it through cli.main, and requires a clean
exit: 0, 2 (input) or 3 (numeric), never an uncaught exception; a key
added to an object of a trainer, pretrain or scene document must exit 2. The
mutations come from fixed seeds, so a failure reproduces exactly.
"""

import copy
import json
import os
import shutil

import numpy as np
import pytest

from georeward import load_tensor, save_tensor
from georeward.cli import main

# Replacement values: wrong JSON types, boundary numbers and short lists.
# Integers stay small and {} is left out, so a mutated document can never
# ask for a long run (an empty trainer object means 200 iterations).
JUNK = [None, True, False, -3, -1, 0, 1, 2, -0.5, 0.0, 0.25, 2.5, 1e300, "a", "",
        [], [1], [0, 0], [-1, 2, 3], ["a", "b"], [[1]], {"a": 1}]

SCENE = {
    "geometry": "two_plane",
    "resolution": [32, 40],
    "camera_path": {"kind": "linear", "velocity": [0.05, 0.0, 0.0], "frames": 3},
    "moving_object": {"center": [0.0, 0.0, 1.5], "size": 0.5, "velocity": [0.0, 0.03, 0.0]},
}
PRETRAIN = {"iterations": 3, "hidden": 4, "batch_size": 8, "seed": 2,
            "data": {"kind": "normal", "mean": 0.5, "std": 1.0}}
GRPO = {
    "trainer": {"group_size": 2, "steps": 2, "grad_window": 1, "iterations": 1, "seed": 1},
    "pretrain": {"iterations": 2, "hidden": 4, "batch_size": 4},
}
TENSOR_DIRS = ("frames", "depth", "flow_fwd", "flow_bwd", "confidence", "features", "dynamic")
CASES = 40
# absurd values such as 1e300 overflow on purpose; only the exit code counts
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _paths(doc, prefix=()):
    """Every key path below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, rng, delete):
    """Replace, delete or add one value somewhere below the root."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    path = paths[rng.integers(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = JUNK[rng.integers(len(JUNK))]
    action = rng.choice(["replace", "add", "delete"], p=[0.6, 0.2, 0.2] if delete else [0.75, 0.25, 0.0])
    if action == "replace":
        parent[path[-1]] = value
    elif action == "add":
        if isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.append(value)
            action = "append"
    else:
        del parent[path[-1]]
    return doc, f"{action} {'/'.join(map(str, path))} {value!r}"


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


def _run(argv, label, failures, codes=(0, 2, 3)):
    try:
        code = main(argv)
    except Exception as exc:  # the point of the test: nothing may escape main
        failures.append(f"{label}: {argv[0]} raised {type(exc).__name__}: {exc}")
        return
    if code not in codes:
        failures.append(f"{label}: {argv[0]} exited {code}")


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """A 3-frame dump with every optional directory, features included."""
    root = tmp_path_factory.mktemp("fuzz")
    out = str(root / "dump")
    assert main(["synth", "--spec", _write_json(root / "spec.json", SCENE), "--out", out]) == 0
    rng = np.random.default_rng(0)
    os.makedirs(os.path.join(out, "features"))
    for i in range(3):
        save_tensor(rng.standard_normal((4, 5, 6)), os.path.join(out, "features", f"{i:03d}.gft"))
    return out


def _mutate_tensor(path, rng):
    """Rewrite one tensor file with another shape, dtype or scale, or
    damage its header or length."""
    kind = ("shape", "dtype", "scale", "header", "truncate")[rng.integers(5)]
    arr = load_tensor(path)
    dtype = (np.uint8, np.float32, np.float64)[rng.integers(3)]
    if kind == "shape":
        shape = tuple(int(rng.choice([1, 2, 3, 5, 32, 40])) for _ in range(rng.integers(1, 5)))
        save_tensor(rng.uniform(-2.0, 2.0, shape).astype(dtype), path)
    elif kind == "dtype":
        save_tensor(np.clip(arr, 0, 255).astype(dtype) if dtype == np.uint8 else arr.astype(dtype), path)
    elif kind == "scale":
        factor = float(rng.choice([-1.0, 0.0, 1e-300, 1e150, 1e300]))
        save_tensor(np.clip(arr.astype(np.float64) * factor, -1e300, 1e300), path)
    else:
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        if kind == "header":
            blob[rng.integers(8 + 8 * arr.ndim)] = rng.integers(256)
        else:
            del blob[rng.integers(len(blob)):]
        with open(path, "wb") as f:
            f.write(bytes(blob))
    return f"{kind} {dtype.__name__}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_dump_tensors(dump, tmp_path, seed):
    rng = np.random.default_rng([seed, 1])
    failures = []
    for case in range(CASES):
        root = str(tmp_path / f"d{case}")
        shutil.copytree(dump, root)
        sub = TENSOR_DIRS[rng.integers(len(TENSOR_DIRS))]
        names = sorted(os.listdir(os.path.join(root, sub)))
        name = names[rng.integers(len(names))]
        label = f"seed {seed} case {case} {sub}/{name} " + _mutate_tensor(os.path.join(root, sub, name), rng)
        _run(["score", "--input", root, "--out", os.path.join(root, "s.json")], label, failures)
        _run(["metrics", "--input", root, "--out", os.path.join(root, "m.json")], label, failures)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_cameras_json(dump, tmp_path, seed):
    rng = np.random.default_rng([seed, 2])
    with open(os.path.join(dump, "cameras.json")) as f:
        cameras = json.load(f)
    failures = []
    for case in range(CASES):
        root = str(tmp_path / f"d{case}")
        shutil.copytree(dump, root)
        doc, what = _mutate(cameras, rng, delete=True)
        _write_json(os.path.join(root, "cameras.json"), doc)
        label = f"seed {seed} case {case} cameras.json {what}"
        _run(["score", "--input", root, "--out", os.path.join(root, "s.json")], label, failures)
        _run(["metrics", "--input", root, "--out", os.path.join(root, "m.json")], label, failures)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "command,base,delete",
    [("synth", SCENE, True), ("pretrain", PRETRAIN, False), ("grpo", GRPO, False)],
    ids=["synth", "pretrain", "grpo"],
)
def test_fuzz_config_documents(tmp_path, command, base, delete, seed):
    # deleting a trainer or pretrain key falls back to a long default run,
    # so those documents only get values replaced or added
    rng = np.random.default_rng([seed, 3, len(base)])
    failures = []
    for case in range(CASES):
        doc, what = _mutate(base, rng, delete)
        path = _write_json(tmp_path / f"doc{case}.json", doc)
        out = str(tmp_path / f"o{case}")
        argv = [command, "--spec" if command == "synth" else "--config", path, "--out", out]
        if command == "synth" and case % 4 == 0:
            argv += ["--seed", "-1", "--perturb", "depth_noise_rel=0.1"]
        # every object of these documents rejects an unknown key
        codes = (2,) if what.startswith("add ") else (0, 2, 3)
        _run(argv, f"case {case} {command} {what}", failures, codes)
    assert not failures, "\n".join(failures)
