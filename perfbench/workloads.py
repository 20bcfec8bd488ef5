"""The three benchmark workloads: how each builds its inputs from the seed,
which `georeward` commands make up one operation, and how its outputs are
checked.

Every command goes through `georeward.cli.main`, the entry point users
call. One caller runs the commands one after another (a closed loop).
"""

import hashlib
import json
import math
import os
import shutil

# The scored / synthesized video: 9 frames at 256x320 over a depth step with
# a moving quad; a float64 RGB frame is 256*320*3*8 = 1.97 MB.
HIRES = (256, 320)
HIRES_FRAMES = 9
# Wobble, drift, morph and depth noise together, so every corruption path of
# the renderer runs.
HIRES_PERTURB = {
    "wobble_px": 1.0,
    "texture_drift_px": 0.5,
    "object_morph": 1.05,
    "depth_noise_rel": 0.01,
}
TOY = (48, 64)
TRAIN_ITERATIONS = 10


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(root, skip=("manifest.json",)):
    """sha256 over (relative path, file sha256) of every file under root,
    except run manifests, which carry a wall-clock duration."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(_sha256_file(path).encode() + b"\n")
    return h.hexdigest()


def _dump(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def hires_scene(seed):
    h, w = HIRES
    return {
        "geometry": "two_plane",
        "depth": 2.0,
        "depth2": 3.0,
        "split_x": 0.0,
        "texture_seed": seed,
        "texture_freq": 4.0,
        "resolution": [h, w],
        "intrinsics": [400.0, 400.0, (w - 1) / 2.0, (h - 1) / 2.0],
        "camera_path": {"kind": "linear", "frames": HIRES_FRAMES, "velocity": [0.02, 0.0, 0.0]},
        "moving_object": {"center": [0.3, 0.0, 1.5], "size": 0.4, "velocity": [-0.01, 0.0, 0.0]},
    }


def synth_argv(spec_path, seed, out, perturb=HIRES_PERTURB):
    argv = ["synth", "--spec", spec_path, "--seed", str(seed), "--stride", "1", "--out", out]
    for key, value in perturb.items():
        argv += ["--perturb", f"{key}={value}"]
    return argv


class Workload:
    """One workload. `setup` builds inputs in `work` and returns a digest of
    them; `commands` gives the (label, argv) list of one operation writing
    into `out`; `check` returns (digests, problems) for that operation;
    `report` maps the per-command timings of the operations to the
    workload's named end-to-end metrics, {name: (values, unit)}. The
    runner sets `pkg` to the imported georeward package."""

    name = ""
    why = ""
    resolution = TOY

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed

    def sizes(self, l2_bytes):
        h, w = self.resolution
        image = h * w * 3 * 8
        # two frames, two depths, two flows and a confidence map: what one
        # scored pair touches
        pair = 2 * image + 2 * h * w * 8 + 2 * h * w * 2 * 8 + h * w * 8
        return {
            "resolution": [h, w],
            "image_bytes": image,
            "pair_working_set_bytes": pair,
            "image_over_l2": image / l2_bytes if l2_bytes else None,
            "pair_over_l2": pair / l2_bytes if l2_bytes else None,
        }

    def after_run(self, main):
        """Checks made once per run, outside the timed region."""
        return []


class TrainToy(Workload):
    name = "train_toy"
    why = "GRPO training loop on the 48x64 toy scene; renderer, policy and grpo do the work and arrays fit in L2"

    def setup(self, main):
        pre = os.path.join(self.work, "pretrain")
        shutil.rmtree(pre, ignore_errors=True)
        cfg = os.path.join(self.work, "pretrain.json")
        _dump({"seed": self.seed}, cfg)
        if main(["pretrain", "--config", cfg, "--out", pre]) != 0:
            raise RuntimeError("pretrain failed during set-up")
        self.config = os.path.join(self.work, "grpo.json")
        scene = {
            "geometry": "plane",
            "depth": 2.0,
            "texture_seed": self.seed,
            "moving_object": {"center": [0.0, 0.0, 1.5], "size": 0.4, "velocity": [0.0, 0.0, 0.0]},
        }
        _dump(
            {
                "trainer": {"iterations": TRAIN_ITERATIONS, "seed": self.seed},
                "init_checkpoint": os.path.join(pre, "checkpoint"),
                "scene": scene,
            },
            self.config,
        )
        return tree_digest(os.path.join(pre, "checkpoint"))

    def commands(self, out):
        return [("grpo", ["grpo", "--config", self.config, "--out", out])]

    def report(self, times):
        return {"train_iter_per_s": ([TRAIN_ITERATIONS / sum(t.values()) for t in times], "1/s")}

    def check(self, out):
        problems = []
        path = os.path.join(out, "metrics.jsonl")
        with open(path) as f:
            rows = [json.loads(line) for line in f]
        if len(rows) != TRAIN_ITERATIONS:
            problems.append(f"metrics.jsonl has {len(rows)} rows, expected {TRAIN_ITERATIONS}")
        for row in rows:
            if not all(math.isfinite(v) for v in row.values()):
                problems.append(f"non-finite value in row {row}")
            if not -1.5 <= row["reward_mean"] <= 0.0:
                problems.append(f"reward_mean {row['reward_mean']} outside [-1.5, 0]")
        digests = {
            "metrics.jsonl": _sha256_file(path),
            "checkpoint": tree_digest(os.path.join(out, "checkpoint")),
        }
        return digests, problems


class EvalHires(Workload):
    name = "eval_hires"
    why = "score then metrics on a perturbed 9-frame 256x320 dump; reward, camera, grid sampling, metrics and GFT reads, no rendering"
    resolution = HIRES

    def setup(self, main):
        self.spec = os.path.join(self.work, "scene.json")
        _dump(hires_scene(self.seed), self.spec)
        self.dump = os.path.join(self.work, "dump")
        shutil.rmtree(self.dump, ignore_errors=True)
        if main(synth_argv(self.spec, self.seed, self.dump)) != 0:
            raise RuntimeError("synth failed during set-up")
        return tree_digest(self.dump)

    def commands(self, out):
        return [
            ("score", ["score", "--input", self.dump, "--out", os.path.join(out, "score.json")]),
            (
                "metrics",
                [
                    "metrics",
                    "--input",
                    self.dump,
                    "--stride",
                    "1",
                    "--grid-step",
                    "8",
                    "--out",
                    os.path.join(out, "metrics.json"),
                ],
            ),
        ]

    def report(self, times):
        return {
            "eval_score_s": ([t["score"] for t in times], "s"),
            "eval_metrics_s": ([t["metrics"] for t in times], "s"),
        }

    def check(self, out):
        problems = []
        score_path = os.path.join(out, "score.json")
        metrics_path = os.path.join(out, "metrics.json")
        with open(score_path) as f:
            score = json.load(f)
        with open(metrics_path) as f:
            report = json.load(f)
        pairs = score["pairs"]
        if len(pairs) != HIRES_FRAMES - 1:
            problems.append(f"score has {len(pairs)} pairs, expected {HIRES_FRAMES - 1}")
        for p in pairs:
            if not -1.5 <= p["r_pair"] <= 0.0:
                problems.append(f"r_pair {p['r_pair']} outside [-1.5, 0]")
        # the oracle flow is exact on static pixels, so the epipolar residual
        # is at rounding level
        if report["sampson_mean"] is None or not report["sampson_mean"] < 1e-6:
            problems.append(f"sampson_mean {report['sampson_mean']} is not below 1e-6")
        self.r_video = score["r_video"]  # compared with a clean render in after_run
        digests = {"score.json": _sha256_file(score_path), "metrics.json": _sha256_file(metrics_path)}
        return digests, problems

    def after_run(self, main):
        """A clean render of the same scene must outscore the perturbed dump."""
        clean = os.path.join(self.work, "clean")
        shutil.rmtree(clean, ignore_errors=True)
        report = os.path.join(self.work, "clean_score.json")
        if main(synth_argv(self.spec, self.seed, clean, perturb={})) != 0:
            return ["clean synth failed"]
        if main(["score", "--input", clean, "--out", report]) != 0:
            return ["scoring the clean render failed"]
        with open(report) as f:
            r_clean = json.load(f)["r_video"]
        shutil.rmtree(clean)
        if not r_clean > self.r_video:
            return [f"clean render scores {r_clean}, not above the perturbed {self.r_video}"]
        return []


class SynthHires(Workload):
    name = "synth_hires"
    why = "synth of the same 9-frame 256x320 perturbed scene into a fresh directory; renderer warps and GFT writes, no scoring"
    resolution = HIRES

    def setup(self, main):
        self.spec = os.path.join(self.work, "scene.json")
        _dump(hires_scene(self.seed), self.spec)
        return None

    def commands(self, out):
        return [("synth", synth_argv(self.spec, self.seed, os.path.join(out, "dump")))]

    def report(self, times):
        return {"synth_frames_per_s": ([HIRES_FRAMES / sum(t.values()) for t in times], "1/s")}

    def check(self, out):
        problems = []
        dump = os.path.join(out, "dump")
        try:
            frames = len(self.pkg.adapter.read_bundle(dump))
        except self.pkg.errors.GeoRewardError as exc:
            problems.append(f"dump fails read_bundle: {exc}")
        else:
            if frames != HIRES_FRAMES:
                problems.append(f"dump holds {frames} frames, expected {HIRES_FRAMES}")
        return {"dump": tree_digest(dump)}, problems


WORKLOADS = {w.name: w for w in (TrainToy, EvalHires, SynthHires)}
