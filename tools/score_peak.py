#!/usr/bin/env python3
"""Peak memory of fresh `synth` and `score` processes, for two checkouts
and several clip lengths.

    python3 tools/score_peak.py --parent ../parent --change . > peaks.json

For each frame count (9, 17 and 33 by default), takes the eval_hires scene
of the benchmark (256x320, every perturbation on, seed --seed) with that
many frames. It runs `python -m georeward.cli synth` on it in a fresh
process per run, alternating which checkout runs first, and checks that
every dump of both checkouts is byte-identical (manifests aside, which
carry a duration). Then it runs `python -m georeward.cli score` on the
change's dump the same way. Each process imports the package from its own
checkout's src/. Its peak resident set comes from the kernel's rusage for
that child (os.wait4), so the tool measures each command exactly as a user
runs it: imports, the work and the outputs.

Prints each run to stderr and one JSON document to stdout: per command and
frame count, every run's peak in MB (KiB / 1024, as perfbench reports
peak_rss_mb), each side's median, and whether both checkouts wrote
byte-identical outputs; per command and side, the growth of the median
peak per frame between the shortest and the longest clip.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_cli(checkout, argv, workdir):
    """Run `python -m georeward.cli argv` from checkout's src/; returns
    its peak RSS in MB. Raises RuntimeError when the command fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen([sys.executable, "-m", "georeward.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {err.read().decode().strip()}")
    return usage.ru_maxrss / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--frames", type=int, nargs="+", default=[9, 17, 33], help="clip lengths")
    p.add_argument("--runs", type=int, default=5, help="runs per command, checkout and clip length")
    p.add_argument("--seed", type=int, default=1, help="benchmark seed of the scene")
    args = p.parse_args(argv)

    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    sys.path.insert(0, str(sides["change"] / "perfbench"))
    from workloads import hires_scene, synth_argv, tree_digest  # the benchmark's own scene and perturbation

    doc = {
        "command": ("python -m georeward.cli synth --spec <scene> --out <dump> (benchmark perturbation), then "
                    "python -m georeward.cli score --input <change's dump> --out <report>, one fresh process per run"),
        "protocol": (f"{args.runs} runs per command, checkout and clip length, alternating which checkout runs "
                     f"first; eval_hires scene at seed {args.seed}"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "GEOFLOW_THREADS": os.environ.get("GEOFLOW_THREADS", "unset"),
        },
        "frames": {},
    }

    def measure(label, frames, argv_of, output_of):
        """Run argv_of(side, run) for both checkouts, alternating; returns
        the row of peaks and whether every output_of(side, run) matched."""
        peaks, outputs = {"parent": [], "change": []}, set()
        for i in range(args.runs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                peaks[side].append(run_cli(sides[side], argv_of(side, i), work))
                outputs.add(output_of(side, i))
                print(f"{label} {frames} frames run {i} {side}: {peaks[side][-1]:.1f} MB", file=sys.stderr)
        row = {f"{side}_median_mb": statistics.median(v) for side, v in peaks.items()}
        row["change_over_parent"] = row["change_median_mb"] / row["parent_median_mb"]
        row["outputs_identical"] = len(outputs) == 1
        row.update({f"{side}_runs_mb": v for side, v in peaks.items()})
        print(f"{label} {frames} frames: parent {row['parent_median_mb']:.1f} MB, "
              f"change {row['change_median_mb']:.1f} MB, ratio {row['change_over_parent']:.3f}, "
              f"outputs identical: {row['outputs_identical']}", file=sys.stderr)
        return row

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for frames in args.frames:
            scene = hires_scene(args.seed)
            scene["camera_path"]["frames"] = frames
            spec = work / f"scene_{frames}.json"
            spec.write_text(json.dumps(scene))

            def dump(side, i):
                return work / f"dump_{frames}_{side}_{i}"

            synth = measure("synth", frames, lambda side, i: synth_argv(str(spec), args.seed, str(dump(side, i))),
                            lambda side, i: tree_digest(str(dump(side, i))))
            scored = dump("change", 0)

            def report(side, i):
                return work / f"report_{frames}_{side}_{i}.json"

            score = measure("score", frames,
                            lambda side, i: ["score", "--input", str(scored), "--out", str(report(side, i))],
                            lambda side, i: report(side, i).read_bytes())
            doc["frames"][str(frames)] = {"synth": synth, "score": score}
            for i in range(args.runs):
                for side in sides:
                    shutil.rmtree(dump(side, i))
    first, last = str(min(args.frames)), str(max(args.frames))
    if first != last:
        span = int(last) - int(first)
        doc["mb_per_frame"] = {
            command: {side: (doc["frames"][last][command][f"{side}_median_mb"]
                             - doc["frames"][first][command][f"{side}_median_mb"]) / span for side in sides}
            for command in ("synth", "score")
        }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
