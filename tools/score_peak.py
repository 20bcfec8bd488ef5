#!/usr/bin/env python3
"""Peak memory of a fresh `score` process, for two checkouts and several
clip lengths.

    python3 tools/score_peak.py --parent ../parent --change . > peaks.json

For each frame count (9, 17 and 33 by default), synthesizes the eval_hires
scene of the benchmark (256x320, every perturbation on, seed --seed) with
that many frames, using the change's checkout, then runs
`python -m georeward.cli score` on the dump in a fresh process per run,
alternating which checkout runs first. Each process imports the package
from its own checkout's src/. Its peak resident set comes from the kernel's
rusage for that child (os.wait4), so the tool measures `score` exactly as
a user runs it: imports, the read, the scoring and the report.

Prints each run to stderr and one JSON document to stdout: per frame
count, every run's peak in MB (KiB / 1024, as perfbench reports
peak_rss_mb), each side's median, and whether both checkouts wrote
byte-identical reports.
"""

import argparse
import json
import os
import platform
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
    p.add_argument("--runs", type=int, default=5, help="score runs per checkout and clip length")
    p.add_argument("--seed", type=int, default=1, help="benchmark seed of the scene")
    args = p.parse_args(argv)

    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    sys.path.insert(0, str(sides["change"] / "perfbench"))
    from workloads import hires_scene, synth_argv  # the benchmark's own scene and perturbation

    doc = {
        "command": "python -m georeward.cli score --input <dump> --out <report>, one fresh process per run",
        "protocol": (f"{args.runs} runs per checkout and clip length, alternating which checkout runs first; "
                     f"eval_hires scene at seed {args.seed}, synthesized by the change's checkout"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "GEOFLOW_THREADS": os.environ.get("GEOFLOW_THREADS", "unset"),
        },
        "frames": {},
    }
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for frames in args.frames:
            scene = hires_scene(args.seed)
            scene["camera_path"]["frames"] = frames
            spec, dump = work / f"scene_{frames}.json", work / f"dump_{frames}"
            spec.write_text(json.dumps(scene))
            run_cli(sides["change"], synth_argv(str(spec), args.seed, str(dump)), work)
            peaks = {"parent": [], "change": []}
            reports = {}
            for i in range(args.runs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    report = work / f"{side}_{frames}.json"
                    peaks[side].append(run_cli(sides[side], ["score", "--input", str(dump), "--out", str(report)],
                                               work))
                    reports.setdefault(side, set()).add(report.read_bytes())
                    print(f"{frames} frames run {i} {side}: {peaks[side][-1]:.1f} MB", file=sys.stderr)
            row = {f"{side}_median_mb": statistics.median(v) for side, v in peaks.items()}
            row["change_over_parent"] = row["change_median_mb"] / row["parent_median_mb"]
            row["reports_identical"] = len(reports["parent"] | reports["change"]) == 1
            row.update({f"{side}_runs_mb": v for side, v in peaks.items()})
            doc["frames"][str(frames)] = row
            print(f"{frames} frames: parent {row['parent_median_mb']:.1f} MB, change {row['change_median_mb']:.1f} MB, "
                  f"ratio {row['change_over_parent']:.3f}, reports identical: {row['reports_identical']}",
                  file=sys.stderr)
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
