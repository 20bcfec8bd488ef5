#!/usr/bin/env python3
"""Smoke test of the benchmark: about a minute on two cores.

    python3 perfbench/smoke.py

Runs each workload once at minimal length, then one traced run, and checks
that every run is correct, that the last line carries exactly the metrics
BENCHMARK.json names, and that the report lines name every end-to-end
metric of the workload. Last, it checks that the benchmark fails without a
result in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when all of that holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Named end-to-end metrics each workload prints in its report lines.
REPORTED = {
    "train_toy": ("train_iter_per_s", "setup_s", "peak_rss_mb", "fail_frac"),
    "eval_hires": ("eval_score_s", "eval_metrics_s", "setup_s", "peak_rss_mb", "fail_frac"),
    "synth_hires": ("synth_frames_per_s", "setup_s", "peak_rss_mb", "fail_frac"),
}


def run(cwd, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    expected_layers = {f"{w}.{m}": layers.unit_of(m) for w, ms in layers.LAYER_METRICS.items() for m in ms}
    declared_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared_layers != expected_layers:
        problems.append("BENCHMARK.json per_layer does not match layers.LAYER_METRICS")
    if [w["name"] for w in bench["workloads"]] != list(REPORTED):
        problems.append("BENCHMARK.json workloads do not match the benchmark's")

    runs = [(w, 0, {m["name"]: m["unit"] for m in bench["end_to_end"]}) for w in REPORTED]
    runs.append((bench["workloads"][0]["name"], 1, declared_layers))
    for workload, trace, wanted in runs:
        proc = run(ROOT, workload, trace)
        label = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{label}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted:
            problems.append(f"{label}: metrics {sorted(got)} != {sorted(wanted)}")
        if trace == 0:
            printed = {line.split()[1] for line in lines if line.startswith("metric ")}
            missing = set(REPORTED[workload]) - printed
            if missing:
                problems.append(f"{label}: report lines miss {sorted(missing)}")
        print(f"{label}: exit 0, {len(got)} metrics")

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "train_toy", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without src/ did not fail cleanly")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAILED: {p}")
    print("smoke test passed" if not problems else "smoke test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
