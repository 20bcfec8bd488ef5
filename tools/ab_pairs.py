#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark between two checkouts.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload eval_hires --pairs 10 --seed0 31 --what "..." > ab.json

For each workload, runs `perfbench/run.py --trace 0` of each checkout
`--pairs` times in pairs: pair i uses seed seed0 + i for both sides, and the
parent runs first in even pairs, the change first in odd ones. Each run
imports the package from its own checkout's src/ and uses that checkout's
perfbench/, which this tool only executes.

For every end-to-end metric BENCHMARK.json names, it prints (to stderr) each
side's median and quartiles, the change's wins (ties count for neither side)
and whether the gain rule holds: at least nine tenths of all pairs run won
(a pair where either side failed counts as not won), a median gap in the
better direction larger than the parent's interquartile range, and no more
failed operations than the parent. Next to it goes the no-regression
verdict against the metric's bound in BENCHMARK.json: `unresolved` when the
parent's interquartile range over its median exceeds the bound, unless every
change run beats every parent run; otherwise `regressed` when the change's
median is worse than the parent's by more than the bound, relative to the
parent's median; otherwise `within bound`. Quartiles are
statistics.quantiles(method="inclusive"). One JSON document goes to stdout:
every run's metric values, whether both sides printed the same output
digests on every seed, and the failure counts. Each run also records its
CPU time (user plus sys seconds of the benchmark process and its children)
as `cpu_s`, shown on its stderr line: a diagnostic that tells host
contention (wall time up, CPU time flat) from work, and no verdict reads it.
Each metric also gets a 90% interval for the median of its per-pair
change/parent ratios, from a bootstrap seeded with random.Random(0) over
2000 resamples of the pairs. It is a diagnostic too: no verdict reads it.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_bench(checkout, workload, seed, seconds):
    """One benchmark run; returns {"metrics", "correct", "failed",
    "attempted", "digests", "cpu_s"} or {"error": text, "cpu_s"} when the
    run failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    cpu_before = _children_cpu_s()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    cpu_s = _children_cpu_s() - cpu_before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": (proc.stderr or proc.stdout).strip().splitlines()[-5:], "cpu_s": cpu_s}
    result = json.loads(lines[-1])
    result["cpu_s"] = cpu_s
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["digests"] = dict(
        line.split()[1:3] for line in lines if line.startswith("digest ")
    )
    return result


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def ratio_interval(parent, change):
    """The 90% bootstrap interval for the median of the per-pair
    change/parent ratios: the 5th and 95th percentiles of the medians of
    2000 resamples of the pairs, drawn with replacement from
    random.Random(0)."""
    ratios = [c / p for p, c in zip(parent, change)]
    rng = random.Random(0)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(2000)]
    cuts = statistics.quantiles(medians, n=20, method="inclusive")
    return [cuts[0], cuts[-1]]


def gain_rule(wins, pairs, gap, parent_iqr, failed_ops):
    """Whether a gain counts: the change won at least nine tenths of all
    pairs run (a pair with a failed run is not won), its median is better
    by more than the parent's interquartile range, and no more of its
    operations failed than the parent's."""
    return wins >= math.ceil(0.9 * pairs) and gap > parent_iqr and failed_ops["change"] <= failed_ops["parent"]


def verdict(worse_by, parent_spread, all_better, bound):
    """The no-regression verdict on one metric: worse_by and parent_spread
    (the parent's interquartile range) are relative to the parent's median,
    and all_better says every change run beats every parent run."""
    if parent_spread > bound and not all_better:
        return "unresolved"
    return "regressed" if worse_by > bound else "within bound"


def compare(parent, change, better, bound, pairs, failed_ops):
    """Summary of one metric over the paired runs that both succeeded (lists
    in pair order), out of `pairs` pairs run; bound is the metric's
    regression bound, failed_ops counts each side's failed operations."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = quartiles(parent)
    worse_by = sign * (pm - cm) / pm
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    return {
        "parent_median": pm,
        "change_median": cm,
        "change_over_parent": cm / pm if pm else None,
        "ratio_interval_90": ratio_interval(parent, change),
        "parent_quartiles": pq,
        "change_quartiles": quartiles(change),
        "parent_iqr": pq[1] - pq[0],
        "change_wins": wins,
        "change_losses": losses,
        "pairs": pairs,
        "pairs_compared": len(parent),
        "gain_rule_met": gain_rule(wins, pairs, sign * (cm - pm), pq[1] - pq[0], failed_ops),
        "bound": bound,
        "worse_by": worse_by,
        "verdict": verdict(worse_by, (pq[1] - pq[0]) / pm, all_better, bound),
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    p.add_argument("--seconds", type=float, help="timed work per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--what", default="", help="one line on what the change is, kept in the JSON")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")

    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {seconds:g} --trace 0",
        "protocol": (f"{args.pairs} pairs per workload on seeds {args.seed0}-{args.seed0 + args.pairs - 1}, "
                     "both sides on the same seed, parent first in even pairs (counting from 0), "
                     "change first in odd pairs; each side runs from its own checkout"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "GEOFLOW_THREADS": os.environ.get("GEOFLOW_THREADS", "unset"),
        },
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = run_bench(sides[side], workload, seed, seconds)
                r["seed"] = seed
                runs[side].append(r)
                shown = r.get("metrics", r.get("error"))
                print(f"{workload} pair {i} seed {seed} {side}: {shown}, cpu {r['cpu_s']:.3f} s", file=sys.stderr)
        ok = [i for i in range(args.pairs) if "error" not in runs["parent"][i] and "error" not in runs["change"][i]]
        row = {
            "failed_runs": {side: sum("error" in r for r in rs) for side, rs in runs.items()},
            "failed_ops": {side: sum(r.get("failed", 0) for r in rs) for side, rs in runs.items()},
            "digests_match": all(runs["parent"][i]["digests"] == runs["change"][i]["digests"] for i in ok),
            "metrics": {},
        }
        for metric, m in metrics.items():
            if len(ok) < 2:
                break
            row["metrics"][metric] = compare(
                [runs["parent"][i]["metrics"][metric] for i in ok],
                [runs["change"][i]["metrics"][metric] for i in ok],
                m["better"],
                m["bound"],
                args.pairs,
                row["failed_ops"],
            )
            row["metrics"][metric]["better"] = m["better"]
        doc["workloads"][workload] = row
        for metric, s in row["metrics"].items():
            ci = s["ratio_interval_90"]
            print(
                f"{workload} {metric}: parent {s['parent_median']:.4g} [{s['parent_quartiles'][0]:.4g}, "
                f"{s['parent_quartiles'][1]:.4g}], change {s['change_median']:.4g} "
                f"[{s['change_quartiles'][0]:.4g}, {s['change_quartiles'][1]:.4g}], "
                f"ratio {s['change_over_parent']:.3f} (pair ratios 90% [{ci[0]:.3f}, {ci[1]:.3f}]), "
                f"change won {s['change_wins']} of {s['pairs']}, "
                f"gain rule {'met' if s['gain_rule_met'] else 'not met'}, "
                f"worse by {s['worse_by']:+.3f} (bound {s['bound']:g}): {s['verdict']}",
                file=sys.stderr,
            )
        print(f"{workload}: digests match: {row['digests_match']}; failed runs {row['failed_runs']}",
              file=sys.stderr)
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
