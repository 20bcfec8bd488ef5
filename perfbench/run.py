#!/usr/bin/env python3
"""georeward benchmark.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 20 --trace 0

Runs one workload in this process through `georeward.cli.main`, one
command after another, for --seconds of timed work, checks every output,
and prints a report ending in one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run instead traces all three
workloads and reports the per-layer metrics (see perfbench/README.md).
The package is imported from src/ of the checkout this file sits in.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
MIN_OPS = 2
# Workloads that run ordered_map, repeated at GEOFLOW_THREADS=1 in the
# traced run to measure what the default thread pool buys.
THREADED = ("train_toy", "eval_hires")


def parse_args(argv):
    p = argparse.ArgumentParser(description="georeward benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed work per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_package():
    """Import georeward and its CLI afresh (dropping any earlier import) and
    return the package."""
    for name in [m for m in sys.modules if m == "georeward" or m.startswith("georeward.")]:
        del sys.modules[name]
    importlib.import_module("georeward.cli")
    return sys.modules["georeward"]


def l2_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "2":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def environment(pkg, wl, seed):
    l2 = l2_bytes()
    return {
        "cpu_count": os.cpu_count(),
        "geoflow_threads": pkg.runtime.thread_count(),
        "geoflow_threads_env": os.environ.get("GEOFLOW_THREADS"),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "workload": wl.name,
        "seed": seed,
        "l2_bytes": l2,
        "sizes": wl.sizes(l2),
    }


class Loop:
    """Runs and checks operations of one workload, keeping their timings."""

    def __init__(self, wl, main, out_root):
        self.wl = wl
        self.main = main
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None
        self.times = []  # {command label: seconds} per successful operation

    def op(self):
        """One operation, checked and cleaned up; returns its wall seconds,
        or None when a command failed."""
        return self.finish(*self.run())

    def run(self):
        """Run the commands of one operation; returns (out dir, {label: s})
        with None in place of the timings when a command failed."""
        out = os.path.join(self.out_root, f"op{self.attempted}")
        os.makedirs(out)
        self.attempted += 1
        times = {}
        for label, argv in self.wl.commands(out):
            start = time.perf_counter()
            try:
                rc = self.main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
            times[label] = time.perf_counter() - start
            if rc != 0:
                print(f"{self.wl.name}: {label} exited with {rc}", file=sys.stderr)
                return out, None
        return out, times

    def finish(self, out, times):
        """Check the outputs of a finished operation, then delete them."""
        if times is None:
            self.failed += 1
        else:
            self.check(out)
            self.times.append(times)
        shutil.rmtree(out)
        return None if times is None else sum(times.values())

    def check(self, out):
        digests, problems = self.wl.check(out)
        self.problems += problems
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append(f"outputs differ from the first repetition: {digests} vs {self.digests}")

    def seconds(self):
        return [sum(t.values()) for t in self.times]


def fmt_summary(s, unit):
    tail = f"p{100 * s['tail']['p']:g}={s['tail']['value']:.6g}" if s.get("tail") else "no tail (n<100)"
    return f"{s['median']:.6g} {unit}  median; {tail}; n={s['n']}"


def setup_workload(wl, reps, pkg=None):
    """Set up `reps` times; without `pkg`, each repetition imports the
    package afresh. Returns (package, set-up seconds per repetition)."""
    fresh = pkg is None
    times, digests = [], set()
    for _ in range(reps):
        start = time.perf_counter()
        if fresh:
            pkg = import_package()
        wl.pkg = pkg
        digests.add(wl.setup(pkg.cli.main))
        times.append(time.perf_counter() - start)
    if len(digests) != 1:
        raise RuntimeError(f"{wl.name}: set-up inputs differ between repetitions: {digests}")
    return pkg, times


def run_untraced(args, work):
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    pkg, setup_times = setup_workload(wl, SETUP_REPS)
    env = environment(pkg, wl, args.seed)
    loop = Loop(wl, pkg.cli.main, os.path.join(work, "ops"))
    timed = 0.0
    while timed < args.seconds or loop.attempted < MIN_OPS:
        timed += loop.op() or 0.0
        if loop.failed > 2 * MIN_OPS and not loop.times:
            break
    if not loop.times:
        raise RuntimeError(f"{wl.name}: no operation succeeded")
    loop.problems += wl.after_run(pkg.cli.main)

    op_s = loop.seconds()
    setup = spans.summarize(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"setup_s": (setup, "s"), "op_s": (spans.summarize(op_s), "s")}
    for name, (values, unit) in wl.report(loop.times).items():
        report[name] = (spans.summarize(values), unit)

    print(f"georeward benchmark: workload={wl.name} seed={args.seed} trace=0 seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (s, unit) in report.items():
        print(f"metric {name:<20} {fmt_summary(s, unit)}")
    print(f"metric {'peak_rss_mb':<20} {peak_rss_mb:.6g} MB")
    print(f"metric {'fail_frac':<20} {loop.failed / loop.attempted:.6g}  ({loop.failed} of {loop.attempted} operations)")
    for name, digest in sorted((loop.digests or {}).items()):
        print(f"digest {name} sha256={digest}")
    for problem in loop.problems:
        print(f"check FAILED: {problem}")

    metrics = {
        "op_s": {"value": statistics.median(op_s), "unit": "s"},
        "setup_s": {"value": setup["median"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    details = {
        "env": env,
        "report": {k: dict(s, unit=u) for k, (s, u) in report.items()},
        "digests": loop.digests,
        "problems": loop.problems,
    }
    summary = {"correct": not loop.problems, "attempted": loop.attempted, "failed": loop.failed}
    return summary, metrics, details


def with_threads(value, fn):
    """Call fn() with GEOFLOW_THREADS set to `value`, then restore it."""
    previous = os.environ.get("GEOFLOW_THREADS")
    os.environ["GEOFLOW_THREADS"] = value
    try:
        return fn()
    finally:
        if previous is None:
            del os.environ["GEOFLOW_THREADS"]
        else:
            os.environ["GEOFLOW_THREADS"] = previous


def run_traced(args, work):
    """Trace every workload: rounds of one untraced, one traced and (for the
    threaded workloads) one single-thread operation, interleaved so drift in
    machine load hits all three alike."""
    pkg = import_package()
    mods = {name: importlib.import_module(f"georeward.{name}") for name in
            ("cli", "grpo", "reward", "grid", "synth", "adapter", "policy", "runtime")}
    targets = layers.targets(mods)
    tracer = spans.Tracer()
    budget = args.seconds / len(workloads.WORKLOADS)
    metrics, details, all_spans = {}, {}, {}
    attempted = failed = 0
    problems = []
    print(f"georeward benchmark: traced run of every workload, seed={args.seed} seconds={args.seconds:g}")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(os.path.join(work, name), args.seed)
        os.makedirs(wl.work)
        setup_workload(wl, 1, pkg)
        env = environment(pkg, wl, args.seed)
        main = mods["cli"].main
        plain = Loop(wl, main, os.path.join(wl.work, "plain"))
        traced = Loop(wl, tracer.wrap(layers.ROOT, main), os.path.join(wl.work, "traced"))
        single = Loop(wl, main, os.path.join(wl.work, "single"))
        ops = []
        timed = 0.0
        while timed < budget or len(ops) < MIN_OPS:
            timed += plain.op() or 0.0
            with spans.Patch(tracer, targets):
                result = traced.run()
            spans.assert_unwrapped(targets)
            ops.append(tracer.take())
            timed += traced.finish(*result) or 0.0
            if name in THREADED:
                timed += with_threads("1", single.op) or 0.0
            if (plain.failed + traced.failed) > 2 * MIN_OPS:
                break
        if not (plain.times and traced.times):
            raise RuntimeError(f"{name}: no operation succeeded")
        loops = (plain, traced, single) if name in THREADED else (plain, traced)
        for loop in loops:
            attempted += loop.attempted
            failed += loop.failed
            problems += [f"{name}: {p}" for p in loop.problems]
        if plain.digests != traced.digests or (name in THREADED and single.digests != plain.digests):
            problems.append(f"{name}: traced or single-thread outputs differ from untraced ones")
        problems += [f"{name}: {p}" for p in wl.after_run(main)]
        rewards = [s.counts["reward"] for op in ops for s in op if s.name == "grpo.latent_reward" and s.counts]
        if any(not -1.5 <= r <= 0.0 for r in rewards):
            problems.append(f"{name}: a latent_reward lies outside [-1.5, 0]")

        per_layer = layers.layer_metrics(name, ops, plain.seconds(), traced.seconds(), single.seconds())
        shares = layers.layer_shares(ops)
        print(f"\n[{name}] env " + json.dumps(env, sort_keys=True))
        medians = [spans.summarize(loop.seconds())["median"] for loop in loops]
        print(f"[{name}] median op_s: " + ", ".join(
            f"{label} {m:.6g} s (n={len(loop.times)})"
            for label, m, loop in zip(("untraced", "traced", "GEOFLOW_THREADS=1"), medians, loops)))
        for metric, d in per_layer.items():
            if "median" in d:
                line = fmt_summary(d, d["unit"])
            else:
                exact = "" if d.get("exact", True) else "  (NOT exact across operations)"
                line = f"{d['value']:.6g} {d['unit']}{exact}"
            print(f"[{name}] {metric:<36} {line}")
        print(f"[{name}] self-time share by layer (% of traced thread-time): "
              + ", ".join(f"{k} {v:.1f}" for k, v in shares.items()))
        for key, digest in sorted((plain.digests or {}).items()):
            print(f"[{name}] digest {key} sha256={digest}")
        for metric, d in per_layer.items():
            metrics[f"{name}.{metric}"] = {"value": d["value"], "unit": d["unit"]}
        details[name] = {"env": env, "per_layer": per_layer, "layer_share": shares, "digests": plain.digests}
        all_spans[name] = [spans.spans_to_json(op) for op in ops]
        shutil.rmtree(wl.work)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-seed{args.seed}.json"
    spans_path.write_text(json.dumps(all_spans))
    print(f"\nspans written to {spans_path.relative_to(ROOT)}")
    for problem in problems:
        print(f"check FAILED: {problem}")
    summary = {"correct": not problems, "attempted": attempted, "failed": failed}
    return summary, metrics, dict(details, problems=problems)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "georeward" / "__init__.py").is_file():
        print(f"error: no georeward sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("numpy")  # its import cost is not the package's set-up
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        summary, metrics, details = run(args, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    result = dict(summary, metrics=metrics)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, details=details), indent=1, sort_keys=True)
    )
    print(json.dumps(result))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
