"""Command-line surface: scoring, synthesis, pretraining, policy
optimization and metric evaluation.

Exit codes are stable across subcommands: 0 success, 2 for input or
configuration problems, 3 for numeric or training failures. Every run
writes a manifest (command, config hash, seed, version, inputs, outputs,
duration); output directories are guarded by a lock file so two runs
cannot interleave writes.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from ._version import __version__
from .adapter import read_bundle, write_bundle
from .errors import (
    ConfigError,
    DegeneracyError,
    GeoRewardError,
    InputError,
    InsufficientDataError,
    NumericError,
    TrainingError,
)
from .grid import _dump_json, _from_dict, _json_type_ok, _load_json, save_tensor
from .grpo import TrainerConfig, train
from .metrics import dynamic_degree, eight_point, sample_correspondences, sampson_error
from .policy import fm_pretrain, init_policy, load_policy, save_policy
from .reward import RewardConfig, score_video
from .synth import (
    LATENT_DIM,
    _numbers,
    perturbation_from_dict,
    render_video,
    scene_from_dict,
    toy_scene,
)

_DEFAULT_PRETRAIN = {
    "dim": LATENT_DIM,
    "hidden": 32,
    "iterations": 1200,
    "lr": 0.01,
    "batch_size": 128,
    "momentum": 0.9,
    "seed": 1,
    "data": {"kind": "coordinate_mixture", "means": [-2.5, 1.5], "std": 0.7},
}


# ---------------------------------------------------------------------------
# shared plumbing

def _config_hash(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@contextlib.contextmanager
def _locked_dir(path):
    os.makedirs(path, exist_ok=True)
    lock = os.path.join(path, ".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise InputError(f"output directory {path} is locked by another run (remove {lock} if stale)")
    os.close(fd)
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def _manifest(command, config_doc, seed, inputs, outputs, started):
    return {
        "command": command,
        "config_hash": _config_hash(config_doc),
        "seed": seed,
        "version": __version__,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "duration_s": round(time.monotonic() - started, 6),
    }


# ---------------------------------------------------------------------------
# score

def cmd_score(args):
    started = time.monotonic()
    bundle = read_bundle(args.input)
    config_doc = _load_json(args.config) if args.config else {}
    cfg = _from_dict(RewardConfig, config_doc, "reward config")

    score = score_video(bundle, cfg)
    _dump_json(score.report(cfg), args.out)
    outputs = [args.out]

    if args.dump_maps:
        os.makedirs(args.dump_maps, exist_ok=True)
        for ps in score.pair_scores:
            tag = f"{ps.tau:03d}"
            save_tensor(ps.maps["q_geo"], os.path.join(args.dump_maps, f"q_geo_{tag}.gft"))
            save_tensor(
                ps.maps["omega"].astype(np.uint8), os.path.join(args.dump_maps, f"omega_{tag}.gft")
            )
            save_tensor(ps.maps["epe"], os.path.join(args.dump_maps, f"epe_{tag}.gft"))
            save_tensor(
                ps.maps["depth_err"], os.path.join(args.dump_maps, f"depth_err_{tag}.gft")
            )
        outputs.append(args.dump_maps)

    _dump_json(
        _manifest("score", config_doc, None, [args.input], outputs, started),
        args.out + ".manifest.json",
    )
    return 0


# ---------------------------------------------------------------------------
# synth

def _parse_perturb(pairs):
    doc = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--perturb expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key == "corrupt_flow":
            low = raw.lower()
            if low not in ("true", "false", "0", "1"):
                raise ConfigError(f"corrupt_flow must be true/false, got {raw!r}")
            doc[key] = low in ("true", "1")
        else:
            try:
                doc[key] = float(raw)
            except ValueError:
                raise ConfigError(f"--perturb {key} needs a number, got {raw!r}")
    return doc


def cmd_synth(args):
    started = time.monotonic()
    spec_doc = _load_json(args.spec)
    scene = scene_from_dict(spec_doc)
    perturb_doc = _parse_perturb(args.perturb)
    perturb = perturbation_from_dict(perturb_doc)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")

    with _locked_dir(args.out):
        write_bundle(args.out, render_video(scene, perturb, seed=args.seed, stride=args.stride))
        config_doc = {
            "spec": spec_doc,
            "perturb": perturb_doc,
            "seed": args.seed,
            "stride": args.stride,
        }
        _dump_json(
            _manifest("synth", config_doc, args.seed, [args.spec], [args.out], started),
            os.path.join(args.out, "manifest.json"),
        )
    return 0


# ---------------------------------------------------------------------------
# pretrain / grpo

def _data_sampler(doc, dim):
    kind = doc.get("kind", "normal")
    if not isinstance(kind, str):
        raise ConfigError(f"data kind must be a string, got {kind!r}")
    if kind == "normal":
        mean, std = doc.get("mean", 0.0), doc.get("std", 1.0)
        for key, value in (("mean", mean), ("std", std)):
            if not _json_type_ok(value, float):
                _numbers(value, (dim,), f"data {key}")
        mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), (dim,))
        std = np.broadcast_to(np.asarray(std, dtype=np.float64), (dim,))
        if np.any(std <= 0):
            raise ConfigError("data std must be > 0")
        return lambda rng, n: mean + std * rng.standard_normal((n, dim))
    if kind == "coordinate_mixture":
        means = doc.get("means")
        if not isinstance(means, list) or not means:
            raise ConfigError(f'coordinate_mixture needs a non-empty "means" list, got {means!r}')
        means = np.asarray(_numbers(means, (len(means),), "data means"), dtype=np.float64)
        std = doc.get("std", 1.0)
        if not _json_type_ok(std, float):
            raise ConfigError(f"data std must be a number, got {std!r}")
        std = float(std)
        if std <= 0:
            raise ConfigError("data std must be > 0")
        weights = doc.get("weights")
        if weights is not None:
            weights = np.asarray(_numbers(weights, (means.size,), "data weights"), dtype=np.float64)
            if np.any(weights < 0) or weights.sum() <= 0:
                raise ConfigError("data weights must be nonnegative with a positive sum")
            weights = weights / weights.sum()

        def sample(rng, n):
            idx = rng.choice(means.size, size=(n, dim), p=weights)
            return means[idx] + std * rng.standard_normal((n, dim))

        return sample
    raise ConfigError(f"unknown data kind {kind!r}")


def _run_pretrain(doc):
    if not isinstance(doc, dict):
        raise ConfigError(f"pretrain config must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(_DEFAULT_PRETRAIN))
    if unknown:
        raise ConfigError(f"unknown pretrain keys: {', '.join(unknown)}")
    for key, value in doc.items():
        kind = type(_DEFAULT_PRETRAIN[key])
        if not _json_type_ok(value, kind):
            raise ConfigError(f"pretrain key {key} must be {kind.__name__}, got {value!r}")
    merged = dict(_DEFAULT_PRETRAIN)
    merged.update(doc)
    if merged["seed"] < 0:
        raise ConfigError(f"pretrain seed must be >= 0, got {merged['seed']}")
    dim = int(merged["dim"])
    rng = np.random.default_rng(merged["seed"])
    policy = init_policy(dim, int(merged["hidden"]), rng)
    sampler = _data_sampler(merged["data"], dim)
    policy, losses = fm_pretrain(
        policy,
        sampler,
        int(merged["iterations"]),
        float(merged["lr"]),
        rng,
        batch_size=int(merged["batch_size"]),
        momentum=float(merged["momentum"]),
    )
    return policy, losses, merged


def _finite_or_null(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_metric_rows(rows, path):
    """One strict-JSON object per line; non-finite floats are written as null."""
    with open(path, "w") as f:
        for row in rows:
            row = {k: _finite_or_null(v) for k, v in row.items()}
            f.write(json.dumps(row, sort_keys=True, allow_nan=False) + "\n")


def cmd_pretrain(args):
    started = time.monotonic()
    doc = _load_json(args.config) if args.config else {}
    with _locked_dir(args.out):
        policy, losses, resolved = _run_pretrain(doc)
        ckpt = os.path.join(args.out, "checkpoint")
        save_policy(policy, ckpt, meta={"command": "pretrain", "config_hash": _config_hash(resolved)})
        metrics_path = os.path.join(args.out, "metrics.jsonl")
        _write_metric_rows(
            [{"iter": i, "loss": float(l)} for i, l in enumerate(losses)], metrics_path
        )
        _dump_json(resolved, os.path.join(args.out, "config.json"))
        _dump_json(
            _manifest(
                "pretrain",
                resolved,
                resolved["seed"],
                [args.config] if args.config else [],
                [ckpt, metrics_path],
                started,
            ),
            os.path.join(args.out, "manifest.json"),
        )
    return 0


_GRPO_KEYS = {"trainer", "pretrain", "init_checkpoint", "scene", "reward"}


def cmd_grpo(args):
    started = time.monotonic()
    doc = _load_json(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigError("grpo config must be a JSON object")
    unknown = sorted(set(doc) - _GRPO_KEYS)
    if unknown:
        raise ConfigError(f"unknown grpo config keys: {', '.join(unknown)}")
    if "pretrain" in doc and "init_checkpoint" in doc:
        raise ConfigError("give either pretrain or init_checkpoint, not both")

    tcfg = _from_dict(TrainerConfig, doc.get("trainer", {}), "trainer config")
    template = scene_from_dict(doc["scene"]) if "scene" in doc else toy_scene()
    reward_cfg = _from_dict(RewardConfig, doc.get("reward", {}), "reward config")

    with _locked_dir(args.out):
        if "init_checkpoint" in doc:
            pretrained = load_policy(doc["init_checkpoint"])
            inputs = [args.config, doc["init_checkpoint"]]
            pretrain_resolved = {"init_checkpoint": doc["init_checkpoint"]}
        else:
            pretrained, _, pretrain_resolved = _run_pretrain(doc.get("pretrain", {}))
            inputs = [args.config] if args.config else []

        metrics_path = os.path.join(args.out, "metrics.jsonl")
        resolved = {
            "trainer": dataclasses.asdict(tcfg),
            "pretrain": pretrain_resolved,
            "reward": reward_cfg.to_dict(),
            "scene": doc.get("scene", "toy_scene"),
        }
        _dump_json(resolved, os.path.join(args.out, "config.json"))
        try:
            result = train(tcfg, pretrained, template, reward_config=reward_cfg)
        except TrainingError as exc:
            if exc.metrics:
                _write_metric_rows(exc.metrics, metrics_path)
            if exc.last_good is not None:
                save_policy(exc.last_good, os.path.join(args.out, "checkpoint_last_good"))
            raise
        ckpt = os.path.join(args.out, "checkpoint")
        ckpt_ema = os.path.join(args.out, "checkpoint_ema")
        save_policy(result.policy, ckpt, meta={"command": "grpo", "role": "final"})
        save_policy(result.ema_policy, ckpt_ema, meta={"command": "grpo", "role": "ema"})
        _write_metric_rows(result.metrics, metrics_path)
        _dump_json(
            _manifest("grpo", resolved, tcfg.seed, inputs, [ckpt, ckpt_ema, metrics_path], started),
            os.path.join(args.out, "manifest.json"),
        )
    return 0


# ---------------------------------------------------------------------------
# metrics

def cmd_metrics(args):
    started = time.monotonic()
    bundle = read_bundle(args.input)
    n = len(bundle)
    stride = bundle.flow_stride if args.stride is None else args.stride
    if stride > n - 1:
        raise ConfigError(f"stride {stride} needs at least {stride + 1} frames, got {n}")
    if stride != bundle.flow_stride:
        raise ConfigError(
            f"stride {stride} does not match the dump's flow_stride {bundle.flow_stride}; "
            "re-synthesize with the matching stride"
        )

    all_errors = []
    skipped = 0
    warnings = []
    for i, flow in enumerate(bundle.flows_fwd):
        static = None
        if bundle.dynamic_masks is not None:
            static = ~(bundle.dynamic_masks[i] | bundle.dynamic_masks[i + bundle.flow_stride])
        try:
            corr = sample_correspondences(flow, args.grid_step, static)
            res = sampson_error(eight_point(corr), corr)
        except (DegeneracyError, InsufficientDataError) as exc:
            warnings.append(f"pair {i}: {exc}")
            continue
        all_errors.append(res.errors)
        skipped += res.skipped

    report = {
        "sampson_mean": float(np.concatenate(all_errors).mean()) if all_errors else None,
        "pairs": int(sum(e.size for e in all_errors)),
        "skipped": skipped,
        "dynamic_degree": dynamic_degree(bundle.flows_fwd),
    }
    if warnings:
        report["warnings"] = warnings
    _dump_json(report, args.out)
    config_doc = {"stride": stride, "grid_step": args.grid_step}
    _dump_json(
        _manifest("metrics", config_doc, None, [args.input], [args.out], started),
        args.out + ".manifest.json",
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="georeward",
        description="Geometry-grounded video rewards: score, synthesize, train, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score an adapter directory")
    p.add_argument("--input", required=True, help="adapter-layout video directory")
    p.add_argument("--config", help="reward config JSON")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--dump-maps", help="directory for per-pair diagnostic maps")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="render a synthetic video dump")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--perturb", action="append", metavar="KEY=VALUE", help="perturbation field")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=1, help="flow pairing stride")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="flow-matching pretraining")
    p.add_argument("--config", help="pretrain config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("grpo", help="policy optimization against the reward")
    p.add_argument("--config", help="trainer config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_grpo)

    p = sub.add_parser("metrics", help="epipolar metrics over an adapter directory")
    p.add_argument("--input", required=True, help="adapter-layout video directory")
    p.add_argument("--stride", type=int, help="frame gap between paired frames (default: the dump's flow_stride)")
    p.add_argument("--grid-step", type=int, default=8, help="correspondence lattice step")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GeoRewardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
