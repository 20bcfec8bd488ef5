"""Which georeward functions the traced run wraps, and the per-layer
metrics computed from their spans.

Each function is wrapped under the module attribute its caller looks it up
by: `grpo` imports `score_pair` by name, so `grpo.score_pair` is wrapped,
while `score_video` reaches it as `reward.score_pair`. A span is named
after the module that defines the function (`reward.score_pair`), which is
the layer it belongs to.
"""

import statistics

import numpy as np

from spans import POOL, self_times, summarize


def _tensor_bytes(arr):
    # GFT file size: 8-byte header, one u64 per dim, row-major payload whose
    # element size equals the in-memory one for every GFT dtype.
    return 8 + 8 * arr.ndim + arr.nbytes


def _count_load(args, kwargs, result):
    return {"bytes": _tensor_bytes(result)}


def _count_save(args, kwargs, result):
    return {"bytes": _tensor_bytes(np.asarray(args[0]))}


def _count_frame(args, kwargs, result):
    return {"pixels": int(result[1].size)}


def _count_pair(args, kwargs, result):
    # the two flow grids cast one ray per pixel each; the frames are counted
    # by their own render_frame spans
    return {"pixels": 2 * int(result.depth_a.size)}


def _count_video(args, kwargs, result):
    return {"pixels": 2 * len(result.flows_fwd) * int(result.depths[0].size)}


def _count_score(args, kwargs, result):
    omega = result.maps["omega"]
    return {"omega": int(omega.sum()), "scored": int(omega.size)}


def _count_reward(args, kwargs, result):
    return {"reward": float(result)}


def _count_corr(args, kwargs, result):
    return {"correspondences": len(result)}


def targets(mods):
    """(module, attribute, span name, counter) rows for the wrapped calls.

    `mods` maps a georeward submodule name to the imported module.
    """
    cli, grpo, reward, grid, synth = (mods[k] for k in ("cli", "grpo", "reward", "grid", "synth"))
    adapter, policy, runtime = mods["adapter"], mods["policy"], mods["runtime"]
    return [
        # top-level layer calls of the CLI commands
        (cli, "read_bundle", "adapter.read_bundle", None),
        (cli, "write_bundle", "adapter.write_bundle", None),
        (cli, "score_video", "reward.score_video", None),
        (cli, "render_video", "synth.render_video", _count_video),
        (cli, "scene_from_dict", "synth.scene_from_dict", None),
        (cli, "perturbation_from_dict", "synth.perturbation_from_dict", None),
        (cli, "train", "grpo.train", None),
        (cli, "load_policy", "policy.load_policy", None),
        (cli, "save_policy", "policy.save_policy", None),
        (cli, "save_tensor", "grid.save_tensor", _count_save),
        (cli, "sample_correspondences", "metrics.sample_correspondences", _count_corr),
        (cli, "eight_point", "metrics.eight_point", None),
        (cli, "sampson_error", "metrics.sampson_error", None),
        (cli, "dynamic_degree", "metrics.dynamic_degree", None),
        # trainer
        (grpo, "sample_group", "grpo.sample_group", None),
        (grpo, "latent_reward", "grpo.latent_reward", _count_reward),
        (grpo, "surrogate_loss", "grpo.surrogate_loss", None),
        (grpo, "rollout", "policy.rollout", None),
        (grpo, "velocity_grad", "policy.velocity_grad", None),
        (grpo, "decode_latent", "synth.decode_latent", None),
        (grpo, "score_pair", "reward.score_pair", _count_score),
        (grpo, "ordered_map", "runtime.ordered_map", POOL),
        # scorer
        (reward, "score_pair", "reward.score_pair", _count_score),
        (reward, "reference_features", "reward.reference_features", None),
        (reward, "rigid_flow", "camera.rigid_flow", None),
        (reward, "reproject_depth", "camera.reproject_depth", None),
        (reward, "backward_warp", "grid.backward_warp", None),
        (reward, "bilinear_sample", "grid.bilinear_sample", None),
        (runtime, "ordered_map", "runtime.ordered_map", POOL),
        (grid, "bilinear_sample", "grid.bilinear_sample", None),
        # renderer
        (synth, "render_pair", "synth.render_pair", _count_pair),
        (synth, "render_frame", "synth.render_frame", _count_frame),
        (synth, "inject_perturbation", "synth.inject_perturbation", None),
        (synth, "wobble_field", "synth.wobble_field", None),
        (synth, "bilinear_sample", "grid.bilinear_sample", None),
        # tensor I/O
        (adapter, "load_tensor", "grid.load_tensor", _count_load),
        (adapter, "save_tensor", "grid.save_tensor", _count_save),
        (policy, "load_tensor", "grid.load_tensor", _count_load),
        (policy, "save_tensor", "grid.save_tensor", _count_save),
    ]


ROOT = "cli.main"

# Per-layer metrics of each workload, in report order. Names ending in
# .ms / .self_ms are per-call medians of a span's duration / self time;
# .calls, .bytes and the named counts are exact totals per operation.
LAYER_METRICS = {
    "train_toy": [
        "synth.decode_latent.ms",
        "synth.render_pair.self_ms",
        "synth.render_frame.ms",
        "synth.inject_perturbation.ms",
        "synth.wobble_field.ms",
        "synth.pixels_traced",
        "reward.score_pair.self_ms",
        "reward.reference_features.ms",
        "reward.valid_fraction",
        "camera.rigid_flow.ms",
        "camera.reproject_depth.ms",
        "grid.backward_warp.ms",
        "grid.bilinear_sample.ms",
        "grid.bilinear_sample.calls",
        "grid.load_tensor.ms",
        "grid.load_tensor.bytes",
        "grid.save_tensor.ms",
        "grid.save_tensor.bytes",
        "policy.rollout.ms",
        "policy.velocity_grad.ms",
        "grpo.sample_group.ms",
        "grpo.latent_reward.ms",
        "grpo.latent_reward.calls",
        "grpo.surrogate_loss.ms",
        "runtime.ordered_map.ms",
        "runtime.thread_speedup",
        "cli.overhead_ms",
        "trace_overhead_pct",
        "layer_share_pct",
    ],
    "eval_hires": [
        "reward.score_pair.self_ms",
        "reward.reference_features.ms",
        "reward.score_video.ms",
        "reward.valid_fraction",
        "camera.rigid_flow.ms",
        "camera.reproject_depth.ms",
        "grid.backward_warp.ms",
        "grid.bilinear_sample.ms",
        "grid.bilinear_sample.calls",
        "grid.load_tensor.ms",
        "grid.load_tensor.bytes",
        "adapter.read_bundle.ms",
        "metrics.sample_correspondences.ms",
        "metrics.eight_point.ms",
        "metrics.sampson_error.ms",
        "metrics.correspondences",
        "metrics.degenerate_pairs",
        "runtime.ordered_map.ms",
        "runtime.thread_speedup",
        "cli.overhead_ms",
        "trace_overhead_pct",
        "layer_share_pct",
    ],
    "synth_hires": [
        "synth.render_frame.ms",
        "synth.wobble_field.ms",
        "synth.render_video.self_ms",
        "synth.pixels_traced",
        "grid.bilinear_sample.ms",
        "grid.bilinear_sample.calls",
        "grid.save_tensor.ms",
        "grid.save_tensor.bytes",
        "adapter.write_bundle.ms",
        "cli.overhead_ms",
        "trace_overhead_pct",
        "layer_share_pct",
    ],
}

_UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "overhead_ms": "ms",
    "calls": "count",
    "bytes": "bytes",
    "pixels_traced": "count",
    "correspondences": "count",
    "degenerate_pairs": "count",
    "valid_fraction": "fraction",
    "thread_speedup": "x",
    "trace_overhead_pct": "%",
    "layer_share_pct": "%",
}
_HIGHER_IS_BETTER = {"valid_fraction", "thread_speedup", "layer_share_pct"}


def unit_of(metric):
    return _UNITS[metric.rsplit(".", 1)[-1]]


def better_of(metric):
    return "higher" if metric.rsplit(".", 1)[-1] in _HIGHER_IS_BETTER else "lower"


def _count(span, key):
    return (span.counts or {}).get(key, 0)


def _per_op_total(ops, value):
    """Exact per-operation total of `value(span)`; also reports whether every
    operation gave the same total, which deterministic work must."""
    totals = [sum(value(s) for s in op) for op in ops]
    return totals[0], len(set(totals)) == 1


def layer_metrics(workload, ops, untraced_s, traced_s, single_thread_s):
    """Per-layer metrics of one workload from its traced operations.

    `ops` holds one span list per traced operation; the *_s lists are the
    wall seconds per operation of the untraced, traced and one-thread
    repetitions interleaved with them. Returns {metric: detail dict} with
    "value", "unit" and, for timings, the summary (n, median, tail).
    """
    spans = [s for op in ops for s in op]
    selfs = self_times(spans)
    out = {}
    for metric in LAYER_METRICS[workload]:
        detail = {"unit": unit_of(metric)}
        stem, _, kind = metric.rpartition(".")
        if kind in ("ms", "self_ms"):
            vals = [
                1e3 * (selfs[s.sid] if kind == "self_ms" else s.duration)
                for s in spans
                if s.name == stem
            ]
            if not vals:
                raise RuntimeError(f"{workload}: no {stem} call was traced")
            detail.update(summarize(vals))
            detail["value"] = detail["median"]
        elif metric == "cli.overhead_ms":
            detail.update(summarize([1e3 * selfs[s.sid] for s in spans if s.name == ROOT]))
            detail["value"] = detail["median"]
        elif kind == "calls":
            detail["value"], detail["exact"] = _per_op_total(ops, lambda s: s.name == stem)
        elif kind == "bytes":
            detail["value"], detail["exact"] = _per_op_total(
                ops, lambda s: _count(s, "bytes") if s.name == stem else 0
            )
        elif metric == "synth.pixels_traced":
            detail["value"], detail["exact"] = _per_op_total(
                ops, lambda s: _count(s, "pixels") if s.name.startswith("synth.") else 0
            )
        elif metric == "metrics.correspondences":
            detail["value"], detail["exact"] = _per_op_total(
                ops, lambda s: _count(s, "correspondences")
            )
        elif metric == "metrics.degenerate_pairs":
            detail["value"], detail["exact"] = _per_op_total(
                ops, lambda s: s.name == "metrics.eight_point" and s.error == "DegeneracyError"
            )
        elif metric == "reward.valid_fraction":
            scored = [s.counts for s in spans if s.name == "reward.score_pair" and s.counts]
            detail["value"] = sum(c["omega"] for c in scored) / sum(c["scored"] for c in scored)
        elif metric == "runtime.thread_speedup":
            # throughput at the default thread count / throughput at one thread
            detail["value"] = statistics.median(single_thread_s) / statistics.median(untraced_s)
        elif metric == "trace_overhead_pct":
            base = statistics.median(untraced_s)
            detail["value"] = 100.0 * (statistics.median(traced_s) - base) / base
        elif metric == "layer_share_pct":
            total = sum(selfs.values())
            detail["value"] = 100.0 * sum(selfs[s.sid] for s in spans if s.name != ROOT) / total
        else:
            raise KeyError(metric)
        out[metric] = detail
    return out


def layer_shares(ops):
    """Share of traced thread-time (sum of self times) per layer, in %."""
    spans = [s for op in ops for s in op]
    selfs = self_times(spans)
    total = sum(selfs.values())
    shares = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + selfs[s.sid]
    return {k: 100.0 * v / total for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}
