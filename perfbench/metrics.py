"""Metric names, units and how each is computed from a run.

End-to-end metrics (untraced run), times at reference speed (see run.py):
  setup_s        median set-up time (weights plus fixture) over the
                 set-ups made in one run
  op_ms          median time of one operation of the workload
  peak_alloc_mb  peak traced allocation of one operation, the median over
                 untimed passes

Per-layer metrics (traced run) are per traced operation. ``<layer>.calls``
and ``<layer>.self_ms`` come from the spans of that public function;
self time is span duration minus the time its child spans cover. A layer
the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from spans import totals_by_name

END_TO_END = {"setup_s": "s", "op_ms": "ms", "peak_alloc_mb": "MB"}

CALLS_AND_SELF = [
    "numkernel.softmax_rows",
    "numkernel.rope_rotate_rows",
    "numkernel.rmsnorm_rows",
    "numkernel.arg_topk",
    "toymodel.forward_pruned",
    "toymodel.forward_full",
    "pruner.build_schedule",
    "pruner.rank_image_tokens",
    "pruner.decide",
    "costmodel.schedule_cost",
    "costmodel.strategy_cost",
    "layout.build_sequence",
    "harness.make_marker_sequence",
    "harness.prepare",
    "harness.run_strategy",
    "cli.main",
]
# self time only: summed over several span names
SELF_ONLY = {
    "numkernel.rng": ("numkernel.derive_seed", "numkernel.RngState.raw",
                      "numkernel.RngState.uniforms", "numkernel.RngState.normals",
                      "numkernel.gaussian_init"),
    "toymodel.init_model": ("toymodel.init_model",),
    "toymodel.build_marker_model": ("toymodel.build_marker_model",),
}
NUM_STAGES = 4
FLOAT64_BYTES = 8


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in CALLS_AND_SELF:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    units["numkernel.softmax_rows.bytes_computed"] = "bytes"
    for layer in SELF_ONLY:
        units[f"{layer}.self_ms"] = "ms"
    units["pruner.tokens_ranked"] = "count"
    units["pruner.tokens_dropped"] = "count"
    for s in range(NUM_STAGES):
        units[f"toymodel.stage{s}.tokens"] = "count"
        units[f"toymodel.stage{s}.layer_ms"] = "ms"
        units[f"toymodel.stage{s}.model_gflops_per_s"] = "GFLOP/s"
        units[f"costmodel.stage{s}.layer_flops"] = "FLOP"
    units["toymodel.full_prefill_ms"] = "ms"
    units["toymodel.pruned_prefill_ms"] = "ms"
    units["toymodel.measured_ratio"] = "ratio"
    units["costmodel.modeled_ratio"] = "ratio"
    units["toymodel.boundary_overhead_ms"] = "ms"
    units["trace_overhead_pct"] = "%"
    return units


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end_metrics(setup_s: float, op_seconds: list[float], peak_bytes: int) -> dict:
    op_ms = 1e3 * statistics.median(op_seconds) if op_seconds else 0.0
    values = {"setup_s": setup_s, "op_ms": op_ms, "peak_alloc_mb": peak_bytes / 1e6}
    return _with_units(values, END_TO_END)


def per_layer_metrics(spans, traced_ops: int, diagnostics: dict, overhead_pct: float) -> dict:
    """Per-layer metrics from the spans of ``traced_ops`` operations and
    the workload's untraced diagnostics."""
    totals = totals_by_name(spans)
    ops = max(traced_ops, 1)
    values = {}
    for layer in CALLS_AND_SELF:
        t = totals.get(layer)
        values[f"{layer}.calls"] = (t.calls if t else 0) / ops
        values[f"{layer}.self_ms"] = 1e3 * (t.self_s if t else 0.0) / ops
    softmax = totals.get("numkernel.softmax_rows")
    values["numkernel.softmax_rows.bytes_computed"] = (
        FLOAT64_BYTES * (softmax.size if softmax else 0) / ops
    )
    for metric, names in SELF_ONLY.items():
        values[f"{metric}.self_ms"] = 1e3 * sum(totals[n].self_s for n in names if n in totals) / ops
    # arg_topk ranks the surviving image tokens at each drop boundary and
    # returns the kept ones
    topk = totals.get("numkernel.arg_topk")
    values["pruner.tokens_ranked"] = (topk.rows if topk else 0) / ops
    values["pruner.tokens_dropped"] = (topk.rows - topk.out_rows if topk else 0) / ops

    stages = diagnostics.get("stages", [])
    for s in range(NUM_STAGES):
        stage = stages[s] if s < len(stages) else {}
        ms = stage.get("layer_ms", 0.0)
        flops = stage.get("layer_flops", 0)
        values[f"toymodel.stage{s}.tokens"] = stage.get("tokens", 0)
        values[f"toymodel.stage{s}.layer_ms"] = ms
        values[f"toymodel.stage{s}.model_gflops_per_s"] = flops / ms / 1e6 if ms else 0.0
        values[f"costmodel.stage{s}.layer_flops"] = flops
    for name in ("full_prefill_ms", "pruned_prefill_ms", "measured_ratio", "boundary_overhead_ms"):
        values[f"toymodel.{name}"] = diagnostics.get(name, 0.0)
    values["costmodel.modeled_ratio"] = diagnostics.get("modeled_ratio", 0.0)
    values["trace_overhead_pct"] = overhead_pct
    return _with_units(values, per_layer_units())
