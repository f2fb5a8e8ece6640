"""Tests of the benchmark's span recorder and metric names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os

import pdrop
from metrics import END_TO_END, end_to_end_metrics, per_layer_metrics
from pdrop import ModelConfig, build_schedule, forward_pruned, init_model
from pdrop.harness import FixtureSpec, make_marker_sequence
from spans import END, NAME, OUT_ROWS, PARENT, ROWS, START, SpanRecorder, self_times
from workloads import WORKLOADS, CostGrid, Experiments, pinned_table_ok

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def traced_forward():
    cfg = ModelConfig(2, 16, 2, 8, 24, 32)
    weights = init_model(cfg, 3)
    seq, _ = make_marker_sequence(cfg, FixtureSpec(image_tokens=12, marker_dims=(0, 1)), 3)
    schedule = build_schedule(2, 2, 0.5, 12)
    recorder = SpanRecorder(pdrop)
    with recorder:
        forward_pruned(weights, seq, schedule)
    return recorder.spans


def test_self_time_within_duration():
    spans = traced_forward()
    assert spans
    for span, own in zip(spans, self_times(spans)):
        assert -1e-9 <= own <= span[END] - span[START]


def test_children_nest_inside_parents():
    spans = traced_forward()
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert span[PARENT] < i
            assert parent[START] <= span[START] <= span[END] <= parent[END]


def test_records_public_calls_with_rows_and_parents():
    spans = traced_forward()
    names = {s[NAME] for s in spans}
    assert {"toymodel.forward_pruned", "numkernel.softmax_rows", "pruner.decide"} <= names
    assert not any(part.startswith("_") for n in names for part in n.split("."))
    top = [s for s in spans if s[PARENT] == -1]
    assert [s[NAME] for s in top] == ["toymodel.forward_pruned"]
    (topk,) = [s for s in spans if s[NAME] == "numkernel.arg_topk"]
    assert spans[topk[PARENT]][NAME] == "pruner.decide"
    assert (topk[ROWS], topk[OUT_ROWS]) == (12, 6)


def test_span_closed_when_call_raises():
    recorder = SpanRecorder(pdrop)
    try:
        with recorder:
            build_schedule(4, 8, 0.5, 10)
    except pdrop.ConfigError:
        pass
    (span,) = recorder.spans
    assert span[NAME] == "pruner.build_schedule" and span[END] >= span[START]


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = end_to_end_metrics(0.1, [0.002, 0.003], 1000)
    assert {k: v["unit"] for k, v in emitted.items()} == e2e == END_TO_END
    emitted = per_layer_metrics(traced_forward(), 1, {}, 0.0)
    assert {k: v["unit"] for k, v in emitted.items()} == layer
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_cost_grid_matches_paper_table(tmp_path):
    assert pinned_table_ok()
    grid = CostGrid(5, str(tmp_path))
    assert grid.op(1)


def test_experiments_repeat_exactly(tmp_path):
    exp = Experiments(5, str(tmp_path))
    exp.seeds = exp.seeds[:1]
    assert exp.op(0) and exp.op(1)
    assert exp.recalls == [1.0, 1.0]
