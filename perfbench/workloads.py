"""Workloads of the pdrop benchmark.

Each workload is a class whose constructor is the set-up (weights plus
fixture, built from the workload seed) and whose ``op(i)`` runs one
operation through the public ``pdrop`` API and returns whether the
operation's outputs passed their correctness check. ``i`` counts
operations from 0; the first operation records the reference outputs
that later ones must reproduce bit for bit.

``reference_job`` names the job in run.py whose time scales the
workload's times to reference speed.

``diagnostics()`` runs only in the traced run. It times prefills from
outside, with no span recorder active, and sets the measured time of one
layer at each stage's token count beside ``costmodel.layer_flops``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import statistics
import time

import numpy as np

from pdrop import (
    TOY_CONFIG,
    ModelConfig,
    PyramidDrop,
    RandomDrop,
    SingleEarlyDrop,
    UniformCompression,
    Vanilla,
    build_schedule,
    forward_pruned,
    init_model,
    keep_all_schedule,
    layer_flops,
    schedule_cost,
    strategy_cost,
    tera,
    theoretical_saving,
)
from pdrop import cli
from pdrop.harness import FixtureSpec, make_marker_sequence, prepare, spec_from_json

# "mid" geometry: large enough that projections and FFN dominate modeled FLOPs
MID_CONFIG = ModelConfig(
    num_layers=16, hidden_size=256, num_heads=8, head_dim=32,
    ffn_intermediate=688, vocab_size=256,
)
# the paper's schedule: four stages, half the image tokens kept at each boundary
STAGES, KEEP_RATIO = 4, 0.5
# LLaVA-1.5 7B geometry of the paper's FLOPs table
J7B, D7B, M7B = 32, 4096, 11008
GRID_V0 = (576, 2880, 5184)
GRID_STAGES = range(1, 9)


def _median_ms(fn, reps: int, min_seconds: float = 0.25) -> float:
    """Median of at least ``reps`` timed calls, repeated until they add up
    to ``min_seconds``."""
    times = []
    while len(times) < reps or sum(times) < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def prefill_diagnostics(cfg: ModelConfig, weights, seq, schedule, seed: int, reps: int) -> dict:
    """Full and pruned prefill time, per-stage one-layer time against
    ``layer_flops``, and the pruned time the stages' layers do not account
    for (drop boundaries, embedding and logits)."""
    keep_all = keep_all_schedule(cfg.num_layers, schedule.stage_token_counts[0])
    full_ms = _median_ms(lambda: forward_pruned(weights, seq, keep_all), reps)
    pruned_ms = _median_ms(lambda: forward_pruned(weights, seq, schedule), reps)
    one_layer = dataclasses.replace(cfg, num_layers=1)
    one_weights = init_model(one_layer, seed)
    stages = []
    for layers, tokens in zip(schedule.stage_layer_counts, schedule.stage_token_counts):
        stage_seq, _ = make_marker_sequence(one_layer, FixtureSpec(image_tokens=tokens), seed)
        single = keep_all_schedule(1, tokens)
        ms = _median_ms(lambda: forward_pruned(one_weights, stage_seq, single), reps)
        flops = layer_flops(tokens, cfg.hidden_size, cfg.ffn_intermediate)
        stages.append({"layers": layers, "tokens": tokens, "layer_ms": ms, "layer_flops": flops})
    layers_ms = sum(s["layer_ms"] * s["layers"] for s in stages)
    return {
        "full_prefill_ms": full_ms,
        "pruned_prefill_ms": pruned_ms,
        "measured_ratio": pruned_ms / full_ms,
        "modeled_ratio": schedule_cost(schedule, cfg.hidden_size, cfg.ffn_intermediate).ratio,
        "boundary_overhead_ms": pruned_ms - layers_ms,
        "stages": stages,
    }


class Prefill:
    """One prefill geometry: ``init_model(seed)`` weights and a marker
    fixture of ``v0`` image tokens (plus 4 instruction and 1 answer token).

    An operation is one full prefill followed by one PyramidDrop prefill
    (S=4, lambda=0.5). The full prefill alternates a one-stage keep-all
    schedule with a four-stage schedule at keep ratio 1.0, and both must
    give bit-identical logits and final hidden states. The PyramidDrop
    prefill must repeat its logits and kept masks exactly and keep the
    scheduled token count at each stage."""

    cfg: ModelConfig
    v0: int
    reference_job = "numpy"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.weights = init_model(self.cfg, seed)
        fixture = FixtureSpec(image_tokens=self.v0, marked_placement="random")
        self.seq, _ = make_marker_sequence(self.cfg, fixture, seed)
        j = self.cfg.num_layers
        self.schedule = build_schedule(j, STAGES, KEEP_RATIO, self.v0)
        self.keep_all = (keep_all_schedule(j, self.v0), build_schedule(j, STAGES, 1.0, self.v0))
        self.full_reference = self.pdrop_reference = None

    def op(self, i: int) -> bool:
        trace = forward_pruned(self.weights, self.seq, self.keep_all[i % 2])
        full = (trace.logits, trace.hidden[-1])
        full_ok = all(kept.size == self.v0 for _, kept in trace.kept_masks)
        trace = forward_pruned(self.weights, self.seq, self.schedule)
        pdrop = [trace.logits] + [kept for _, kept in trace.kept_masks]
        counts = [kept.size for kept in pdrop[1:]]
        if self.full_reference is None:
            self.full_reference, self.pdrop_reference = full, pdrop
        return (
            full_ok
            and all(np.array_equal(a, b) for a, b in zip(full, self.full_reference))
            and all(np.array_equal(a, b) for a, b in zip(pdrop, self.pdrop_reference))
            and counts == list(self.schedule.stage_token_counts[1:])
        )

    def diagnostics(self) -> dict:
        return prefill_diagnostics(self.cfg, self.weights, self.seq, self.schedule, self.seed, reps=3)


class Mid576(Prefill):
    cfg, v0 = MID_CONFIG, 576


class Toy1152(Prefill):
    cfg, v0 = TOY_CONFIG, 1152


class Experiments:
    """The research loop: for one of four fixture seeds per operation,
    write a marker-fixture config (V0=64, random placement), then run
    ``pdrop compare`` and ``pdrop sweep`` in-process through ``cli.main``.
    Digests, pdrop kept masks and the sweep CSV must repeat exactly for a
    repeated fixture seed, and pdrop must keep every marked token."""

    reference_job = "numpy"
    STRATEGIES = "vanilla,pdrop,fastv,random"
    SWEEP = ("--layers", "1,2,4,6", "--ratios", "0.1,0.3,0.5,0.7,0.9")
    V0 = 64

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(4)]
        self.workdir = workdir
        self.reference = {}
        self.recalls = []
        self.model = dataclasses.asdict(TOY_CONFIG)
        # set-up: weights and fixture of every seed, as the CLI builds them
        self.prepared = [prepare(spec_from_json(self._config(s))) for s in self.seeds]

    def _config(self, seed: int) -> dict:
        fixture = {"image_tokens": self.V0, "marked_placement": "random"}
        return {"model": self.model, "seed": seed, "fixture": fixture}

    def op(self, i: int) -> bool:
        slot = i % len(self.seeds)
        seed = self.seeds[slot]
        config = os.path.join(self.workdir, f"config{slot}.json")
        compared = os.path.join(self.workdir, f"compare{slot}.json")
        swept = os.path.join(self.workdir, f"sweep{slot}.csv")
        with open(config, "w") as fh:
            json.dump(self._config(seed), fh)
        if cli.main(["compare", "--config", config, "--strategies", self.STRATEGIES,
                     "--out", compared]) != 0:
            return False
        if cli.main(["sweep", "--config", config, *self.SWEEP, "--out", swept]) != 0:
            return False
        with open(compared) as fh:
            reports = json.load(fh)
        with open(swept) as fh:
            sweep_csv = fh.read()
        pdrop = [r for r in reports if r["strategy"] == "pdrop"]
        recall = pdrop[0]["recall"] if len(pdrop) == 1 else 0.0
        self.recalls.append(recall)
        got = ([r["digest"] for r in reports], [r["stages"] for r in pdrop], sweep_csv)
        return got == self.reference.setdefault(seed, got) and recall == 1.0

    def diagnostics(self) -> dict:
        weights, seq, _ = self.prepared[0]
        schedule = build_schedule(TOY_CONFIG.num_layers, STAGES, KEEP_RATIO, self.V0)
        return prefill_diagnostics(TOY_CONFIG, weights, seq, schedule, self.seeds[0], reps=3)


# (V0, S, lambda, expected TFLOPs) from the paper's 7B table
PINNED_STAGED = [
    (576, 4, 0.5, 1.78), (576, 4, 0.4, 1.54), (576, 4, 0.6, 2.06),
    (2880, 4, 0.5, 9.46), (2880, 4, 0.4, 8.22), (2880, 4, 0.6, 11.0),
    (5184, 4, 0.5, 18.1),
]
PINNED_VANILLA = [(576, 3.82), (2880, 20.8), (5184, 40.6)]


def _within_table(flops: int, expected: float) -> bool:
    # table values carry 3 significant figures
    return abs(tera(flops) - expected) <= 0.005 * expected


def pinned_table_ok() -> bool:
    """The cost model against the paper's 7B table (criteria C1-C6)."""
    ok = all(
        _within_table(schedule_cost(build_schedule(J7B, s, r, v0), D7B, M7B).total, t)
        for v0, s, r, t in PINNED_STAGED
    )
    ok &= all(_within_table(J7B * layer_flops(v0, D7B, M7B), t) for v0, t in PINNED_VANILLA)
    fastv = strategy_cost(SingleEarlyDrop(2, 0.5), J7B, 576, D7B, M7B)
    ok &= _within_table(fastv.total, 2.01) and fastv.avg_tokens == 306.0
    ok &= _within_table(strategy_cost(UniformCompression(288), J7B, 576, D7B, M7B).total, 1.89)
    ok &= strategy_cost(PyramidDrop(4, 0.5), J7B, 576, D7B, M7B).avg_tokens == 270.0
    return ok and theoretical_saving(0.5, 4) == 0.46875


class CostGrid:
    """Closed-form costs at 7B geometry over V0 in {576, 2880, 5184},
    S in 1..8 and a keep-ratio grid (0.1..0.9 plus three seeded values):
    per cell ``build_schedule`` + ``schedule_cost``, ``theoretical_saving``
    and ``strategy_cost`` for all five strategies. Set-up includes one
    pass, whose values every later pass must repeat exactly."""

    reference_job = "objects"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seed = seed
        self.ratios = [k / 10 for k in range(1, 10)] + sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        self.reference = self.evaluate()

    def evaluate(self) -> list:
        values = []
        for v0 in GRID_V0:
            for s in GRID_STAGES:
                for r in self.ratios:
                    values.append(schedule_cost(build_schedule(J7B, s, r, v0), D7B, M7B).total)
                    values.append(theoretical_saving(r, s))
                    for strategy in (Vanilla(), PyramidDrop(s, r), SingleEarlyDrop(2, r),
                                     UniformCompression(int(r * v0)), RandomDrop(s, r, self.seed)):
                        values.append(strategy_cost(strategy, J7B, v0, D7B, M7B).total)
        return values

    def op(self, i: int) -> bool:
        return self.evaluate() == self.reference and pinned_table_ok()

    def diagnostics(self) -> dict:
        """Modeled values only: a 7B forward does not fit this benchmark."""
        schedule = build_schedule(J7B, STAGES, KEEP_RATIO, GRID_V0[0])
        return {
            "modeled_ratio": schedule_cost(schedule, D7B, M7B).ratio,
            "stages": [
                {"layers": layers, "tokens": tokens, "layer_ms": 0.0,
                 "layer_flops": layer_flops(tokens, D7B, M7B)}
                for layers, tokens in zip(schedule.stage_layer_counts, schedule.stage_token_counts)
            ],
        }


WORKLOADS = {
    "prefill_mid576": Mid576,
    "prefill_toy1152": Toy1152,
    "experiments_toy64": Experiments,
    "cost_grid": CostGrid,
}
