"""Acceptance suite: one test per criterion, each printing a pass line.

Quantitative criteria check the cost model against the published
table values (3 significant figures, within 0.5%); property criteria
check forward equivalences, schedule arithmetic, ranking invariances,
and marker-recall behavior. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from layerstates import layer_states
from maskoracle import masked_pruned_forward
from pdrop.costmodel import layer_flops, schedule_cost, strategy_cost, tera, theoretical_saving
from pdrop.harness import (
    ExperimentSpec,
    FixtureSpec,
    run_compare,
    run_layer_sweep,
    simulate_random_recall,
)
from pdrop.layout import build_sequence
from pdrop.numkernel import RngState, derive_seed
from pdrop.pruner import (
    PyramidDrop,
    SingleEarlyDrop,
    UniformCompression,
    build_schedule,
    decide,
    keep_all_schedule,
)
from pdrop.toymodel import TOY_CONFIG, forward_pruned, init_model, inject_at_boundary

D7B, M7B, J7B = 4096, 11008, 32


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def tera_of(schedule):
    return tera(schedule_cost(schedule, D7B, M7B).total)


def check_tera(actual: float, expected: float):
    assert abs(actual - expected) <= 0.005 * expected, (actual, expected)


def random_sequence(v0, seed):
    rng = RngState(derive_seed(seed, 7))
    emb = rng.normals(v0 * 64, 0.5).reshape(v0, 64)
    return build_sequence(emb, [1, 2, 3], [4, 5])


def test_c1_vanilla_llava15_flops():
    value = tera(32 * layer_flops(576, D7B, M7B))
    check_tera(value, 3.82)
    report("criterion 1", f"32 x layer_flops(576) = {value}T (expected 3.82T)")


def test_c2_staged_flops_llava15():
    for ratio, expected in [(0.5, 1.78), (0.4, 1.54), (0.6, 2.06)]:
        value = tera_of(build_schedule(J7B, 4, ratio, 576))
        check_tera(value, expected)
    report("criterion 2", "V0=576 staged totals 1.78T / 1.54T / 2.06T for ratio 0.5/0.4/0.6")


def test_c3_staged_flops_next_5patch():
    vanilla = tera(32 * layer_flops(2880, D7B, M7B))
    check_tera(vanilla, 20.8)
    for ratio, expected in [(0.5, 9.46), (0.4, 8.22), (0.6, 11.0)]:
        value = tera_of(build_schedule(J7B, 4, ratio, 2880))
        check_tera(value, expected)
    report("criterion 3", "V0=2880 vanilla 20.8T; staged 9.46T / 8.22T / 11.0T")


def test_c4_staged_flops_next_9patch():
    vanilla = tera(32 * layer_flops(5184, D7B, M7B))
    check_tera(vanilla, 40.6)
    value = tera_of(build_schedule(J7B, 4, 0.5, 5184))
    check_tera(value, 18.1)
    report("criterion 4", "V0=5184 vanilla 40.6T; staged 18.1T")


def test_c5_baseline_strategy_costs():
    fastv = strategy_cost(SingleEarlyDrop(drop_layer=2, keep_ratio=0.5), J7B, 576, D7B, M7B)
    check_tera(tera(fastv.total), 2.01)
    assert fastv.avg_tokens == 306.0
    uniform = strategy_cost(UniformCompression(288), J7B, 576, D7B, M7B)
    check_tera(tera(uniform.total), 1.89)
    pdrop = strategy_cost(PyramidDrop(4, 0.5), J7B, 576, D7B, M7B)
    assert pdrop.avg_tokens == 270.0
    report("criterion 5", "single-early 2.01T @ 306 avg; uniform 1.89T; staged avg 270")


def test_c6_theoretical_saving():
    value = theoretical_saving(0.5, 4)
    assert value == 0.46875
    saving_pct = 100.0 * (1.0 - value)
    assert abs(saving_pct - 53.2) <= 0.1 + 1e-12
    report("criterion 6", f"saving fraction {value} -> {saving_pct}% (paper: nearly 53.2%)")


def max_rel_error(hidden, ref):
    return float((np.abs(hidden - ref) / np.maximum(np.abs(ref), 1e-12)).max())


def test_c7_no_drop_equivalence():
    weights = init_model(TOY_CONFIG, 77)
    keep_all = keep_all_schedule(8, 12)
    schedule = build_schedule(8, 4, 1.0, 12)
    worst = 0.0
    for seed in range(20):
        seq = random_sequence(12, seed)
        full = forward_pruned(weights, seq, keep_all)
        pruned = forward_pruned(weights, seq, schedule)
        assert np.array_equal(pruned.logits, full.logits)
        layers = range(1, 9)
        assert all(np.array_equal(a, b) for a, b in zip(
            layer_states(weights, seq, schedule, layers),
            layer_states(weights, seq, keep_all, layers)))
        oracle_hidden, oracle_kept, _ = masked_pruned_forward(weights, seq, keep_all)
        assert oracle_kept == []
        worst = max(worst, max_rel_error(full.hidden[-1], oracle_hidden[full.positions]))
    assert worst < 1e-9
    report("criterion 7", "S=4 keep-all forward bit-identical to the S=1 forward, which "
           f"matches the masking oracle, 20 seeds (worst rel {worst:.2e})")


def test_c8_mask_oracle_equivalence():
    # the last schedule's stages go (16, 1, 0, 0): boundaries that keep one
    # image token, then none
    schedules = [build_schedule(8, 4, 0.5, 16), build_schedule(8, 4, 0.5, 64),
                 build_schedule(8, 4, 0.1, 16)]
    for schedule in schedules:
        worst = 0.0
        for seed in range(20):
            weights = init_model(TOY_CONFIG, 1000 + seed)
            seq = random_sequence(schedule.stage_token_counts[0], 2000 + seed)
            pruned = forward_pruned(weights, seq, schedule)
            oracle_hidden, oracle_kept, _ = masked_pruned_forward(weights, seq, schedule)
            assert [set(k.tolist()) for _, k in pruned.kept_masks] == [set(k) for k in oracle_kept]
            worst = max(worst, max_rel_error(pruned.hidden[-1], oracle_hidden[pruned.positions]))
        assert worst < 1e-9
        report("criterion 8", f"physical drop vs masking oracle agree, stages "
               f"{schedule.stage_token_counts}, 20 seeds (worst rel {worst:.2e})")


def test_c9_dropped_token_insensitivity():
    weights = init_model(TOY_CONFIG, 88)
    for v0 in (16, 32):
        seq = random_sequence(v0, 42 + v0)
        schedule = build_schedule(8, 4, 0.5, v0)
        base = forward_pruned(weights, seq, schedule)
        garbage = RngState(5).normals(TOY_CONFIG.hidden_size, 10.0)
        survivors = set(range(v0))
        checked = 0
        for layer, kept in base.kept_masks:
            after = range(layer + 1, 9)
            base_states = layer_states(weights, seq, schedule, after)
            for token in sorted(survivors - set(kept.tolist())):
                injected = inject_at_boundary(weights, seq, schedule, layer, token, garbage)
                assert np.array_equal(injected.logits, base.logits)
                injected_states = layer_states(weights, seq, schedule, after,
                                               inject=(layer, token, garbage))
                assert all(np.array_equal(a, b) for a, b in zip(injected_states, base_states))
                checked += 1
            survivors = set(kept.tolist())
        assert checked == v0 - schedule.stage_token_counts[-1]
    report("criterion 9", "boundary injection into every dropped token leaves states bit-identical")


def test_c10_schedule_counts():
    assert build_schedule(32, 4, 0.5, 576).stage_token_counts == (576, 288, 144, 72)
    rng = RngState(4242)
    for _ in range(1000):
        num_layers = 1 + int(rng.uniforms(1)[0] * 48)
        stages = 1 + int(rng.uniforms(1)[0] * num_layers) % num_layers
        ratio = 0.02 + 0.98 * float(rng.uniforms(1)[0])
        v0 = int(rng.uniforms(1)[0] * 4000)
        schedule = build_schedule(num_layers, stages, ratio, v0)
        frac = Fraction(ratio).limit_denominator(1_000_000)
        counts = schedule.stage_token_counts
        assert counts[0] == v0
        for a, b in zip(counts, counts[1:]):
            assert b == a - math.ceil((1 - frac) * a)
    report("criterion 10", "default schedule = (576, 288, 144, 72); recurrence holds on 1000 draws")


def test_c11_decide_invariances():
    rng = RngState(99)
    schedule_cache = {}
    for v0 in range(2, 7):
        schedule = schedule_cache.setdefault(v0, build_schedule(4, 2, 0.5, v0))
        scores = rng.uniforms(v0)
        base = set(decide(scores, schedule, 0).tolist())
        for perm in itertools.permutations(range(v0)):
            perm = np.array(perm)
            permuted = decide(scores[perm], schedule, 0)
            assert {int(perm[i]) for i in permuted} == base
        for f in (np.exp, lambda x: 5 * x + 3, np.tanh):
            assert set(decide(f(scores), schedule, 0).tolist()) == base
    report("criterion 11", "decide is permutation-equivariant and monotone-invariant, V0 <= 6")


def test_c12_marker_recall():
    spec = ExperimentSpec(model=TOY_CONFIG, seed=7,
                          fixture=FixtureSpec(image_tokens=64, marked_count=4),
                          strategies=[PyramidDrop(4, 0.5)])
    assert run_compare(spec)[0].recall == 1.0
    marked = np.array([60, 61, 62, 63])
    recalls = [simulate_random_recall(64, 4, 0.5, marked, seed) for seed in range(1000)]
    mean = float(np.mean(recalls))
    expected = 8 / 64
    assert abs(mean - expected) <= 0.03
    report("criterion 12",
           f"ranked recall 1.0; random mean recall {mean:.4f} vs hypergeometric {expected}")


def test_c13_later_is_safer():
    onset = TOY_CONFIG.num_layers // 2
    spec = ExperimentSpec(model=TOY_CONFIG, seed=7,
                          fixture=FixtureSpec(image_tokens=64, marked_count=4),
                          sweep_layers=list(range(1, TOY_CONFIG.num_layers)),
                          sweep_ratios=[0.1],
                          margin_onset_layer=onset)
    rows = run_layer_sweep(spec)
    early = float(np.mean([r.recall for r in rows if r.layer < onset]))
    late = float(np.mean([r.recall for r in rows if r.layer >= onset]))
    assert early < late
    report("criterion 13",
           f"mean recall {early:.3f} below onset layer {onset}, {late:.3f} at or above")
