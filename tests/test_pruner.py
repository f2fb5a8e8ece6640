import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdrop.cli import main
from pdrop.errors import ConfigError, InputError, ShapeError
from pdrop.numkernel import RngState
from pdrop.pruner import (
    PyramidDrop,
    RandomDrop,
    SingleEarlyDrop,
    StageSchedule,
    UniformCompression,
    Vanilla,
    build_schedule,
    decide,
    keep_all_schedule,
    rank_image_tokens,
)


class TestBuildSchedule:
    def test_paper_default_geometry(self):
        s = build_schedule(32, 4, 0.5, 576)
        assert s.boundary_layers == (8, 16, 24)
        assert s.stage_token_counts == (576, 288, 144, 72)
        assert s.stage_layer_counts == (8, 8, 8, 8)

    def test_low_ratio_counts(self):
        s = build_schedule(32, 4, 0.4, 2880)
        assert s.stage_token_counts == (2880, 1152, 460, 184)

    def test_single_stage_is_vanilla(self):
        s = build_schedule(32, 1, 0.5, 576)
        assert s.boundary_layers == ()
        assert s.stage_token_counts == (576,)

    def test_remainder_layers_go_to_last_stage(self):
        s = build_schedule(10, 3, 0.5, 64)
        assert s.stage_layer_counts == (3, 3, 4)
        assert s.boundary_layers == (3, 6)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            build_schedule(4, 5, 0.5, 10)
        with pytest.raises(ConfigError):
            build_schedule(8, 2, 0.0, 10)
        with pytest.raises(ConfigError):
            build_schedule(8, 2, 1.5, 10)
        with pytest.raises(ConfigError):
            build_schedule(8, 2, 0.5, -1)

    @pytest.mark.parametrize("layers, tokens", [
        ((), ()), ((8, 8), (16,)), ((8,), (-1,)), ((8, 0), (16, 8)), ((0,), (16,)),
        ((4, 4), (8, 9)),
    ])
    def test_invalid_schedule_rejected(self, layers, tokens):
        with pytest.raises(ConfigError):
            StageSchedule(layers, tokens)

    def test_boundaries_derived_from_layer_counts(self):
        assert StageSchedule((2, 3, 3), (16, 8, 0)).boundary_layers == (2, 5)
        assert keep_all_schedule(8, 16) == StageSchedule((8,), (16,))
        with pytest.raises(ConfigError):
            keep_all_schedule(0, 16)
        with pytest.raises(ConfigError):
            keep_all_schedule(8, -1)

    def test_ratio_robust_to_float_noise(self):
        # 0.4 * 345 must not ceil to 139 through binary representation
        s = build_schedule(8, 2, 0.6, 345)
        assert s.stage_token_counts == (345, 207)

    @settings(max_examples=300)
    @given(st.integers(1, 48), st.data())
    def test_ceiling_drop_recurrence(self, num_layers, data):
        stages = data.draw(st.integers(1, num_layers))
        ratio = data.draw(st.floats(0.05, 1.0))
        v0 = data.draw(st.integers(0, 4000))
        s = build_schedule(num_layers, stages, ratio, v0)
        assert sum(s.stage_layer_counts) == num_layers
        assert s.stage_token_counts[0] == v0
        frac = Fraction(ratio).limit_denominator(1_000_000)
        for a, b in zip(s.stage_token_counts, s.stage_token_counts[1:]):
            assert b == a - math.ceil((1 - frac) * a)
            assert b <= a
        assert all(x < y for x, y in zip(s.boundary_layers, s.boundary_layers[1:]))
        assert all(b < num_layers for b in s.boundary_layers)

    @settings(max_examples=300)
    @given(v0=st.one_of(st.integers(0, 69), st.sampled_from([345, 576, 1152, 2880, 5184, 10**6 + 7]),
                        st.integers(0, 10**7)),
           stages=st.integers(1, 8),
           ratio=st.floats(0.0, 1.0, exclude_min=True))
    @example(v0=345, stages=8, ratio=1 / 3)
    @example(v0=10**6 + 7, stages=8, ratio=0.1 + 0.2)
    @example(v0=10**6 + 7, stages=8, ratio=1e-7)
    @example(v0=10**6 + 7, stages=8, ratio=0.9999995)
    def test_integer_recurrence_matches_per_stage_fraction_form(self, v0, stages, ratio):
        # the recurrence as it was written: the float ratio snapped to a
        # Fraction again at every stage, and the drop count a Fraction ceiling
        tokens = [v0]
        for _ in range(stages - 1):
            drop = math.ceil((1 - Fraction(ratio).limit_denominator(10**6)) * tokens[-1])
            tokens.append(tokens[-1] - drop)
        assert build_schedule(8, stages, ratio, v0).stage_token_counts == tuple(tokens)


class TestRanking:
    # keys are in the attention kernel's transposed layout (heads, head_dim, V)
    def test_single_head_unit_dim(self):
        scores = rank_image_tokens(np.array([[1.0]]), np.array([[[2.0, 0.0, -1.0]]]))
        assert scores.dtype == np.float64
        assert np.allclose(scores, [2.0, 0.0, -1.0])

    def test_head_averaging(self):
        q = np.array([[1.0], [1.0]])
        k = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert np.allclose(rank_image_tokens(q, k), [0.5, 0.5])

    def test_scale_by_sqrt_head_dim(self):
        q = np.array([[1.0, 1.0, 1.0, 1.0]])
        k = np.array([[[1.0], [1.0], [1.0], [1.0]]])
        assert rank_image_tokens(q, k)[0] == pytest.approx(2.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            rank_image_tokens(np.zeros((1, 4)), np.zeros((2, 4, 3)))
        with pytest.raises(ShapeError):
            rank_image_tokens(np.zeros((1, 4)), np.zeros((1, 2, 3)))
        with pytest.raises(ShapeError):
            rank_image_tokens(np.zeros((1, 4)), np.zeros((1, 3, 4)))  # (heads, V, head_dim)
        with pytest.raises(ShapeError):
            rank_image_tokens(np.zeros((0, 4)), np.zeros((0, 4, 3)))


class TestDecide:
    def test_top2_of_four(self):
        s = build_schedule(4, 2, 0.5, 4)
        assert list(decide(np.array([0.9, 0.1, 0.8, 0.2]), s, 0)) == [0, 2]

    def test_keep_all_ratio(self):
        s = build_schedule(4, 2, 1.0, 4)
        assert list(decide(np.zeros(4), s, 0)) == [0, 1, 2, 3]

    def test_all_equal_scores_keep_lowest_positions(self):
        s = build_schedule(32, 4, 0.5, 576)
        assert list(decide(np.zeros(576), s, 0)) == list(range(288))

    def test_stage_out_of_range(self):
        s = build_schedule(8, 2, 0.5, 4)
        with pytest.raises(ConfigError):
            decide(np.zeros(4), s, 1)

    def test_score_count_mismatch(self):
        s = build_schedule(8, 2, 0.5, 4)
        with pytest.raises(ConfigError):
            decide(np.zeros(3), s, 0)

    def test_permutation_equivariance_bruteforce(self):
        rng = RngState(17)
        for v0 in range(2, 7):
            schedule = build_schedule(4, 2, 0.5, v0)
            scores = rng.uniforms(v0)  # distinct with prob 1
            base = set(decide(scores, schedule, 0).tolist())
            for perm in itertools.permutations(range(v0)):
                perm = np.array(perm)
                # permuting the rows permutes the kept rows the same way
                permuted = decide(scores[perm], schedule, 0)
                assert {int(perm[i]) for i in permuted} == base

    def test_monotone_ranking_invariance(self):
        rng = RngState(23)
        schedule = build_schedule(4, 2, 0.5, 6)
        scores = rng.normals(6)
        base = decide(scores, schedule, 0)
        for f in (np.exp, lambda x: 3 * x + 7, np.tanh, lambda x: x**3):
            assert np.array_equal(decide(f(scores), schedule, 0), base)

    @pytest.mark.parametrize("scores", [[np.inf, 1.0, np.nan, 3.0], [np.nan] * 4, [0.0, -np.inf, 1.0, 2.0]])
    def test_non_finite_scores_rejected(self, scores):
        with pytest.raises(InputError, match="non-finite"):
            decide(np.array(scores), build_schedule(4, 2, 0.5, 4), 0)


def layer_counts(strategy, num_layers=32, num_image_tokens=576):
    s = strategy.schedule(num_layers, num_image_tokens)
    return np.repeat(s.stage_token_counts, s.stage_layer_counts)


class TestApplyStrategy:
    """Per-layer image-token counts that each strategy's schedule applies."""

    def test_single_early_drop_counts(self):
        counts = layer_counts(SingleEarlyDrop(drop_layer=2, keep_ratio=0.5))
        assert list(counts[:2]) == [576, 576]
        assert set(counts[2:]) == {288}
        assert counts.mean() == pytest.approx(306.0)

    def test_pyramid_average_tokens(self):
        counts = layer_counts(PyramidDrop(stages=4, keep_ratio=0.5))
        assert counts.mean() == pytest.approx(270.0)

    def test_vanilla_constant(self):
        counts = layer_counts(Vanilla())
        assert set(counts) == {576} and counts.mean() == 576
        assert Vanilla().schedule(32, 576) == build_schedule(32, 1, 1.0, 576)

    def test_uniform_constant(self):
        assert set(layer_counts(UniformCompression(288))) == {288}
        with pytest.raises(ConfigError, match="cost-only"):
            UniformCompression(288).ranker(0)

    def test_random_matches_pyramid_counts(self):
        a = RandomDrop(stages=4, keep_ratio=0.5, seed=9).schedule(32, 576)
        assert a == PyramidDrop(stages=4, keep_ratio=0.5).schedule(32, 576)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            layer_counts(SingleEarlyDrop(drop_layer=32, keep_ratio=0.5))
        with pytest.raises(ConfigError):
            layer_counts(SingleEarlyDrop(drop_layer=2, keep_ratio=1.5))
        with pytest.raises(ConfigError):
            layer_counts(UniformCompression(-1))


def test_single_drop_schedule_validation():
    s = SingleEarlyDrop(drop_layer=2, keep_ratio=0.5).schedule(8, 16)
    assert s == StageSchedule((2, 6), (16, 8))
    assert s.boundary_layers == (2,)
    assert SingleEarlyDrop(drop_layer=7, keep_ratio=0.0).schedule(8, 16) == StageSchedule((7, 1), (16, 0))
    for drop_layer in (0, 8):
        with pytest.raises(ConfigError):
            SingleEarlyDrop(drop_layer=drop_layer, keep_ratio=0.5).schedule(8, 16)
    with pytest.raises(ConfigError):
        SingleEarlyDrop(drop_layer=2, keep_ratio=-0.1).schedule(8, 16)


@pytest.mark.parametrize("v0", [100, 576, 2880, 5184])
def test_single_drop_keeps_the_staged_count(v0):
    # one keep-count rule: floor(0.7 * 2880) in floats is 2015, not 2016
    for k in range(1, 101):
        kept = SingleEarlyDrop(2, k / 100).schedule(8, v0).stage_token_counts[1]
        assert kept == build_schedule(8, 2, k / 100, v0).stage_token_counts[1], k


def test_schedule_json_dump(capsys):
    # The schedule's JSON form is built by `pdrop schedule`; key order is part of it.
    assert main(["schedule", "--layers", "32", "--stages", "4",
                 "--lambda", "0.5", "--tokens", "576"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "boundaries": [8, 16, 24],
        "stage_layers": [8, 8, 8, 8],
        "stage_tokens": [576, 288, 144, 72],
        "lambda": 0.5,
        "stages": 4,
    }
    assert list(obj) == ["boundaries", "stage_layers", "stage_tokens", "lambda", "stages"]
