import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrop.errors import BoundsError, ConfigError, ShapeError
from pdrop.numkernel import (
    RngState,
    arg_topk,
    derive_seed,
    gaussian_init,
    rmsnorm_rows,
    rope_rotate_rows,
    softmax_rows,
)


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_closed_form_ratio(self):
        out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    @given(st.lists(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
                    min_size=1, max_size=6).filter(lambda r: len({len(x) for x in r}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(np.array(rows))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestRmsnorm:
    def test_unit_rms(self):
        v = np.ones((1, 8))
        assert np.allclose(rmsnorm_rows(v, np.ones(8), 1e-30), v, atol=1e-12)

    def test_hand_case(self):
        out = rmsnorm_rows(np.array([[3.0, 4.0], [0.0, 2.0]]), np.ones(2), 0.0)
        expected = [np.array([3.0, 4.0]) / math.sqrt(12.5), [0.0, math.sqrt(2.0)]]
        assert np.allclose(out, expected, atol=1e-15)

    def test_zero_input(self):
        assert np.array_equal(rmsnorm_rows(np.zeros((2, 4)), np.ones(4), 1e-6), np.zeros((2, 4)))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rmsnorm_rows(np.zeros((1, 4)), np.ones(3), 1e-6)
        with pytest.raises(ShapeError):
            rmsnorm_rows(np.zeros(4), np.ones(4), 1e-6)


class TestRopeRotate:
    def test_zero_position_is_identity(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert np.allclose(rope_rotate_rows(x, np.array([0]), 10000.0), x, atol=1e-15)

    def test_single_pair_is_plain_rotation(self):
        # each row turns by its own position
        out = rope_rotate_rows(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([3, 5]), 123.0)
        assert np.allclose(out, [[math.cos(3), math.sin(3)], [math.cos(5), math.sin(5)]],
                           atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            rope_rotate_rows(np.zeros((1, 3)), np.array([1]), 10000.0)

    def test_heads_broadcast_bit_identical_to_per_head(self):
        rng = RngState(31)
        x = rng.normals(7 * 4 * 16).reshape(7, 4, 16)
        positions = np.array([0, 1, 2, 5, 9, 40, 1000])
        out = rope_rotate_rows(x, positions[:, None], 10000.0)
        for head in range(4):
            assert np.array_equal(out[:, head], rope_rotate_rows(x[:, head], positions, 10000.0))

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16).filter(lambda v: len(v) % 2 == 0),
           st.integers(0, 5000))
    def test_norm_preserved(self, vec, position):
        x = np.array([vec, vec[::-1]])
        out = rope_rotate_rows(x, np.array([position, 2 * position]), 10000.0)
        assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), atol=1e-12)


class TestArgTopk:
    def test_tie_goes_to_lower_index(self):
        assert list(arg_topk(np.array([0.2, 0.9, 0.9, 0.1]), 2)) == [1, 2]

    def test_keep_all(self):
        assert list(arg_topk(np.array([3.0, 1.0, 2.0]), 3)) == [0, 1, 2]

    def test_unique_max(self):
        assert list(arg_topk(np.array([5.0, 1.0, 3.0]), 1)) == [0]

    def test_k_too_large(self):
        with pytest.raises(BoundsError):
            arg_topk(np.array([1.0]), 2)

    @settings(max_examples=200)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=12), st.data())
    def test_lexicographically_smallest_maximal_subset(self, scores, data):
        from fractions import Fraction

        k = data.draw(st.integers(0, len(scores)))
        picked = tuple(int(i) for i in arg_topk(np.array(scores), k))
        exact = [Fraction(s) for s in scores]  # exact sums, no float absorption
        best = max(
            itertools.combinations(range(len(scores)), k),
            key=lambda c: (sum(exact[i] for i in c), tuple(-i for i in c)),
        )
        assert picked == best


class TestRng:
    def test_same_seed_bit_identical(self):
        a = gaussian_init(RngState(42), 7, 5, 0.02)
        b = gaussian_init(RngState(42), 7, 5, 0.02)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gaussian_init(RngState(0), 4, 4, 1.0)
        b = gaussian_init(RngState(1), 4, 4, 1.0)
        assert not np.array_equal(a, b)

    def test_sample_mean_bound(self):
        samples = gaussian_init(RngState(7), 100, 100, 0.02)
        assert abs(samples.mean()) < 4 * 0.02 / 100

    def test_sample_stddev(self):
        samples = gaussian_init(RngState(11), 100, 100, 0.02)
        assert samples.std() == pytest.approx(0.02, rel=0.05)

    def test_identical_call_sequences_reproduce(self):
        a, b = RngState(3), RngState(3)
        assert np.array_equal(a.normals(10), b.normals(10))
        assert np.array_equal(a.normals(7), b.normals(7))
        assert a.counter == b.counter
        # consecutive blocks come from disjoint counter ranges
        assert not np.array_equal(RngState(3).normals(10), a.normals(10))

    def test_nonpositive_stddev_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_init(RngState(0), 2, 2, 0.0)

    def test_uniforms_in_unit_interval(self):
        u = RngState(99).uniforms(10000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_derive_seed_is_stable_and_spreads(self):
        assert derive_seed(5, 1) == derive_seed(5, 1)
        assert derive_seed(5, 1) != derive_seed(5, 2)
        assert derive_seed(5, 1) != derive_seed(6, 1)
