import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrop.errors import ConfigError
from pdrop.numkernel import (
    EXP_SAFE,
    RngState,
    arg_topk,
    derive_seed,
    gaussian_init,
    rmsnorm_rows,
    rope_rotate_rows,
    rope_table,
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

    def test_last_axis_of_3d_input_in_place(self):
        a = RngState(3).normals(2 * 3 * 5).reshape(2, 3, 5)
        expected = np.stack([softmax_rows(plane) for plane in a])
        out = softmax_rows(a, out=a)
        assert out is a
        assert np.array_equal(a, expected)
        assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-12)

    def test_neg_inf_weighted_zero_in_place(self):
        a = np.array([[[0.0, -np.inf, 0.0], [1.0, 2.0, -np.inf]]])
        softmax_rows(a, out=a)
        assert a[0, 0].tolist() == [0.5, 0.0, 0.5]
        assert a[0, 1, 2] == 0.0 and a[0, 1, :2].sum() == pytest.approx(1.0)

    def test_deferred_division_matches_normalised_rows(self):
        # with sums=, each row stays exp(a - max) and its sum goes to sums;
        # scaling by 1/sums gives the normalised route, and -inf still weighs 0
        a = RngState(41).normals(3 * 4 * 9, 5.0).reshape(3, 4, 9)
        a[0, 1, 4:] = -np.inf
        a[2, 3, ::2] = -np.inf
        sums = np.full((3, 4, 1), np.nan)
        out = softmax_rows(a.copy(), sums=sums)
        assert np.all(out.max(axis=-1) == 1.0)  # the row maximum's exp(0)
        assert np.array_equal(sums, out.sum(axis=-1, keepdims=True))
        weights = out * (1.0 / sums)
        assert np.abs(weights - softmax_rows(a)).max() <= 1e-15
        assert np.all(weights[np.isneginf(a)] == 0.0)


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

    def test_out_buffer_bit_identical(self):
        rng = RngState(29)
        a = rng.normals(5 * 8).reshape(5, 8)
        gain = rng.normals(8)
        buffer = np.full(6 * 8, np.nan)
        out = rmsnorm_rows(a, gain, 1e-6, out=buffer[:40].reshape(5, 8))
        assert np.shares_memory(out, buffer)
        assert np.array_equal(out, rmsnorm_rows(a, gain, 1e-6))

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            rmsnorm_rows(np.zeros((1, 4)), np.ones(3), 1e-6)
        with pytest.raises(ConfigError):
            rmsnorm_rows(np.zeros(4), np.ones(4), 1e-6)


class TestReductionsBitIdentical:
    """rmsnorm_rows and softmax_rows call np.add.reduce and np.maximum.reduce
    themselves and divide by the row width; their results equal, bit for
    bit, the np.mean, np.max and np.sum formulas those calls replace, and
    softmax_rows under a bound of at most EXP_SAFE equals np.exp and
    np.sum."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 64), (5, 7), (69, 64), (33, 256)])
    def test_rmsnorm_rows(self, shape):
        rng = RngState(derive_seed(51, *shape))
        a = rng.normals(shape[0] * shape[1], 4.0).reshape(shape)
        gain = rng.normals(shape[1])
        for eps in (1e-6, 1e-300):
            want = a * gain / np.sqrt(np.mean(a * a, axis=-1, keepdims=True) + eps)
            assert np.array_equal(rmsnorm_rows(a, gain, eps), want)
            assert np.array_equal(rmsnorm_rows(a, gain, eps, out=np.full(shape, np.nan)), want)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (6, 9), (4, 33, 70)])
    def test_softmax_rows(self, shape):
        a = RngState(derive_seed(53, *shape)).normals(math.prod(shape), 5.0).reshape(shape)
        rows = a.reshape(-1, shape[-1])  # a view of a
        rows[-1, 1:] = -np.inf  # one finite entry left
        if rows.shape[0] > 2:
            rows[0, ::2] = -np.inf
            rows[1] = -np.inf  # fully masked: NaN by either route
        live = ~np.isneginf(a).all(axis=-1, keepdims=True)
        top = np.abs(a[np.isfinite(a)]).max()
        with np.errstate(invalid="ignore", divide="ignore"):
            weights = np.exp(a - np.max(a, axis=-1, keepdims=True))
            sums = np.sum(weights, axis=-1, keepdims=True)
            # no bound, or one that does not prove exp safe: the shifted steps
            for bound in (None, np.nextafter(EXP_SAFE, np.inf), 1e300, np.nan, np.inf):
                got_sums = np.full(sums.shape, np.nan)
                assert np.array_equal(softmax_rows(a, bound=bound), weights / sums, equal_nan=True)
                assert np.array_equal(softmax_rows(a, sums=got_sums, bound=bound), weights,
                                      equal_nan=True)
                assert np.array_equal(got_sums, sums, equal_nan=True)
            # a bound of at most EXP_SAFE: exp(a) and its sum, unshifted
            unshifted = np.exp(a)
            unshifted_sums = np.sum(unshifted, axis=-1, keepdims=True)
            for bound in (top, EXP_SAFE):
                got_sums = np.full(sums.shape, np.nan)
                assert np.array_equal(softmax_rows(a, bound=bound), unshifted / unshifted_sums,
                                      equal_nan=True)
                assert np.array_equal(softmax_rows(a, sums=got_sums, bound=bound), unshifted)
                assert np.array_equal(got_sums, unshifted_sums)
            # either route's deferred division is the normalised softmax, to
            # rounding, and a -inf entry of a row with a finite one weighs 0
            for bound in (None, EXP_SAFE):
                got_sums = np.full(sums.shape, np.nan)
                deferred = softmax_rows(a, sums=got_sums, bound=bound) * (1.0 / got_sums)
                assert np.allclose(deferred, weights / sums, rtol=0.0, atol=1e-15, equal_nan=True)
                assert np.all(deferred[np.isneginf(a) & live] == 0.0)


class TestRopeRotate:
    def test_zero_position_is_identity(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert np.allclose(rope_rotate_rows(x, rope_table(np.array([0]), 4, 10000.0)), x,
                           atol=1e-15)

    def test_single_pair_is_plain_rotation(self):
        # each row turns by its own position
        out = rope_rotate_rows(np.array([[1.0, 0.0], [1.0, 0.0]]),
                               rope_table(np.array([3, 5]), 2, 123.0))
        assert np.allclose(out, [[math.cos(3), math.sin(3)], [math.cos(5), math.sin(5)]],
                           atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            rope_rotate_rows(np.zeros((1, 3)), rope_table(np.array([1]), 2, 10000.0))
        with pytest.raises(ConfigError):
            rope_table(np.array([1]), 3, 10000.0)

    def test_heads_broadcast_bit_identical_to_per_head(self):
        rng = RngState(31)
        x = rng.normals(7 * 4 * 16).reshape(7, 4, 16)
        positions = np.array([0, 1, 2, 5, 9, 40, 1000])
        out = rope_rotate_rows(x, rope_table(positions[:, None], 16, 10000.0))
        for head in range(4):
            assert np.array_equal(out[:, head],
                                  rope_rotate_rows(x[:, head], rope_table(positions, 16, 10000.0)))

    def test_strided_out_bit_identical(self):
        # rotated straight into a head-major buffer, through its (n, heads,
        # head_dim) view
        rng = RngState(37)
        x = rng.normals(7 * 4 * 16).reshape(7, 4, 16)
        table = rope_table(np.array([0, 1, 2, 5, 9, 40, 1000])[:, None], 16, 10000.0)
        head_major = np.empty((4, 7, 16))
        rope_rotate_rows(x, table, out=head_major.transpose(1, 0, 2))
        assert np.array_equal(head_major.transpose(1, 0, 2), rope_rotate_rows(x, table))

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16).filter(lambda v: len(v) % 2 == 0),
           st.integers(0, 5000))
    def test_norm_preserved(self, vec, position):
        x = np.array([vec, vec[::-1]])
        out = rope_rotate_rows(x, rope_table(np.array([position, 2 * position]), len(vec), 10000.0))
        assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), atol=1e-12)

    def test_table_bit_identical_to_per_call_formula(self):
        # one table shared by q and k gives, bit for bit, the rotation that
        # computed its angles and products afresh in each call
        rng = RngState(43)
        q, k = rng.normals(2 * 9 * 4 * 16).reshape(2, 9, 4, 16)
        positions = np.array([0, 1, 3, 7, 64, 100, 1151, 1156, 5188])
        pair = np.arange(8, dtype=np.float64)
        ang = positions.astype(np.float64)[:, None, None] * 10000.0 ** (-2.0 * pair / 16)
        cos, sin = np.cos(ang), np.sin(ang)
        table = rope_table(positions[:, None], 16, 10000.0)
        buffers = np.full(2 * 9 * 4 * 16 + 9 * 4 * 8, np.nan)
        for x, out in ((q, buffers[:576].reshape(9, 4, 16)),
                       (k, buffers[576:1152].reshape(4, 16, 9).transpose(2, 0, 1))):
            expected = np.empty_like(x)
            expected[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
            expected[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
            got = rope_rotate_rows(x, table, out=out, scratch=buffers[1152:].reshape(9, 4, 8))
            assert got is out
            assert np.array_equal(got, expected)

    def test_scratch_may_be_the_even_half(self):
        # the even half is read for the last time before the product the
        # scratch holds, so the rotation may overwrite it in place
        rng = RngState(53)
        x = rng.normals(9 * 4 * 16).reshape(9, 4, 16)
        table = rope_table(np.array([0, 1, 3, 7, 64, 100, 1151, 1156, 5188])[:, None], 16, 10000.0)
        expected = rope_rotate_rows(x, table, scratch=np.empty((9, 4, 8)))
        aliased = x.copy()
        assert np.array_equal(rope_rotate_rows(aliased, table, scratch=aliased[..., 0::2]), expected)

    def test_rotation_into_buffers_allocates_no_products(self):
        # toy V0=1152 rows: each half-width product would take 296 KB; what
        # remains is numpy's iterator buffer for the broadcast table,
        # np.getbufsize() elements whatever the row count. A scratch that is
        # x's own even half takes no copy for the overlap either
        x = RngState(47).normals(1157 * 64).reshape(1157, 4, 16)
        table = rope_table(np.arange(1157)[:, None], 16, 10000.0)
        out = np.empty_like(x)
        for scratch in (np.empty((1157, 4, 8)), x[..., 0::2]):
            tracemalloc.start()
            try:
                rope_rotate_rows(x, table, out=out, scratch=scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * np.getbufsize() + 4096


class TestArgTopk:
    def test_tie_goes_to_lower_index(self):
        assert list(arg_topk(np.array([0.2, 0.9, 0.9, 0.1]), 2)) == [1, 2]

    def test_keep_all(self):
        assert list(arg_topk(np.array([3.0, 1.0, 2.0]), 3)) == [0, 1, 2]

    def test_unique_max(self):
        assert list(arg_topk(np.array([5.0, 1.0, 3.0]), 1)) == [0]

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
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
