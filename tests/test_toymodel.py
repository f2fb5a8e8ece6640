import threading
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerstates import inject_at_boundary, layer_states
from maskoracle import masked_pruned_forward
from pdrop import layout, numkernel, toymodel
from pdrop.errors import ConfigError
from pdrop.harness import FixtureSpec, make_marker_sequence
from pdrop.layout import MultimodalSequence, build_sequence
from pdrop.numkernel import EXP_SAFE, RngState, derive_seed, rmsnorm_rows, rope_rotate_rows, rope_table
from pdrop.pruner import (
    PyramidDrop,
    RandomDrop,
    SingleEarlyDrop,
    StageSchedule,
    Vanilla,
    build_schedule,
    identity_ranker,
    keep_all_schedule,
)
from pdrop.toymodel import (
    ATTENTION_BLOCK_ROWS,
    TOY_CONFIG,
    LayerWeights,
    ModelConfig,
    _causal_attention,
    _layer_forward,
    _silu,
    _workspace,
    build_marker_model,
    forward_plans,
    forward_pruned,
    init_model,
)


def random_sequence(cfg, v0, seed, instr=3, answer=2):
    rng = RngState(derive_seed(seed, 7))
    emb = rng.normals(v0 * cfg.hidden_size, 0.5).reshape(v0, cfg.hidden_size)
    instruction = 1 + (np.arange(instr) % (cfg.vocab_size - 1))
    ans = 1 + (np.arange(answer) % (cfg.vocab_size - 1))
    return build_sequence(emb, instruction, ans)


def recording_ranker(seen):
    """The default ranker, recording a copy of the scores of each call."""

    def rank(scores, stage):
        seen.append(scores.copy())
        return scores

    return rank


def block_row_scores(q, k, row, n_img):
    """The ranking scores as the attention kernel reads them from post-rotary
    ``q`` and ``k`` (n, heads, head_dim): the head mean of query ``row``'s
    logits against the first ``n_img`` keys, taken from the score block of
    the ATTENTION_BLOCK_ROWS query rows holding ``row``, q scaled first."""
    qh = np.ascontiguousarray(q.transpose(1, 0, 2))
    qh *= 1.0 / np.sqrt(q.shape[2])
    kt = np.ascontiguousarray(k.transpose(1, 2, 0))
    r0 = row - row % ATTENTION_BLOCK_ROWS
    block = np.matmul(qh[:, r0:r0 + ATTENTION_BLOCK_ROWS], kt[:, :, :r0 + ATTENTION_BLOCK_ROWS])
    return block[:, row - r0, :n_img].mean(axis=0)


def scores_within_rounding(got, want, magnitude, head_dim):
    """Whether each score is within head_dim * eps of its oracle's
    ``magnitude``, the score with every product taken in absolute value:
    the rounding of a dot product, which a bound relative to the score
    itself, or to the largest score, does not cover when scores are near
    zero."""
    return bool(np.all(np.abs(got - want) <= head_dim * np.finfo(float).eps * magnitude))


def states_within_rounding(got, want):
    """Whether each final-state entry is within 1e-9 of the largest entry
    of its row in ``want``: the two routes round sums over the whole row,
    so an entry near zero carries noise of the row's scale, which a bound
    relative to the entry itself does not cover."""
    scale = np.abs(want).max(axis=1, keepdims=True)
    return bool(np.all(np.abs(got - want) <= 1e-9 * scale))


def check_against_oracle(weights, seq, schedule):
    """The forward against the mask oracle: equal kept masks, final states
    within 1e-9 of their row's largest entry (``states_within_rounding``),
    and the scores the forward hands an identity ranker within the
    rounding of a dot product of the oracle's (``scores_within_rounding``).
    Returns the oracle's kept sets."""
    seen = []
    pruned = forward_pruned(weights, seq, schedule, ranker=recording_ranker(seen))
    oracle_hidden, oracle_kept, oracle_scores = masked_pruned_forward(weights, seq, schedule)
    assert [k.tolist() for _, k in pruned.kept_masks] == oracle_kept
    assert states_within_rounding(pruned.hidden[-1], oracle_hidden[pruned.positions])
    assert [got.shape for got in seen] == [want.shape for want, _ in oracle_scores]
    for got, (want, magnitude) in zip(seen, oracle_scores):
        assert scores_within_rounding(got, want, magnitude, weights.config.head_dim)
    return oracle_kept


def keep_all_forward(weights, seq):
    schedule = keep_all_schedule(weights.config.num_layers, seq.num_image_tokens)
    return forward_pruned(weights, seq, schedule)


# the benchmark's prefill geometries: toy V0=1152 and mid V0=576
BENCHMARK_GEOMETRIES = [
    (TOY_CONFIG, 1152),
    (ModelConfig(num_layers=16, hidden_size=256, num_heads=8, head_dim=32,
                 ffn_intermediate=688, vocab_size=256), 576),
]


@pytest.fixture(scope="module")
def toy_weights():
    return init_model(TOY_CONFIG, 1234)


class TestInit:
    def test_deterministic(self):
        a = init_model(TOY_CONFIG, 5)
        b = init_model(TOY_CONFIG, 5)
        for la, lb in zip(a.layers, b.layers):
            for ma, mb in zip(vars(la).values(), vars(lb).values()):
                assert np.array_equal(ma, mb)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.head, b.head)

    def test_seeds_differ(self):
        a = init_model(TOY_CONFIG, 0)
        b = init_model(TOY_CONFIG, 1)
        assert not np.array_equal(a.layers[0].w_q, b.layers[0].w_q)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(8, 64, 4, 17, 172, 256)  # d != heads*head_dim, odd head_dim
        with pytest.raises(ConfigError):
            ModelConfig(0, 64, 4, 16, 172, 256)
        # a replaced config is checked as well
        with pytest.raises(ConfigError, match="even"):
            replace(TOY_CONFIG, num_heads=8, head_dim=9, hidden_size=72)
        with pytest.raises(ConfigError, match="at least one layer"):
            replace(TOY_CONFIG, num_layers=0)
        # NaN fails every comparison, so it is refused as well
        for field in ("rope_theta", "rmsnorm_eps"):
            for value in (float("nan"), float("inf"), -float("inf"), 0.0):
                with pytest.raises(ConfigError, match="finite and positive"):
                    replace(TOY_CONFIG, **{field: value})

    def test_weights_bound(self, monkeypatch):
        w = init_model(TOY_CONFIG, 0)
        weights = (sum(a.size for lw in w.layers for a in vars(lw).values())
                   + w.embedding.size + w.head.size)
        monkeypatch.setattr(layout, "MAX_ELEMENTS", weights)
        assert replace(TOY_CONFIG, num_layers=8) == TOY_CONFIG
        monkeypatch.setattr(layout, "MAX_ELEMENTS", weights - 1)
        with pytest.raises(ConfigError, match=f"model weights: {weights} elements exceed "
                                              f"the bound of {weights - 1}"):
            replace(TOY_CONFIG, num_layers=8)
        # refused from the sizes alone, with nothing built
        with pytest.raises(ConfigError, match="model weights"):
            ModelConfig(10**18, 64, 4, 16, 172, 256)

    def test_each_layer_charged_a_minimum(self):
        # a layer of hidden size 2 and ffn_intermediate 1 holds 26 elements
        # and is charged MIN_LAYER_ELEMENTS; the vocabulary's 2 x 2 x 2 are not
        most = (layout.MAX_ELEMENTS - 8) // layout.MIN_LAYER_ELEMENTS
        assert most == 8191
        assert ModelConfig(most, 2, 1, 2, 1, 2).num_layers == most
        charged = (most + 1) * layout.MIN_LAYER_ELEMENTS + 8
        with pytest.raises(ConfigError, match=f"model weights: {charged} elements exceed"):
            ModelConfig(most + 1, 2, 1, 2, 1, 2)
        # a toy layer holds more than the minimum, so the toy count is exact
        assert 4 * 64 * 64 + 3 * 64 * 172 + 2 * 64 == 49_536 > layout.MIN_LAYER_ELEMENTS


class TestForwardFull:
    """The unpruned forward: forward_pruned under keep_all_schedule."""

    def test_single_token_matches_hand_forward(self, toy_weights):
        cfg = toy_weights.config
        seq = build_sequence(np.zeros((0, 0)), [7])
        trace = keep_all_forward(toy_weights, seq)
        # length-1 causal attention averages only the token itself
        x = toy_weights.embedding[7][None, :]
        for lw in toy_weights.layers:
            h = rmsnorm_rows(x, lw.attn_gain, cfg.rmsnorm_eps)
            v = h @ lw.w_v  # attention output is exactly v for one token
            x = x + v @ lw.w_o
            hf = rmsnorm_rows(x, lw.ffn_gain, cfg.rmsnorm_eps)
            g = hf @ lw.w_gate
            x = x + ((g / (1.0 + np.exp(-g))) * (hf @ lw.w_up)) @ lw.w_down
        assert np.allclose(trace.logits, x @ toy_weights.head, atol=1e-12)

    def test_empty_sequence_rejected(self):
        # every sequence holds an instruction token, so none reaches the forward empty
        with pytest.raises(ConfigError):
            MultimodalSequence(np.zeros((0, 0)), np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=np.int64))

    def test_causality(self, toy_weights):
        # changing the final answer token leaves all earlier logits unchanged
        seq_a = random_sequence(TOY_CONFIG, 6, seed=2)
        seq_b = build_sequence(seq_a.image_embeddings,
                               seq_a.text_ids[:3], [seq_a.text_ids[3], 100])
        ta = keep_all_forward(toy_weights, seq_a)
        tb = keep_all_forward(toy_weights, seq_b)
        assert np.array_equal(ta.logits[:-1], tb.logits[:-1])
        assert not np.array_equal(ta.logits[-1], tb.logits[-1])

    def test_deterministic(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 8, seed=4)
        a = keep_all_forward(toy_weights, seq)
        b = keep_all_forward(toy_weights, seq)
        assert np.array_equal(a.logits, b.logits)
        keep_all = keep_all_schedule(8, 8)
        assert all(np.array_equal(x, y) for x, y in zip(
            layer_states(toy_weights, seq, keep_all, range(1, 9)),
            layer_states(toy_weights, seq, keep_all, range(1, 9))))

    def test_layer_forward_bit_identical_to_inline_block(self, toy_weights):
        # the block as one inline expression per half, the FFN written as
        # (g / (1 + exp(-g))) * up without in-place operations, over the
        # fewest balanced row ranges whose gate and up fit the arena:
        # _layer_forward and the per-layer states of a forward must both
        # equal it bit for bit, and the ranking scores must be the head mean
        # of the ranking row of the kernel's own score block
        # (block_row_scores). Keep-all at V0=40, then S=4 lambda=0.5 at V0=70,
        # whose layers after each drop run on 75, 40, 22 and 13 rows, across
        # the 32-row attention block edge, in views of one workspace sized
        # for 75; then S=4 lambda=0.5 at V0=300, whose 305-row layers run the
        # FFN in two chunks of 152 and 153 rows and whose 155-row layers in one
        cfg = toy_weights.config
        nh, hd, d, m = cfg.num_heads, cfg.head_dim, cfg.hidden_size, cfg.ffn_intermediate
        chunk_counts = set()
        for v0, stages in [(40, 1), (70, 4), (300, 4)]:
            schedule = build_schedule(8, stages, 0.5, v0)
            seq = random_sequence(cfg, v0, seed=15)
            kept = dict(forward_pruned(toy_weights, seq, schedule).kept_masks)
            states = layer_states(toy_weights, seq, schedule, range(1, 9))
            positions = np.arange(len(seq))
            workspace = _workspace(cfg, len(seq))
            x = np.concatenate([seq.image_embeddings, toy_weights.embedding[seq.text_ids]])
            for layer_no, lw, state in zip(range(1, 9), toy_weights.layers, states):
                n = len(positions)
                n_img = n - 5  # three instruction tokens, two answer tokens
                got = x.copy()
                got_scores = _layer_forward(lw, cfg, got, positions, workspace,
                                            rank=(n_img + 2, n_img))
                h = rmsnorm_rows(x, lw.attn_gain, cfg.rmsnorm_eps)
                table = rope_table(positions[:, None], hd, cfg.rope_theta)
                q = rope_rotate_rows((h @ lw.w_q).reshape(n, nh, hd), table)
                k = rope_rotate_rows((h @ lw.w_k).reshape(n, nh, hd), table)
                v = (h @ lw.w_v).reshape(n, nh, hd)
                attention = np.empty((nh, n, hd))
                _causal_attention(np.ascontiguousarray(q.transpose(1, 0, 2)),
                                  np.ascontiguousarray(k.transpose(1, 2, 0)),
                                  np.ascontiguousarray(v.transpose(1, 0, 2)), attention,
                                  np.empty(nh * ATTENTION_BLOCK_ROWS * (n + 1)))
                x = x + attention.transpose(1, 0, 2).reshape(n, nh * hd) @ lw.w_o
                hf = rmsnorm_rows(x, lw.ffn_gain, cfg.rmsnorm_eps)
                chunks = -(-n // ((workspace.size - n * d) // (2 * m)))
                chunk_counts.add(chunks)
                ffn = np.empty_like(x)
                for i in range(chunks):
                    rows = slice(i * n // chunks, (i + 1) * n // chunks)
                    gate = hf[rows] @ lw.w_gate
                    ffn[rows] = ((gate / (1.0 + np.exp(-gate))) * (hf[rows] @ lw.w_up)) @ lw.w_down
                x = x + ffn
                assert np.array_equal(got_scores, block_row_scores(q, k, n_img + 2, n_img))
                assert np.array_equal(got, x)
                assert np.array_equal(state, x)
                if layer_no in kept:
                    survives = np.isin(positions, kept[layer_no]) | (positions >= v0)
                    x, positions = x[survives], positions[survives]
            assert len(positions) == (len(seq) if stages == 1 else v0 // 8 + 5)
        assert chunk_counts == {1, 2}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6000), st.data(), st.integers(1, 16), st.integers(1, 32),
           st.integers(1, 3000))
    def test_ffn_chunks_fit_the_arena(self, n0, data, heads, pairs, m):
        # at any layer width n <= n0, the first layer's, the gate and up
        # buffers of every chunk fit the arena of _workspace(cfg, n0), which
        # starts after n rows, and a layer wider than FFN_CHUNK_ROWS runs
        # chunks of at least FFN_CHUNK_ROWS / 2 rows; a narrower one, one
        n = data.draw(st.integers(1, n0))
        cfg = replace(TOY_CONFIG, num_layers=1, hidden_size=heads * 2 * pairs, num_heads=heads,
                      head_dim=2 * pairs, ffn_intermediate=m)
        arena = toymodel._workspace_elements(cfg, n0) - n * cfg.hidden_size
        chunks = toymodel._ffn_chunks(n, arena // (2 * m))
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(b == a for (_, b), (a, _) in zip(chunks, chunks[1:]))
        sizes = [b - a for a, b in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert 2 * max(sizes) * m <= arena
        if n > toymodel.FFN_CHUNK_ROWS:
            assert min(sizes) >= toymodel.FFN_CHUNK_ROWS // 2
        else:
            assert sizes == [n]

    def test_trace_keeps_final_state_in_bounded_memory(self):
        # toy V0=1152 keep-all: 13.7 MB when the trace held every layer's
        # state, the FFN four n x m buffers and each layer the last one's
        # q and k; 7.1 MB without them
        weights = init_model(TOY_CONFIG, 3)
        seq = random_sequence(TOY_CONFIG, 1152, seed=3, instr=4, answer=1)
        tracemalloc.start()
        try:
            trace = keep_all_forward(weights, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.hidden) == 1
        assert trace.hidden[0].shape == (1157, TOY_CONFIG.hidden_size)
        assert peak < 10e6


    def test_trace_is_frozen(self, toy_weights):
        trace = forward_pruned(toy_weights, random_sequence(TOY_CONFIG, 16, seed=4),
                               build_schedule(8, 4, 0.5, 16))
        assert [layer for layer, _ in trace.kept_masks] == [2, 4, 6]
        for name, value in vars(trace).items():
            with pytest.raises(FrozenInstanceError):
                setattr(trace, name, value)

    def test_forward_runs_in_one_workspace(self):
        # toy V0=1152 keep-all: 7.08 MB when each block allocated its arrays
        # afresh, 5.26 MB with one workspace sized for the first layer
        weights = init_model(TOY_CONFIG, 3)
        seq = random_sequence(TOY_CONFIG, 1152, seed=3, instr=4, answer=1)
        tracemalloc.start()
        try:
            keep_all_forward(weights, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_mid_forward_workspace_sized_by_attention(self):
        # mid V0=576 keep-all (581 rows, d=256, m=688): 9.0 MB when the
        # workspace held the FFN's two 581 x 688 buffers; the FFN now runs
        # in two chunks of 290 and 291 rows in the arena the attention needs
        cfg = ModelConfig(num_layers=16, hidden_size=256, num_heads=8, head_dim=32,
                          ffn_intermediate=688, vocab_size=256)
        weights = init_model(cfg, 1)
        seq = random_sequence(cfg, 576, seed=1, instr=4, answer=1)
        tracemalloc.start()
        try:
            keep_all_forward(weights, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.0e6

    def test_image_size_bound_checked_before_allocation(self, toy_weights, monkeypatch):
        seq = random_sequence(TOY_CONFIG, 6, seed=16)
        monkeypatch.setattr(layout, "MAX_IMAGE_ELEMENTS", 6 * TOY_CONFIG.hidden_size)
        assert len(keep_all_forward(toy_weights, seq).hidden) == 1
        monkeypatch.setattr(layout, "MAX_IMAGE_ELEMENTS", 6 * TOY_CONFIG.hidden_size - 1)
        monkeypatch.setattr(toymodel, "_workspace", None)  # reached only past the check
        with pytest.raises(ConfigError, match="6 image tokens x hidden size 64 exceeds"):
            keep_all_forward(toy_weights, seq)


    def test_forward_size_bound_checked_before_allocation(self, toy_weights, monkeypatch):
        seq = random_sequence(TOY_CONFIG, 6, seed=16)
        n = len(seq)
        workspace = toymodel._workspace(TOY_CONFIG, n)  # one flat array
        assert workspace.ndim == 1
        # the residual stream plus the larger of the workspace and the logits
        elements = n * TOY_CONFIG.hidden_size + max(workspace.size, n * TOY_CONFIG.vocab_size)
        assert elements == toymodel.forward_elements(TOY_CONFIG, n)
        assert workspace.size > n * TOY_CONFIG.vocab_size  # the workspace outweighs them here
        monkeypatch.setattr(layout, "MAX_ELEMENTS", elements)
        assert len(keep_all_forward(toy_weights, seq).hidden) == 1
        monkeypatch.setattr(layout, "MAX_ELEMENTS", elements - 1)
        # reached only past the check
        monkeypatch.setattr(toymodel, "_embed", None)
        monkeypatch.setattr(toymodel, "_workspace", None)
        with pytest.raises(ConfigError, match=f"a forward of {n} tokens: {elements} elements"):
            keep_all_forward(toy_weights, seq)

    def test_forward_size_counts_the_logits(self):
        wide = replace(TOY_CONFIG, vocab_size=4096)
        assert toymodel.forward_elements(wide, 10) == 10 * (64 + 4096)

    def test_embedding_width_checked_before_allocation(self, toy_weights, monkeypatch):
        # the one width check of a fixture's image embeddings
        seq = build_sequence(np.zeros((3, 8)), [1])
        monkeypatch.setattr(toymodel, "_workspace", None)  # reached only past the check
        with pytest.raises(ConfigError, match="have dim 8, model expects 64"):
            keep_all_forward(toy_weights, seq)


class TestSilu:
    def test_within_ulps_of_tanh_sigmoid(self):
        # the oracle's sigmoid, 0.5 * (1 + tanh(g / 2)), is accurate to about
        # eps absolute, so the products differ by a few ulps of g; past
        # |g| = 709.8 exp(-g) overflows, and the quotient is -0.0, no NaN
        tiny_to_large = np.geomspace(1e-300, 800.0, 2001)
        g = np.concatenate([np.linspace(-800.0, 800.0, 16001), tiny_to_large, -tiny_to_large,
                            [0.0, -0.0, 709.7, -709.7, 709.8, -709.8]])
        want = g * (0.5 * (1.0 + np.tanh(g / 2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _silu(g.copy(), np.empty_like(g))
        assert not np.isnan(got).any()
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(g)))
        low, high = _silu(np.array([-800.0, 800.0]), np.empty(2))
        assert low == 0.0 and np.signbit(low) and high == 800.0

    def test_in_place(self):
        gate, scratch = np.array([-1.0, 0.5, 3.0]), np.empty(3)
        assert _silu(gate, scratch) is gate
        assert np.array_equal(gate, np.array([-1.0, 0.5, 3.0]) / (1.0 + np.exp([1.0, -0.5, -3.0])))


class TestForwardPruned:
    def test_keep_all_bit_identical_to_full(self, toy_weights):
        # four boundaries that rank and keep every token change nothing
        for seed in range(20):
            seq = random_sequence(TOY_CONFIG, 12, seed=seed)
            full = keep_all_forward(toy_weights, seq)
            assert full.kept_masks == []
            pruned = forward_pruned(toy_weights, seq, build_schedule(8, 4, 1.0, 12))
            assert [kept.size for _, kept in pruned.kept_masks] == [12, 12, 12]
            assert np.array_equal(pruned.logits, full.logits)
            assert all(np.array_equal(a, b) for a, b in zip(
                layer_states(toy_weights, seq, build_schedule(8, 4, 1.0, 12), range(1, 9)),
                layer_states(toy_weights, seq, keep_all_schedule(8, 12), range(1, 9))))

    def test_stage_counts_and_nesting(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=5)
        schedule = build_schedule(8, 4, 0.5, 16)
        trace = forward_pruned(toy_weights, seq, schedule)
        sizes = [kept.size for _, kept in trace.kept_masks]
        assert sizes == [8, 4, 2]
        kept_sets = [set(kept.tolist()) for _, kept in trace.kept_masks]
        assert kept_sets[1] <= kept_sets[0] and kept_sets[2] <= kept_sets[1]
        # text tokens survive with original positions
        assert list(trace.positions[-5:]) == [16, 17, 18, 19, 20]

    def test_hidden_width_follows_schedule(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=6, instr=2, answer=1)
        schedule = build_schedule(8, 4, 0.5, 16)
        trace = forward_pruned(toy_weights, seq, schedule)
        text = 3
        # the trace keeps the final state only
        assert [h.shape[0] for h in trace.hidden] == [2 + text]
        # a boundary layer's state is taken before that boundary's drop
        widths = [h.shape[0] for h in layer_states(toy_weights, seq, schedule, range(1, 9))]
        assert widths == [e + text for e in [16, 16, 8, 8, 4, 4, 2, 2]]

    def test_schedule_mismatch_rejected(self, toy_weights, layer_forwards):
        seq = random_sequence(TOY_CONFIG, 16, seed=7)
        # a float count, whole or not, is refused before any layer runs
        for schedule in (build_schedule(8, 4, 0.5, 8), build_schedule(6, 3, 0.5, 16),
                         StageSchedule((4, 4), (16, 8.0)), StageSchedule((4, 4), (16.0, 8)),
                         StageSchedule((4.0, 4), (16, 8))):
            with pytest.raises(ConfigError):
                forward_pruned(toy_weights, seq, schedule)
        assert layer_forwards == []

    @settings(max_examples=60, deadline=None)
    @given(v0=st.integers(0, 24), stages=st.integers(1, 8), keep_ratio=st.floats(0.05, 1.0),
           instr=st.integers(1, 3), answer=st.integers(0, 2), seed=st.integers(0, 2**16))
    @example(v0=16, stages=4, keep_ratio=0.5, instr=3, answer=2, seed=100)
    @example(v0=0, stages=4, keep_ratio=0.5, instr=1, answer=0, seed=0)
    @example(v0=5, stages=8, keep_ratio=0.1, instr=2, answer=1, seed=1)  # reaches 0 tokens
    @example(v0=1, stages=8, keep_ratio=1.0, instr=1, answer=0, seed=463)  # a score near 0
    @example(v0=2, stages=1, keep_ratio=1.0, instr=2, answer=1, seed=362)  # a state near 0
    def test_mask_oracle_equivalence(self, toy_weights, v0, stages, keep_ratio, instr, answer,
                                     seed):
        seq = random_sequence(TOY_CONFIG, v0, seed, instr, answer)
        check_against_oracle(toy_weights, seq, build_schedule(8, stages, keep_ratio, v0))

    def test_score_bound_is_the_rounding_of_a_dot_product(self, toy_weights):
        # at the fourth boundary of this V0=1 forward the one score is about
        # -6.1e-7 while its magnitude is about 0.081: a bound of 1e-12 of the
        # largest score, 6.1e-19, fell below the reordering noise of such a
        # dot product (1.7e-18 here once). The bound of head_dim * eps of the
        # magnitude, 2.9e-16, holds there, and a score off by one ulp of its
        # magnitude past it fails
        seq = random_sequence(TOY_CONFIG, 1, seed=463, instr=1, answer=0)
        schedule = build_schedule(8, 8, 1.0, 1)
        seen = []
        forward_pruned(toy_weights, seq, schedule, ranker=recording_ranker(seen))
        want, magnitude = masked_pruned_forward(toy_weights, seq, schedule)[2][3]
        assert np.abs(want) < 1e-5 * magnitude
        assert scores_within_rounding(seen[3], want, magnitude, 16)
        allowed = 16 * np.finfo(float).eps * magnitude
        assert not scores_within_rounding(want + allowed + np.spacing(magnitude), want, magnitude, 16)
        assert not scores_within_rounding(want - allowed - np.spacing(magnitude), want, magnitude, 16)

    def test_state_bound_is_relative_to_the_row(self, toy_weights):
        # this keep-all V0=2 forward ends with a state entry of about -1.5e-8
        # in a row whose largest entry is about 0.096; it differed from the
        # oracle's by about 3e-17, past a bound of 1e-9 of the entry itself
        # (1.5e-17). A state off by 1e-6 of its row's largest entry fails
        seq = random_sequence(TOY_CONFIG, 2, seed=362, instr=2, answer=1)
        schedule = build_schedule(8, 1, 1.0, 2)
        got = forward_pruned(toy_weights, seq, schedule).hidden[-1]
        want = masked_pruned_forward(toy_weights, seq, schedule)[0]
        scale = np.abs(want).max(axis=1)
        row, col = np.unravel_index(np.argmin(np.abs(want) / scale[:, None]), want.shape)
        assert np.abs(want[row, col]) < 1e-6 * scale[row]
        assert states_within_rounding(got, want)
        for sign in (1, -1):
            off = got.copy()
            off[row, col] += sign * 1e-6 * scale[row]
            assert not states_within_rounding(off, want)

    @pytest.mark.parametrize("cfg, v0", BENCHMARK_GEOMETRIES, ids=["toy1152", "mid576"])
    def test_mask_oracle_at_benchmark_geometries(self, cfg, v0):
        # C8's check at the geometries the benchmark times, S=4 lambda=0.5
        weights = init_model(cfg, 11)
        schedule = build_schedule(cfg.num_layers, 4, 0.5, v0)
        seq = random_sequence(cfg, v0, seed=12, instr=4, answer=1)
        oracle_kept = check_against_oracle(weights, seq, schedule)
        assert [len(k) for k in oracle_kept] == list(schedule.stage_token_counts[1:])

    @pytest.mark.parametrize("rows", [ATTENTION_BLOCK_ROWS - 1, ATTENTION_BLOCK_ROWS,
                                      ATTENTION_BLOCK_ROWS + 1, 2 * ATTENTION_BLOCK_ROWS,
                                      2 * ATTENTION_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("case", ["keep_all", "s4_before_drop", "s4_after_drop",
                                      "rank_row_before_drop", "rank_row_after_drop"])
    def test_mask_oracle_at_block_edges(self, toy_weights, rows, case):
        # sequence lengths that land on the edges of the attention row blocks,
        # before the first drop or right after it. In the rank_row cases the
        # sequence ends with the ranking query, the last of three instruction
        # tokens, so at the boundary it is row rows - 1: at 32, 33, 64 and 65
        # rows the last or first row of its score block
        instr, answer = 3, (0 if case.startswith("rank_row") else 2)
        text = instr + answer
        if case == "keep_all":
            schedule = keep_all_schedule(8, rows - text)
        elif case.endswith("before_drop"):
            schedule = build_schedule(8, 4, 0.5, rows - text)
        else:  # the first drop halves an even count exactly
            schedule = build_schedule(8, 4, 0.5, 2 * (rows - text))
            assert schedule.stage_token_counts[1] + text == rows
        seq = random_sequence(TOY_CONFIG, schedule.stage_token_counts[0], seed=rows,
                              instr=instr, answer=answer)
        check_against_oracle(toy_weights, seq, schedule)

    def test_paper_9patch_geometry_in_bounded_memory(self):
        # V0=5184 (criterion C4's geometry); one n x n float64 score matrix
        # alone would take 215 MB here
        weights = init_model(TOY_CONFIG, 5)
        schedule = build_schedule(8, 4, 0.5, 5184)
        seq = random_sequence(TOY_CONFIG, 5184, seed=5)
        tracemalloc.start()
        try:
            trace = forward_pruned(weights, seq, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [kept.size for _, kept in trace.kept_masks] == [2592, 1296, 648]
        assert peak < 100e6

    @pytest.mark.parametrize("model", ["random", "marker"])
    def test_boundary_scores_bit_identical_to_per_call_rotation(self, toy_weights, model):
        # at every boundary of an S=4 forward, the scores handed to the ranker
        # equal, bit for bit, those of the boundary layer's input rotated by
        # angles and products computed afresh for q and for k; the marker
        # model's input there is the embedding itself
        weights = toy_weights if model == "random" else build_marker_model(TOY_CONFIG, (0, 1, 2, 3))
        cfg = weights.config
        nh, hd, v0 = cfg.num_heads, cfg.head_dim, 70
        schedule = build_schedule(8, 4, 0.5, v0)
        seq = random_sequence(cfg, v0, seed=18)
        seen = []
        trace = forward_pruned(weights, seq, schedule, ranker=recording_ranker(seen))
        inv_freq = cfg.rope_theta ** (-2.0 * np.arange(hd // 2, dtype=np.float64) / hd)
        survivors = np.arange(v0)
        for scores, (layer, kept) in zip(seen, trace.kept_masks):
            assert layer - 1 not in schedule.boundary_layers
            x = layer_states(weights, seq, schedule, [layer - 1])[0]
            positions = np.concatenate([survivors, np.arange(v0, len(seq))])
            n, n_img = len(positions), survivors.size
            lw = weights.layers[layer - 1]
            h = rmsnorm_rows(x, lw.attn_gain, cfg.rmsnorm_eps)
            ang = positions.astype(np.float64)[:, None, None] * inv_freq
            rotated = []
            for w_proj in (lw.w_q, lw.w_k):
                t = (h @ w_proj).reshape(n, nh, hd)
                cos, sin = np.cos(ang), np.sin(ang)
                out = np.empty_like(t)
                out[..., 0::2] = t[..., 0::2] * cos - t[..., 1::2] * sin
                out[..., 1::2] = t[..., 0::2] * sin + t[..., 1::2] * cos
                rotated.append(out)
            q, k = rotated
            assert np.array_equal(scores, block_row_scores(q, k, n_img + 2, n_img))
            survivors = kept

    def test_boundary_scores_are_head_mean_of_scaled_logits(self):
        # two heads of head_dim 4, whose q and k live in rotary pair 1 only:
        # at rope_theta 1e300 that pair turns by 1e-150 rad per position, so
        # its rotation is exact identity in float64. Each ±1 image row is its
        # own RMS-normalised key, the all-ones query reads dims 2, 3, 6 and 7,
        # so head h's logit is the sum of those two dims of head h over
        # sqrt(4): the head mean of the scaled logits is exact, and each of
        # head 0 alone, no scaling or a softmax would give other scores
        cfg = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, head_dim=4,
                          ffn_intermediate=1, vocab_size=2, rope_theta=1e300, rmsnorm_eps=1e-30)
        pair_1 = np.diag([0.0, 0.0, 1.0, 1.0] * 2)
        zeros = np.zeros((8, 8))
        lw = LayerWeights(pair_1, pair_1, zeros, zeros, np.zeros((8, 1)), np.zeros((8, 1)),
                          np.zeros((1, 8)), np.ones(8), np.ones(8))
        weights = toymodel.DecoderWeights(cfg, [lw, lw], np.ones((2, 8)), np.zeros((8, 2)))
        image = np.array([[1, 1, 1, 1, 1, 1, -1, -1],    # heads 2, -2
                          [1, 1, 1, -1, 1, 1, 1, 1],     # heads 0, 2
                          [1, 1, 1, 1, 1, 1, 1, 1],      # heads 2, 2
                          [1, 1, -1, -1, 1, 1, -1, -1]],  # heads -2, -2
                         dtype=np.float64)
        seen = []
        trace = forward_pruned(weights, build_sequence(image, [1]), build_schedule(2, 2, 0.5, 4),
                               ranker=recording_ranker(seen))
        (scores,) = seen
        assert scores.dtype == np.float64
        assert np.array_equal(scores, [0.0, 0.5, 1.0, -1.0])
        assert [kept.tolist() for _, kept in trace.kept_masks] == [[1, 2]]

    def test_boundary_qk_feeds_ranking(self, toy_weights):
        # one float64 score per surviving image token at each boundary; the
        # identity ranker keeps the highest
        seq = random_sequence(TOY_CONFIG, 16, seed=8)
        schedule = build_schedule(8, 4, 0.5, 16)
        seen = []
        trace = forward_pruned(toy_weights, seq, schedule, ranker=recording_ranker(seen))
        assert [(scores.dtype, scores.shape) for scores in seen] == \
               [(np.float64, (v,)) for v in schedule.stage_token_counts[:-1]]
        for scores, (_, kept), survivors in zip(
                seen, trace.kept_masks, [np.arange(16)] + [k for _, k in trace.kept_masks]):
            is_kept = np.isin(survivors, kept)
            assert scores[is_kept].min() >= scores[~is_kept].max()

    def test_ranker_output_decides_the_kept_set(self, toy_weights):
        # a ranker that negates the scores keeps exactly the lowest-scored tokens
        seq = random_sequence(TOY_CONFIG, 16, seed=8)
        schedule = build_schedule(8, 4, 0.5, 16)
        seen = []
        record = recording_ranker(seen)
        trace = forward_pruned(toy_weights, seq, schedule,
                               ranker=lambda scores, stage: -record(scores, stage))
        survivors = np.arange(16)
        for scores, (_, kept), keep in zip(seen, trace.kept_masks, schedule.stage_token_counts[1:]):
            assert kept.tolist() == sorted(survivors[np.argsort(scores)[:keep]].tolist())
            survivors = kept

    def test_ranker_may_keep_its_arguments(self, toy_weights):
        # the forward reuses its buffers after each boundary: the scores it
        # hands a ranker must stay as they were handed
        seq = random_sequence(TOY_CONFIG, 40, seed=17)
        held, copies = [], []

        def keeping(scores, stage):
            held.append(scores)
            copies.append(scores.copy())
            return scores

        forward_pruned(toy_weights, seq, build_schedule(8, 4, 0.5, 40), ranker=keeping)
        assert len(held) == 3
        for scores, then in zip(held, copies):
            assert np.array_equal(scores, then)

    def test_no_forward_starts_a_thread(self, monkeypatch, toy_weights):
        # 305-row layers with every BLAS thread variable at 1: where a
        # kernel that split its heads across the CPUs would start threads
        def no_threads(thread):
            raise AssertionError(f"a forward started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        seq = random_sequence(TOY_CONFIG, 300, seed=40)
        trace = forward_pruned(toy_weights, seq, build_schedule(8, 4, 0.5, 300))
        assert [kept.size for _, kept in trace.kept_masks] == [150, 75, 37]


class TestObserveHook:
    def test_called_at_each_boundary_before_the_decision(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=13)
        schedule = build_schedule(8, 4, 0.5, 16)
        events, seen, ranked = [], [], []

        def observe(layer, x, positions, scores):
            events.append(("observe", layer))
            seen.append((layer, x.shape[0], positions.copy(), scores))

        def rank(scores, stage):
            events.append(("rank", stage))
            ranked.append(scores.copy())
            return scores

        base = forward_pruned(toy_weights, seq, schedule, ranker=rank, observe=observe)
        # once per boundary, in boundary order, each call before its decision
        assert events == [e for stage, layer in enumerate(schedule.boundary_layers)
                          for e in (("observe", layer), ("rank", stage))]
        text = np.arange(16, len(seq))
        survivors = np.arange(16)
        for (layer, rows, positions, scores), want, (_, kept) in zip(seen, ranked,
                                                                     base.kept_masks):
            # the scores an identity ranker gets, and the survivors' positions
            assert scores.tobytes() == want.tobytes()
            assert np.array_equal(positions, np.concatenate([survivors, text]))
            assert rows == positions.size
            survivors = kept
        # a hook that only reads changes nothing
        plain = forward_pruned(toy_weights, seq, schedule)
        assert np.array_equal(plain.logits, base.logits)
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(plain.kept_masks,
                                                                 base.kept_masks))
        # and a forward without a boundary never calls it
        events.clear()
        forward_pruned(toy_weights, seq, keep_all_schedule(8, 16), observe=observe)
        assert events == []

    def test_write_into_kept_row_carries_forward(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=13)
        schedule = build_schedule(8, 4, 0.5, 16)
        base = forward_pruned(toy_weights, seq, schedule)
        layer, kept = base.kept_masks[0]

        def overwrite(at, x, positions, scores):
            if at == layer:
                x[np.flatnonzero(positions == kept[0])] = 10.0

        trace = forward_pruned(toy_weights, seq, schedule, observe=overwrite)
        # the scores were taken before the write: the kept set there stands
        assert np.array_equal(trace.kept_masks[0][1], kept)
        assert not np.array_equal(trace.logits, base.logits)


class TestInjection:
    def test_dropped_token_injection_is_invisible(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=9)
        schedule = build_schedule(8, 4, 0.5, 16)
        base = forward_pruned(toy_weights, seq, schedule)
        garbage = RngState(55).normals(TOY_CONFIG.hidden_size, 10.0)
        survivors = set(range(16))
        for layer, kept in base.kept_masks:
            after = range(layer + 1, 9)  # the layers past the boundary
            base_states = layer_states(toy_weights, seq, schedule, after)
            dropped_here = survivors - set(kept.tolist())
            for token in sorted(dropped_here):
                injected = inject_at_boundary(toy_weights, seq, schedule, layer, token, garbage)
                assert np.array_equal(injected.logits, base.logits)
                injected_states = layer_states(toy_weights, seq, schedule, after,
                                               inject=(layer, token, garbage))
                assert all(np.array_equal(a, b) for a, b in zip(injected_states, base_states))
            survivors = set(kept.tolist())

    def test_kept_token_injection_changes_logits(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=10)
        schedule = build_schedule(8, 4, 0.5, 16)
        base = forward_pruned(toy_weights, seq, schedule)
        layer, kept = base.kept_masks[0]
        token = int(kept[0])
        garbage = RngState(56).normals(TOY_CONFIG.hidden_size, 10.0)
        injected = inject_at_boundary(toy_weights, seq, schedule, layer, token, garbage)
        assert not np.array_equal(injected.logits, base.logits)

    def test_noop_injection_bit_identical(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=11)
        schedule = build_schedule(8, 4, 0.5, 16)
        base = forward_pruned(toy_weights, seq, schedule)
        layer = schedule.boundary_layers[0]
        token = 3
        # positions == storage before the first drop
        original = layer_states(toy_weights, seq, schedule, [layer])[0][token]
        injected = inject_at_boundary(toy_weights, seq, schedule, layer, token, original)
        assert np.array_equal(injected.logits, base.logits)
        after = range(layer + 1, 9)
        assert all(np.array_equal(a, b) for a, b in zip(
            layer_states(toy_weights, seq, schedule, after, inject=(layer, token, original)),
            layer_states(toy_weights, seq, schedule, after)))

    def test_invalid_targets_rejected(self, toy_weights):
        # the helper fails rather than inject nothing, and so does
        # layer_states, which calls it
        seq = random_sequence(TOY_CONFIG, 16, seed=12)
        schedule = build_schedule(8, 4, 0.5, 16)
        vec = np.zeros(TOY_CONFIG.hidden_size)
        with pytest.raises(AssertionError, match="not a drop boundary"):
            inject_at_boundary(toy_weights, seq, schedule, 3, 0, vec)
        with pytest.raises(AssertionError, match="does not survive"):
            inject_at_boundary(toy_weights, seq, schedule, 2, 99, vec)
        dropped_first = sorted(set(range(16)) - set(forward_pruned(
            toy_weights, seq, schedule).kept_masks[0][1].tolist()))[0]
        with pytest.raises(AssertionError, match="does not survive"):
            inject_at_boundary(toy_weights, seq, schedule, 4, dropped_first, vec)
        with pytest.raises(AssertionError, match="not a drop boundary"):
            layer_states(toy_weights, seq, schedule, [2, 3], inject=(2, 0, vec))

    def test_one_forward_per_injection(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=14)
        schedule = build_schedule(8, 4, 0.5, 16)
        seen = []
        inject_at_boundary(toy_weights, seq, schedule, 4, 20, np.zeros(TOY_CONFIG.hidden_size),
                           ranker=recording_ranker(seen))
        assert len(seen) == len(schedule.boundary_layers)


def strategy_plans(strategies, v0, seed=5):
    """Each strategy's ``(schedule, ranker)`` plan on the toy model."""
    return [(s.schedule(TOY_CONFIG.num_layers, v0), s.ranker(seed)) for s in strategies]


COMPARED = [Vanilla(), PyramidDrop(), SingleEarlyDrop(), RandomDrop()]


class TestForwardPlans:
    @pytest.mark.parametrize("v0", [64, 576])
    @pytest.mark.parametrize("strategies", [COMPARED, [PyramidDrop(), PyramidDrop()]],
                             ids=["compared", "repeated"])
    def test_bit_identical_to_one_forward_per_plan(self, toy_weights, v0, strategies):
        seq = random_sequence(TOY_CONFIG, v0, seed=20)
        plans = strategy_plans(strategies, v0)
        traces = list(forward_plans(toy_weights, seq, plans))
        assert len(traces) == len(plans)
        for (schedule, ranker), trace in zip(plans, traces):
            alone = forward_pruned(toy_weights, seq, schedule, ranker)
            assert np.array_equal(trace.logits, alone.logits)
            assert np.array_equal(trace.hidden[-1], alone.hidden[-1])
            assert np.array_equal(trace.positions, alone.positions)
            assert [layer for layer, _ in trace.kept_masks] == [layer for layer, _ in alone.kept_masks]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(trace.kept_masks,
                                                                     alone.kept_masks))
        # plans that end in the same rows still get arrays of their own
        for i, a in enumerate(traces):
            for b in traces[i + 1:]:
                assert not np.shares_memory(a.hidden[-1], b.hidden[-1])
                assert not np.shares_memory(a.positions, b.positions)

    def test_shared_layers_run_once(self, toy_weights, layer_forwards):
        seq = random_sequence(TOY_CONFIG, 64, seed=21)  # 69 rows
        list(forward_plans(toy_weights, seq, strategy_plans(COMPARED, 64)))
        # layers 1-2 once for all four; 3-4 for vanilla, for pdrop and fastv
        # (the same 32 kept at layer 2) and for random; 5-8 for each
        assert layer_forwards == ([69] * 2 + [69, 37, 37] * 2
                                  + [69, 37, 21, 21] * 2 + [69, 37, 13, 13] * 2)
        assert len(layer_forwards) == 24
        layer_forwards.clear()
        forward_pruned(toy_weights, seq, build_schedule(8, 4, 0.5, 64))
        assert len(layer_forwards) == 8

    def test_ranker_writing_into_its_scores_leaves_other_plans_alone(self, toy_weights):
        def negating(scores, stage):
            scores *= -1.0
            return scores

        seq = random_sequence(TOY_CONFIG, 16, seed=22)
        schedule = build_schedule(8, 4, 0.5, 16)
        negated, plain = forward_plans(toy_weights, seq, [(schedule, negating),
                                                          (schedule, identity_ranker)])
        for trace, ranker in ((negated, negating), (plain, identity_ranker)):
            alone = forward_pruned(toy_weights, seq, schedule, ranker)
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(trace.kept_masks,
                                                                     alone.kept_masks))
        assert not np.array_equal(negated.kept_masks[0][1], plain.kept_masks[0][1])

    def test_observe_called_once_per_group_at_each_boundary(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 64, seed=23)  # 69 rows
        seen = []
        plans = strategy_plans([*COMPARED, PyramidDrop()], 64)
        list(forward_plans(toy_weights, seq, plans,
                           observe=lambda layer, x, positions, scores: seen.append((layer, x.shape[0]))))
        # layer 2: all five plans' rows; layer 4: the pdrop group (pdrop,
        # fastv, pdrop) and random; layer 6: the two pdrop and random; vanilla
        # and fastv have no boundary past layer 2
        assert seen == [(2, 69), (4, 37), (4, 37), (6, 21), (6, 21)]

    def test_plans_past_the_bound_run_as_consecutive_trees(self, toy_weights, monkeypatch,
                                                            layer_forwards):
        seq = random_sequence(TOY_CONFIG, 6, seed=25)
        n = len(seq)
        plan = (build_schedule(8, 4, 0.5, 6), identity_ranker)
        one = toymodel.forward_elements(TOY_CONFIG, n)
        alone = forward_pruned(toy_weights, seq, *plan)
        assert toymodel.forward_elements(TOY_CONFIG, n, 3) == one + 2 * n * TOY_CONFIG.hidden_size
        # room for two plans' rows: three plans run as a tree of two, then one
        monkeypatch.setattr(layout, "MAX_ELEMENTS", toymodel.forward_elements(TOY_CONFIG, n, 2))
        layer_forwards.clear()
        traces = list(forward_plans(toy_weights, seq, [plan] * 3))
        assert len(layer_forwards) == 2 * 8
        for trace in traces:
            assert np.array_equal(trace.logits, alone.logits)
            assert np.array_equal(trace.positions, alone.positions)
        # no room for one plan: refused as one plan's forward, before any layer
        monkeypatch.setattr(layout, "MAX_ELEMENTS", one - 1)
        layer_forwards.clear()
        with pytest.raises(ConfigError, match=f"^a forward of {n} tokens: {one} elements"):
            list(forward_plans(toy_weights, seq, [plan] * 3))
        assert layer_forwards == []

    def test_every_plan_checked_before_the_first_layer(self, toy_weights, layer_forwards):
        seq = random_sequence(TOY_CONFIG, 16, seed=24)
        good = (build_schedule(8, 4, 0.5, 16), identity_ranker)
        bad = (build_schedule(8, 4, 0.5, 17), identity_ranker)
        with pytest.raises(ConfigError, match="schedule expects 17 image tokens, sequence has 16"):
            list(forward_plans(toy_weights, seq, [good, good, bad]))
        assert list(forward_plans(toy_weights, seq, [])) == []
        assert layer_forwards == []


class TestSoftmaxRoute:
    """The attention hands ``softmax_rows`` one Cauchy–Schwarz bound per
    layer, which takes the unshifted route when it is at most EXP_SAFE."""

    @pytest.mark.parametrize("cfg, v0", BENCHMARK_GEOMETRIES, ids=["toy1152", "mid576"])
    def test_random_weight_forwards_take_the_fast_route(self, monkeypatch, layer_forwards,
                                                        softmax_calls, cfg, v0):
        # the benchmark's weights and fixture at seed 1
        weights = init_model(cfg, 1)
        fixture = FixtureSpec(image_tokens=v0, marked_placement="random")
        seq, _ = make_marker_sequence(cfg, fixture, 1)
        schedule = build_schedule(cfg.num_layers, 4, 0.5, v0)
        fast = forward_pruned(weights, seq, schedule)
        # one call per attention block, in order, over every head; a block
        # of rows [r0, r1) holds keys [0, r1)
        want = [(cfg.num_heads, min(r0 + ATTENTION_BLOCK_ROWS, rows) - r0,
                 min(r0 + ATTENTION_BLOCK_ROWS, rows))
                for rows in layer_forwards for r0 in range(0, rows, ATTENTION_BLOCK_ROWS)]
        assert [shape for shape, _ in softmax_calls] == want
        assert all(bound <= EXP_SAFE for _, bound in softmax_calls)
        monkeypatch.setattr(numkernel, "EXP_SAFE", -np.inf)  # every bound past it
        shifted = forward_pruned(weights, seq, schedule)
        assert [k.tolist() for _, k in fast.kept_masks] == [k.tolist() for _, k in shifted.kept_masks]
        assert np.abs(fast.logits - shifted.logits).max() <= 5e-15 * np.abs(shifted.logits).max()

    def test_large_qk_weights_take_the_shifted_route(self, toy_weights, softmax_calls):
        # q and k weights 1e2 times the init's put the bound past EXP_SAFE and
        # the largest scores past exp's range, where only the shifted route
        # stays finite
        weights = replace(toy_weights, layers=[replace(lw, w_q=1e2 * lw.w_q, w_k=1e2 * lw.w_k)
                                               for lw in toy_weights.layers])
        seq = random_sequence(TOY_CONFIG, 16, seed=30)
        schedule = build_schedule(8, 4, 0.5, 16)
        trace = forward_pruned(weights, seq, schedule)
        assert softmax_calls and all(bound > EXP_SAFE for _, bound in softmax_calls)
        assert np.isfinite(trace.logits).all() and np.isfinite(trace.hidden[-1]).all()
        check_against_oracle(weights, seq, schedule)


# the mid benchmark model's width, at which a marker model's attention takes
# the shifted softmax route, and its depth
D256_CONFIG = replace(TOY_CONFIG, hidden_size=256, num_heads=8, head_dim=32, ffn_intermediate=688)
MID_CONFIG = replace(D256_CONFIG, num_layers=16)


class TestMarkerModel:
    def test_marked_scores_dominate(self):
        cfg = TOY_CONFIG
        weights = build_marker_model(cfg, (0, 1, 2, 3))
        rng = RngState(derive_seed(31, 1))
        emb = 0.01 * rng.normals(16 * cfg.hidden_size).reshape(16, cfg.hidden_size)
        marked = [2, 7, 11]
        for p in marked:
            emb[p, :4] += 1.0
        seq = build_sequence(emb, [1, 2], [3])
        schedule = build_schedule(8, 4, 0.5, 16)
        seen = []
        forward_pruned(weights, seq, schedule, ranker=recording_ranker(seen))
        scores = seen[0]  # at the first boundary, layer 2
        assert min(scores[marked]) > max(
            s for i, s in enumerate(scores) if i not in marked
        )
        assert min(scores[marked]) > 10.0

    def test_no_marked_tokens_still_selects_k(self):
        cfg = TOY_CONFIG
        weights = build_marker_model(cfg, (0, 1, 2, 3))
        rng = RngState(derive_seed(32, 1))
        emb = 0.01 * rng.normals(16 * cfg.hidden_size).reshape(16, cfg.hidden_size)
        seq = build_sequence(emb, [1, 2], [3])
        trace = forward_pruned(weights, seq, build_schedule(8, 4, 0.5, 16))
        assert [kept.size for _, kept in trace.kept_masks] == [8, 4, 2]

    def test_marked_tokens_survive_all_stages(self):
        cfg = TOY_CONFIG
        weights = build_marker_model(cfg, (0, 1, 2, 3))
        rng = RngState(derive_seed(33, 1))
        emb = 0.01 * rng.normals(16 * cfg.hidden_size).reshape(16, cfg.hidden_size)
        marked = [5, 9]  # final stage keeps 2 of 16
        for p in marked:
            emb[p, :4] += 1.0
        seq = build_sequence(emb, [1, 2], [3])
        trace = forward_pruned(weights, seq, build_schedule(8, 4, 0.5, 16))
        assert set(trace.kept_masks[-1][1].tolist()) == set(marked)

    def test_empty_marker_subspace_rejected(self):
        with pytest.raises(ConfigError):
            build_marker_model(TOY_CONFIG, ())

    def test_marker_subspace_must_leave_a_flag_dimension(self):
        with pytest.raises(ConfigError, match="flag"):
            build_marker_model(TOY_CONFIG, range(TOY_CONFIG.hidden_size))

    @pytest.mark.parametrize("onset", [1, 4, 8])
    def test_two_layers_shared_by_reference(self, onset):
        layers = build_marker_model(TOY_CONFIG, (0, 1, 2, 3), onset).layers
        silent, signalling = layers[0], layers[-1]
        assert all(lw is silent for lw in layers[:onset - 1])
        assert all(lw is signalling for lw in layers[onset - 1:])
        zeros = signalling.w_v
        assert not zeros.any() and signalling.w_q.any() and signalling.w_k.any()
        for lw in (silent, signalling):
            assert lw.w_v is lw.w_o is zeros
            assert lw.w_gate is lw.w_up is signalling.w_gate and lw.w_down is signalling.w_down
            assert lw.attn_gain is lw.ffn_gain is signalling.attn_gain
        if onset > 1:
            assert silent.w_q is silent.w_k is zeros

    def test_every_array_read_only(self):
        w = build_marker_model(TOY_CONFIG, (0, 1, 2, 3), 4)
        arrays = [a for lw in w.layers for a in vars(lw).values()] + [w.embedding, w.head]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
        with pytest.raises(FrozenInstanceError):
            w.layers[0].w_q = np.ones_like(w.layers[0].w_q)

    @pytest.mark.parametrize("onset", [1, 4])
    def test_zero_blocks_are_views_of_one_buffer(self, onset):
        w = build_marker_model(TOY_CONFIG, (0, 1, 2, 3), onset)
        silent, signalling = w.layers[0], w.layers[-1]
        blocks = [w.head, *(getattr(signalling, k) for k in ("w_v", "w_o", "w_gate", "w_up", "w_down"))]
        if onset > 1:
            blocks += [silent.w_q, silent.w_k]
        for block in blocks:
            assert np.shares_memory(block, w.head) and block.flags.c_contiguous and not block.any()
        assert not any(np.shares_memory(a, w.head) for a in (signalling.w_q, signalling.w_k))
        # every token id embeds to one row, which holds the flag (dim 63)
        assert w.embedding.shape == (256, 64) and w.embedding.strides[0] == 0
        assert np.array_equal(np.flatnonzero(w.embedding[0]), [63])

    @pytest.mark.parametrize("cfg, onset", [(TOY_CONFIG, 1), (TOY_CONFIG, 4), (D256_CONFIG, 1), (D256_CONFIG, 4)],
                             ids=["1", "4", "d256-1", "d256-4"])
    def test_shared_layers_match_per_layer_copies(self, softmax_calls, cfg, onset):
        # dense copies of every array run the same forward bit for bit, by
        # the unshifted softmax route at the toy width (bounds up to about
        # 200) and by the shifted one at d=256 (about 564)
        shared = build_marker_model(cfg, (0, 1, 2, 3), onset)
        copied = replace(
            shared, embedding=np.copy(shared.embedding), head=np.copy(shared.head),
            layers=[LayerWeights(**{k: np.copy(a) for k, a in vars(lw).items()}) for lw in shared.layers])
        seq, _ = make_marker_sequence(cfg, FixtureSpec(marked_placement="random"), 5)
        schedule = build_schedule(8, 4, 0.5, 64)
        runs = []
        for w in (shared, copied):
            scores = []
            trace = forward_pruned(w, seq, schedule, observe=lambda _l, _x, _p, s: scores.append(s.copy()))
            runs.append((trace, scores))
        (a, a_scores), (b, b_scores) = runs
        assert [layer for layer, _ in a.kept_masks] == [layer for layer, _ in b.kept_masks] == [2, 4, 6]
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a.kept_masks, b.kept_masks))
        assert len(a_scores) == 3 and all(map(np.array_equal, a_scores, b_scores))
        assert np.array_equal(a.hidden[-1], b.hidden[-1]) and np.array_equal(a.logits, b.logits)
        assert (max(bound for _, bound in softmax_calls) > EXP_SAFE) == (cfg is D256_CONFIG)

    @pytest.mark.parametrize("cfg, bound", [(TOY_CONFIG, 0.25e6), (MID_CONFIG, 2.6e6)], ids=["toy", "mid"])
    def test_marker_model_traced_size(self, cfg, bound):
        # 0.20 MB at the toy geometry and 2.46 MB at mid (16 layers, d=256,
        # m=688): w_q, w_k and one zero buffer, which the d x m block sets at
        # mid and the d x vocab head at the toy width
        tracemalloc.start()
        try:
            build_marker_model(cfg, (0, 1, 2, 3), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
