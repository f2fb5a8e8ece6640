import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from maskoracle import masked_pruned_forward
from pdrop.errors import ConfigError, InputError
from pdrop.layout import MultimodalSequence, build_sequence
from pdrop.numkernel import RngState, derive_seed, rmsnorm_rows, rope_rotate_rows, softmax_rows
from pdrop.pruner import attention_ranker, build_schedule, keep_all_schedule, rank_image_tokens
from pdrop.toymodel import (
    TOY_CONFIG,
    ModelConfig,
    build_marker_model,
    forward_pruned,
    init_model,
    inject_at_boundary,
    load_weights,
    save_weights,
)


def random_sequence(cfg, v0, seed, instr=3, answer=2):
    rng = RngState(derive_seed(seed, 7))
    emb = rng.normals(v0 * cfg.hidden_size, 0.5).reshape(v0, cfg.hidden_size)
    instruction = 1 + (np.arange(instr) % (cfg.vocab_size - 1))
    ans = 1 + (np.arange(answer) % (cfg.vocab_size - 1))
    return build_sequence(emb, instruction, ans)


def recording_ranker(seen):
    """The default ranker, recording the (q_last, k_image) of each call."""

    def rank(q_last, k_image, stage):
        seen.append((q_last.copy(), k_image.copy()))
        return attention_ranker(q_last, k_image, stage)

    return rank


def keep_all_forward(weights, seq):
    schedule = keep_all_schedule(weights.config.num_layers, seq.num_image_tokens)
    return forward_pruned(weights, seq, schedule)


@pytest.fixture(scope="module")
def toy_weights():
    return init_model(TOY_CONFIG, 1234)


class TestInit:
    def test_deterministic(self):
        a = init_model(TOY_CONFIG, 5)
        b = init_model(TOY_CONFIG, 5)
        for la, lb in zip(a.layers, b.layers):
            for ma, mb in zip(la.matrices(), lb.matrices()):
                assert np.array_equal(ma, mb)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.head, b.head)

    def test_seeds_differ(self):
        a = init_model(TOY_CONFIG, 0)
        b = init_model(TOY_CONFIG, 1)
        assert not np.array_equal(a.layers[0].w_q, b.layers[0].w_q)

    def test_invalid_config_rejected(self):
        bad = ModelConfig(8, 64, 4, 17, 172, 256)  # d != heads*head_dim, odd head_dim
        with pytest.raises(ConfigError):
            init_model(bad, 0)
        with pytest.raises(ConfigError):
            init_model(ModelConfig(0, 64, 4, 16, 172, 256), 0)


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
            x = x + ((g * expit(g)) * (hf @ lw.w_up)) @ lw.w_down
        assert np.allclose(trace.logits, x @ toy_weights.head, atol=1e-12)

    def test_empty_sequence_rejected(self):
        # every sequence holds an instruction token, so none reaches the forward empty
        with pytest.raises(InputError):
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
        assert all(np.array_equal(x, y) for x, y in zip(a.hidden, b.hidden))


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
            assert all(np.array_equal(a, b) for a, b in zip(pruned.hidden, full.hidden))

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
        # hidden at a boundary layer is recorded before that boundary's drop
        text = 3
        widths = [h.shape[0] for h in trace.hidden]
        assert widths == [e + text for e in [16, 16, 8, 8, 4, 4, 2, 2]]

    def test_schedule_mismatch_rejected(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=7)
        with pytest.raises(ConfigError):
            forward_pruned(toy_weights, seq, build_schedule(8, 4, 0.5, 8))
        with pytest.raises(ConfigError):
            forward_pruned(toy_weights, seq, build_schedule(6, 3, 0.5, 16))

    @settings(max_examples=60, deadline=None)
    @given(v0=st.integers(0, 24), stages=st.integers(1, 8), keep_ratio=st.floats(0.05, 1.0),
           instr=st.integers(1, 3), answer=st.integers(0, 2), seed=st.integers(0, 2**16))
    @example(v0=16, stages=4, keep_ratio=0.5, instr=3, answer=2, seed=100)
    @example(v0=0, stages=4, keep_ratio=0.5, instr=1, answer=0, seed=0)
    @example(v0=5, stages=8, keep_ratio=0.1, instr=2, answer=1, seed=1)  # reaches 0 tokens
    def test_mask_oracle_equivalence(self, toy_weights, v0, stages, keep_ratio, instr, answer,
                                     seed):
        schedule = build_schedule(8, stages, keep_ratio, v0)
        seq = random_sequence(TOY_CONFIG, v0, seed, instr, answer)
        pruned = forward_pruned(toy_weights, seq, schedule)
        oracle_hidden, oracle_kept = masked_pruned_forward(toy_weights, seq, schedule)
        assert [k.tolist() for _, k in pruned.kept_masks] == oracle_kept
        ref = oracle_hidden[pruned.positions]
        rel = np.abs(pruned.hidden[-1] - ref) / np.maximum(np.abs(ref), 1e-12)
        assert rel.max() < 1e-9

    @pytest.mark.parametrize("cfg, v0", [
        (TOY_CONFIG, 1152),
        (ModelConfig(num_layers=16, hidden_size=256, num_heads=8, head_dim=32,
                     ffn_intermediate=688, vocab_size=256), 576),
    ], ids=["toy1152", "mid576"])
    def test_mask_oracle_at_benchmark_geometries(self, cfg, v0):
        # C8's check at the geometries the benchmark times, S=4 lambda=0.5
        weights = init_model(cfg, 11)
        schedule = build_schedule(cfg.num_layers, 4, 0.5, v0)
        seq = random_sequence(cfg, v0, seed=12, instr=4, answer=1)
        pruned = forward_pruned(weights, seq, schedule)
        oracle_hidden, oracle_kept = masked_pruned_forward(weights, seq, schedule)
        assert [k.tolist() for _, k in pruned.kept_masks] == oracle_kept
        assert [len(k) for k in oracle_kept] == list(schedule.stage_token_counts[1:])
        ref = oracle_hidden[pruned.positions]
        rel = np.abs(pruned.hidden[-1] - ref) / np.maximum(np.abs(ref), 1e-12)
        assert rel.max() < 1e-9

    def test_boundary_qk_feeds_ranking(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=8)
        schedule = build_schedule(8, 4, 0.5, 16)
        seen = []
        trace = forward_pruned(toy_weights, seq, schedule, ranker=recording_ranker(seen))
        assert [(q.shape, k.shape) for q, k in seen] == \
               [((4, 16), (4, v, 16)) for v in schedule.stage_token_counts[:-1]]
        for (q, k), (_, kept), survivors in zip(
                seen, trace.kept_masks, [np.arange(16)] + [k for _, k in trace.kept_masks]):
            scores = rank_image_tokens(q, k)
            is_kept = np.isin(survivors, kept)
            assert scores[is_kept].min() >= scores[~is_kept].max()


class TestInjection:
    def test_dropped_token_injection_is_invisible(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=9)
        schedule = build_schedule(8, 4, 0.5, 16)
        base = forward_pruned(toy_weights, seq, schedule)
        garbage = RngState(55).normals(TOY_CONFIG.hidden_size, 10.0)
        survivors = set(range(16))
        for (layer, kept), b_idx in zip(base.kept_masks, range(3)):
            dropped_here = survivors - set(kept.tolist())
            for token in sorted(dropped_here):
                injected = inject_at_boundary(toy_weights, seq, schedule, layer, token, garbage)
                assert np.array_equal(injected.logits, base.logits)
                boundary_idx = layer  # hidden[layer:] are post-boundary layers
                for a, b in zip(injected.hidden[boundary_idx:], base.hidden[boundary_idx:]):
                    assert np.array_equal(a, b)
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
        original = base.hidden[layer - 1][token]  # positions == storage before first drop
        injected = inject_at_boundary(toy_weights, seq, schedule, layer, token, original)
        assert np.array_equal(injected.logits, base.logits)
        assert all(np.array_equal(a, b) for a, b in zip(injected.hidden, base.hidden))

    def test_invalid_targets_rejected(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=12)
        schedule = build_schedule(8, 4, 0.5, 16)
        vec = np.zeros(TOY_CONFIG.hidden_size)
        with pytest.raises(ConfigError):
            inject_at_boundary(toy_weights, seq, schedule, 3, 0, vec)  # not a boundary
        with pytest.raises(ConfigError):
            inject_at_boundary(toy_weights, seq, schedule, 2, 99, vec)
        dropped_first = sorted(set(range(16)) - set(forward_pruned(
            toy_weights, seq, schedule).kept_masks[0][1].tolist()))[0]
        with pytest.raises(ConfigError, match="no longer survives"):
            inject_at_boundary(toy_weights, seq, schedule, 4, dropped_first, vec)

    def test_one_forward_per_injection(self, toy_weights):
        seq = random_sequence(TOY_CONFIG, 16, seed=14)
        schedule = build_schedule(8, 4, 0.5, 16)
        seen = []
        inject_at_boundary(toy_weights, seq, schedule, 4, 20, np.zeros(TOY_CONFIG.hidden_size),
                           ranker=recording_ranker(seen))
        assert len(seen) == len(schedule.boundary_layers)


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
        scores = rank_image_tokens(*seen[0])  # at the first boundary, layer 2
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


class TestSerialization:
    def test_roundtrip(self, toy_weights, tmp_path):
        path = tmp_path / "weights.pdrw"
        save_weights(toy_weights, path)
        loaded = load_weights(path)
        assert loaded.config == toy_weights.config
        for la, lb in zip(loaded.layers, toy_weights.layers):
            for ma, mb in zip(la.matrices(), lb.matrices()):
                assert np.array_equal(ma.ravel(), mb.ravel())
        assert np.array_equal(loaded.embedding, toy_weights.embedding)
        seq = random_sequence(TOY_CONFIG, 8, seed=13)
        assert np.array_equal(keep_all_forward(loaded, seq).logits,
                              keep_all_forward(toy_weights, seq).logits)

    def test_header_layout(self, toy_weights, tmp_path):
        path = tmp_path / "weights.pdrw"
        save_weights(toy_weights, path)
        raw = path.read_bytes()
        assert raw[:4] == b"PDRW"
        header = np.frombuffer(raw[4:32], dtype="<i4")
        assert list(header) == [1, 8, 64, 4, 16, 172, 256]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pdrw"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(InputError):
            load_weights(path)
