import numpy as np
import pytest

from pdrop import layout, toymodel
from pdrop.errors import ConfigError
from pdrop.layout import MultimodalSequence, build_sequence, sequence_from_json
from pdrop.numkernel import rmsnorm_rows
from pdrop.pruner import build_schedule
from pdrop.toymodel import TOY_CONFIG, forward_pruned, init_model


def test_build_segments():
    seq = build_sequence(np.zeros((4, 8)), [1, 2], [3])
    assert seq.image_embeddings.shape == (4, 8)
    assert list(seq.instruction_ids) == [1, 2]
    assert list(seq.answer_ids) == [3]
    assert list(seq.text_ids) == [1, 2, 3]
    assert len(seq) == 7


def test_no_image_tokens_is_valid():
    seq = build_sequence(np.zeros((0, 0)), [1], [2])
    assert seq.num_image_tokens == 0
    assert len(seq) == 2


@pytest.mark.parametrize("instruction, answer, dtype", [
    ([1.5], [True], "float64"), ([1], [True], "bool"), (["1"], [], "<U1"), ([2**63], [], "uint64"),
], ids=["float", "bool", "str", "uint64"])
def test_ids_must_be_integers(instruction, answer, dtype):
    # the int64 cast would truncate 1.5 to 1, read True or "1" as 1 and wrap 2**63
    with pytest.raises(ConfigError, match=f"^instruction and answer ids must be integers, got dtype {dtype}$"):
        build_sequence(np.zeros((2, 64)), instruction, answer)


def test_unsigned_and_empty_ids_are_valid():
    seq = build_sequence(np.zeros((2, 64)), np.array([1], dtype=np.uint8), [])
    assert seq.instruction_ids.dtype == seq.answer_ids.dtype == np.int64
    assert list(seq.text_ids) == [1]


def test_empty_instruction_rejected():
    with pytest.raises(ConfigError):
        build_sequence(np.zeros((2, 8)), [], [1])
    with pytest.raises(ConfigError):
        MultimodalSequence(np.zeros((2, 8)), np.empty(0, dtype=np.int64), np.array([1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_image_embedding_rejected(bad):
    emb = np.zeros((3, 4))
    emb[1, 2] = bad
    with pytest.raises(ConfigError, match="finite"):
        build_sequence(emb, [1])


def test_image_rows_sum_of_squares_checked_as_rmsnorm_rows_sums_them():
    # 64 equal entries whose squares rmsnorm_rows sums to a finite value
    # normalise to 1; 2e-12 larger, their sum is inf and they normalise to 0
    top = np.sqrt(np.finfo(float).max / 64)
    under = np.full((1, 64), top * (1 - 1e-12))
    over = np.full((1, 64), top * (1 + 1e-12))
    assert np.allclose(rmsnorm_rows(under, np.ones(64), 1e-6), 1.0, rtol=0.0, atol=1e-12)
    build_sequence(np.concatenate([np.zeros((2, 64)), under]), [1])
    with np.errstate(over="ignore"):
        assert np.all(rmsnorm_rows(over, np.ones(64), 1e-6) == 0.0)
    with pytest.raises(ConfigError, match="^image embedding row 2: its sum of squares overflows"):
        build_sequence(np.concatenate([np.zeros((2, 64)), over]), [1])


@pytest.mark.parametrize("shape", [(2, 4, 2), (4,), (0, 4, 2)])
def test_non_2d_image_embeddings_rejected(shape):
    with pytest.raises(ConfigError, match="2-D"):
        MultimodalSequence(np.zeros(shape), np.array([1]), np.empty(0, dtype=np.int64))


def test_build_sequence_rejects_3d_image():
    # 1-D input is read as one row; 3-D rows are not flattened
    with pytest.raises(ConfigError, match="2-D"):
        build_sequence(np.zeros((2, 64, 2)), [1])


def test_query_sees_every_image_token(monkeypatch):
    # the ranking query is the last instruction token, which comes after
    # every image token: at the second layer's boundary it has attended
    # to each of them, and to no answer token
    cfg = TOY_CONFIG
    weights = init_model(cfg, 3)
    emb = 0.5 * np.ones((5, cfg.hidden_size))
    schedule = build_schedule(cfg.num_layers, 4, 0.5, 5)
    seen = []
    attention = toymodel._causal_attention

    def recording_attention(qh, kt, vh, out, scratch, rank=None):
        # qh is (heads, n, head_dim); rank is (query row, image keys)
        if rank is not None:
            seen.append((qh[:, rank[0]].copy(), rank[1]))
        return attention(qh, kt, vh, out, scratch, rank)

    monkeypatch.setattr(toymodel, "_causal_attention", recording_attention)

    def first_query(image, answer):
        seen.clear()
        forward_pruned(weights, build_sequence(image, [1, 2, 3], answer), schedule)
        return seen[0]

    base, keys = first_query(emb, [4])
    assert keys == 5
    for token in range(5):
        changed = emb.copy()
        changed[token] += 1.0
        assert not np.array_equal(first_query(changed, [4])[0], base)
    assert np.array_equal(first_query(emb, [9])[0], base)


def test_fixture_roundtrip():
    obj = {"image": [[0.5, 1.5], [2.5, 3.5]], "instruction": [1, 2], "answer": [3]}
    seq = sequence_from_json(obj)
    assert seq.num_image_tokens == 2
    assert np.array_equal(seq.image_embeddings, [[0.5, 1.5], [2.5, 3.5]])
    assert list(seq.text_ids) == [1, 2, 3]


def test_fixture_missing_instruction():
    with pytest.raises(ConfigError):
        sequence_from_json({"image": [[0.0]]})


@pytest.mark.parametrize("obj", [[1, 2], "x", None])
def test_fixture_not_an_object(obj):
    with pytest.raises(ConfigError, match="JSON object"):
        sequence_from_json(obj)


@pytest.mark.parametrize("instruction, answer", [
    ("ab", []), ([1e30], []), ([[1]], [2]), ([1], [[2]]), (1, []),
    ([1.5, 2.7, True], []), ([1.0], []), ([1], [True]), ([2**64], []),
])
def test_fixture_ids_must_be_flat_integers(instruction, answer):
    with pytest.raises(ConfigError):
        sequence_from_json({"image": [[0.0] * 4], "instruction": instruction, "answer": answer})


def test_fixture_text_bound(monkeypatch):
    obj = {"image": [[0.0] * 4], "instruction": [1, 2], "answer": [3]}
    monkeypatch.setattr(layout, "MAX_ELEMENTS", 3)
    assert list(sequence_from_json(obj).text_ids) == [1, 2, 3]
    monkeypatch.setattr(layout, "MAX_ELEMENTS", 2)
    with pytest.raises(ConfigError, match="text ids: 3 elements exceed the bound of 2"):
        sequence_from_json(obj)
