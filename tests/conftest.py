import pytest

from pdrop import toymodel


@pytest.fixture
def layer_forwards(monkeypatch):
    """Records the row count of each layer forward (``toymodel._layer_forward``)
    that runs."""
    rows = []
    layer_forward = toymodel._layer_forward

    def counted(lw, cfg, x, *args, **kwargs):
        rows.append(x.shape[0])
        return layer_forward(lw, cfg, x, *args, **kwargs)

    monkeypatch.setattr(toymodel, "_layer_forward", counted)
    return rows


@pytest.fixture
def softmax_calls(monkeypatch):
    """Records the block shape (heads, rows, keys) and the ``bound`` of each
    ``softmax_rows`` call that the attention kernel makes: one call per
    attention block, over every head."""
    calls = []
    softmax_rows = toymodel.softmax_rows

    def recorded(a, **kwargs):
        calls.append((a.shape, kwargs["bound"]))
        return softmax_rows(a, **kwargs)

    monkeypatch.setattr(toymodel, "softmax_rows", recorded)
    return calls
