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
