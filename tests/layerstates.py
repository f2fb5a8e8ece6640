"""Per-layer hidden states for the tests. A forward keeps only its final
state, so layer l's state is taken as the final state of a forward on the
model's first l layers under the schedule cut at l. That forward runs the
same code on the same inputs up to layer l, so its final state equals,
bit for bit, the state the whole forward holds after layer l and before
any drop there.
"""

from dataclasses import replace

import numpy as np

from pdrop.pruner import StageSchedule, identity_ranker
from pdrop.toymodel import forward_pruned


def cut_at(weights, schedule, layer):
    """``weights`` and ``schedule`` cut to their first ``layer`` layers."""
    counts, tokens = [], []
    for count, token_count in zip(schedule.stage_layer_counts, schedule.stage_token_counts):
        done = sum(counts)
        if done == layer:
            break
        counts.append(min(count, layer - done))
        tokens.append(token_count)
    cut = replace(weights, config=replace(weights.config, num_layers=layer),
                  layers=weights.layers[:layer])
    return cut, StageSchedule(tuple(counts), tuple(tokens))


def inject_at_boundary(weights, seq, schedule, boundary_layer, token_index, replacement,
                       ranker=identity_ranker):
    """The forward of ``schedule`` with the hidden state of the token at
    original position ``token_index`` overwritten at ``boundary_layer``,
    through the forward's ``observe`` hook, so before the drop decision
    there. Fails rather than inject nothing: the layer must be a boundary,
    the token must survive to it, and the write is made exactly once."""
    assert boundary_layer in schedule.boundary_layers, (
        f"layer {boundary_layer} is not a drop boundary of the schedule")
    replacement = np.asarray(replacement, dtype=np.float64)
    assert replacement.shape == (weights.config.hidden_size,), replacement.shape
    written = []

    def overwrite(layer, x, positions, scores):
        if layer == boundary_layer:
            slot = np.flatnonzero(positions == token_index)
            assert slot.size == 1, f"token {token_index} does not survive to layer {layer}"
            x[slot[0]] = replacement
            written.append(layer)

    trace = forward_pruned(weights, seq, schedule, ranker=ranker, observe=overwrite)
    assert written == [boundary_layer], written
    return trace


def layer_states(weights, seq, schedule, layers, inject=None):
    """The hidden states after each of ``layers`` (1-based) in the forward
    of ``schedule``. With ``inject=(boundary_layer, token_index,
    replacement)`` the forward is ``inject_at_boundary``, which fails
    unless every layer asked for lies past that boundary."""
    states = []
    for layer in layers:
        w, s = cut_at(weights, schedule, layer)
        trace = forward_pruned(w, seq, s) if inject is None else inject_at_boundary(
            w, seq, s, *inject)
        states.append(trace.hidden[-1])
    return states
