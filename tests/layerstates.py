"""Per-layer hidden states for the tests. A forward keeps only its final
state, so layer l's state is taken as the final state of a forward on the
model's first l layers under the schedule cut at l. That forward runs the
same code on the same inputs up to layer l, so its final state equals,
bit for bit, the state the whole forward holds after layer l and before
any drop there.
"""

from dataclasses import replace

from pdrop.pruner import StageSchedule
from pdrop.toymodel import forward_pruned, inject_at_boundary


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


def layer_states(weights, seq, schedule, layers, inject=None):
    """The hidden states after each of ``layers`` (1-based) in the forward
    of ``schedule``. With ``inject=(boundary_layer, token_index,
    replacement)`` the forward is ``inject_at_boundary``, and every layer
    asked for must lie past that boundary."""
    states = []
    for layer in layers:
        w, s = cut_at(weights, schedule, layer)
        trace = forward_pruned(w, seq, s) if inject is None else inject_at_boundary(
            w, seq, s, *inject)
        states.append(trace.hidden[-1])
    return states
