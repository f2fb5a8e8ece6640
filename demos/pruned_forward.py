"""Walk through a staged pruned forward on the toy decoder.

Builds a planted marker fixture (a few image tokens carry the subspace
the instruction query looks for), runs the staged forward, and shows the
kept masks concentrating on the marked tokens stage by stage. Also
demonstrates the keep-all equivalence and dropped-token insensitivity.
"""

import numpy as np

from pdrop import (
    RngState,
    TOY_CONFIG,
    build_schedule,
    forward_pruned,
    keep_all_schedule,
)
from pdrop.harness import FixtureSpec, make_marker_sequence
from pdrop.toymodel import build_marker_model

cfg = TOY_CONFIG
fixture = FixtureSpec(image_tokens=32, marked_count=3, marked_placement="random")
seq, marked = make_marker_sequence(cfg, fixture, seed=42)
weights = build_marker_model(cfg, fixture.marker_dims)
schedule = build_schedule(cfg.num_layers, 4, 0.5, fixture.image_tokens)

print(f"image tokens: {fixture.image_tokens}, "
      f"marked at positions {[int(p) for p in marked]}")
print(f"schedule: boundaries {schedule.boundary_layers}, "
      f"counts {schedule.stage_token_counts}\n")

trace = forward_pruned(weights, seq, schedule)
for layer, kept in trace.kept_masks:
    tags = ["*" if p in set(marked) else " " for p in kept]
    print(f"after layer {layer}: kept {kept.size:2d} -> "
          + " ".join(f"{p}{t}" for p, t in zip(kept, tags)))
print("(* = marked token; all marked tokens survive every stage)\n")

# four stages that keep every token degenerate to the one-stage forward, bit for bit
keep_all = build_schedule(cfg.num_layers, 4, 1.0, fixture.image_tokens)
one_stage = keep_all_schedule(cfg.num_layers, fixture.image_tokens)
same = np.array_equal(forward_pruned(weights, seq, keep_all).logits,
                      forward_pruned(weights, seq, one_stage).logits)
print(f"four-stage keep-all forward identical to one-stage forward: {same}")

# overwriting a token that is about to be dropped changes nothing downstream
layer, kept = trace.kept_masks[0]
dropped = sorted(set(range(fixture.image_tokens)) - set(kept.tolist()))
garbage = RngState(7).normals(cfg.hidden_size, 100.0)


def inject(layer_no, x, positions, scores):  # called at each boundary, before its drop
    if layer_no == layer:
        x[positions == dropped[0]] = garbage


injected = forward_pruned(weights, seq, schedule, observe=inject)
print(f"garbage injected into dropped token {dropped[0]} at layer {layer}: "
      f"final logits identical = {np.array_equal(injected.logits, trace.logits)}")
