"""Staged pruning core: schedules, similarity ranking, drop decisions,
and the baseline strategies used for cost comparison.

The drop count at the end of each stage is ceil((1 - keep_ratio) * count);
the survivors feed the next stage, so the image-token count shrinks
roughly exponentially stage by stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .numkernel import RngState, arg_topk, derive_seed


def _drop_count(count: int, keep_ratio: float) -> int:
    # snap the float ratio to its intended rational so e.g. 0.4 * 345 does
    # not ceil to 139 through binary rounding noise
    ratio = Fraction(keep_ratio).limit_denominator(1_000_000)
    return math.ceil((1 - ratio) * count)


@dataclass(frozen=True)
class StageSchedule:
    """Drop boundaries and per-stage image-token counts for one forward."""

    num_layers: int
    num_stages: int
    keep_ratio: float
    boundary_layers: tuple[int, ...]  # 1-based; drop applied after that layer
    stage_layer_counts: tuple[int, ...]
    stage_token_counts: tuple[int, ...]

    def per_layer_counts(self) -> np.ndarray:
        out = []
        for layers, tokens in zip(self.stage_layer_counts, self.stage_token_counts):
            out.extend([tokens] * layers)
        return np.asarray(out, dtype=np.int64)

    def to_json(self) -> dict:
        return {
            "boundaries": list(self.boundary_layers),
            "stage_layers": list(self.stage_layer_counts),
            "stage_tokens": list(self.stage_token_counts),
            "lambda": self.keep_ratio,
            "stages": self.num_stages,
        }


def build_schedule(num_layers: int, num_stages: int, keep_ratio: float, num_image_tokens: int) -> StageSchedule:
    """Split layers into stages as evenly as possible (remainder goes to the
    last stage) and iterate the ceiling-drop recurrence on token counts."""
    if num_layers < 1 or num_stages < 1 or num_stages > num_layers:
        raise ConfigError(f"need 1 <= stages <= layers, got S={num_stages}, J={num_layers}")
    if not 0.0 < keep_ratio <= 1.0:
        raise ConfigError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if num_image_tokens < 0:
        raise ConfigError(f"negative image-token count {num_image_tokens}")
    base = num_layers // num_stages
    layer_counts = [base] * (num_stages - 1) + [num_layers - base * (num_stages - 1)]
    boundaries = tuple(int(b) for b in np.cumsum(layer_counts[:-1]))
    tokens = [num_image_tokens]
    for _ in range(num_stages - 1):
        tokens.append(tokens[-1] - _drop_count(tokens[-1], keep_ratio))
    return StageSchedule(
        num_layers=num_layers,
        num_stages=num_stages,
        keep_ratio=keep_ratio,
        boundary_layers=boundaries,
        stage_layer_counts=tuple(layer_counts),
        stage_token_counts=tuple(tokens),
    )


def single_drop_schedule(num_layers: int, drop_layer: int, keep_count: int, num_image_tokens: int) -> StageSchedule:
    """Two-stage schedule: full width through drop_layer, keep_count after."""
    if not 1 <= drop_layer < num_layers:
        raise ConfigError(f"drop layer {drop_layer} must be in [1, {num_layers})")
    if not 0 <= keep_count <= num_image_tokens:
        raise ConfigError(f"keep count {keep_count} out of range for {num_image_tokens} tokens")
    ratio = keep_count / num_image_tokens if num_image_tokens else 1.0
    return StageSchedule(
        num_layers=num_layers,
        num_stages=2,
        keep_ratio=ratio,
        boundary_layers=(drop_layer,),
        stage_layer_counts=(drop_layer, num_layers - drop_layer),
        stage_token_counts=(num_image_tokens, keep_count),
    )


def keep_all_schedule(num_layers: int, num_image_tokens: int) -> StageSchedule:
    """One stage at full width: the unpruned forward."""
    if num_layers < 1 or num_image_tokens < 0:
        raise ConfigError(f"need >= 1 layer and >= 0 tokens, got {num_layers} layers, {num_image_tokens} tokens")
    return StageSchedule(num_layers, 1, 1.0, (), (num_layers,), (num_image_tokens,))


def rank_image_tokens(q_last: np.ndarray, k_image: np.ndarray) -> np.ndarray:
    """Mean over heads of dot(q, k) / sqrt(head_dim) for the last-instruction
    query ``q_last`` (heads, head_dim) against the image keys ``k_image``
    (heads, V, head_dim); no softmax, the ranking only needs a monotone
    score."""
    q_last = np.asarray(q_last, dtype=np.float64)
    k_image = np.asarray(k_image, dtype=np.float64)
    if (q_last.ndim != 2 or k_image.ndim != 3 or q_last.shape[0] != k_image.shape[0]
            or q_last.shape[1] != k_image.shape[2]):
        raise ShapeError(f"bad head shapes: q {q_last.shape}, k {k_image.shape}")
    if q_last.shape[0] == 0:
        raise ShapeError("need at least one attention head")
    per_head = np.einsum("hd,hnd->hn", q_last, k_image) / math.sqrt(q_last.shape[1])
    return per_head.mean(axis=0)


def decide(scores: np.ndarray, schedule: StageSchedule, stage: int) -> np.ndarray:
    """Ascending indices of the scores kept at the drop boundary that ends
    ``stage``: the schedule's next count of highest scores, ties to the
    lower index."""
    if not 0 <= stage < schedule.num_stages - 1:
        raise ConfigError(f"stage {stage} has no drop boundary (S={schedule.num_stages})")
    scores = np.asarray(scores, dtype=np.float64)
    expected = schedule.stage_token_counts[stage]
    if scores.shape != (expected,):
        raise ConfigError(f"{scores.shape} scores at stage {stage}, schedule expects {expected}")
    if not np.isfinite(scores).all():
        raise InputError(f"non-finite ranking scores at stage {stage}")
    return arg_topk(scores, schedule.stage_token_counts[stage + 1])


# --- strategies ------------------------------------------------------------


class Strategy:
    """A strategy is its per-layer image-token schedule,
    ``schedule(num_layers, num_image_tokens)``, plus ``ranker(seed)``, the
    ranker that picks the kept set at each drop boundary of a run. A ranker
    is called as ``ranker(q_last, k_image, stage)`` with the post-rotary
    last-instruction query (heads, head_dim) and the surviving image keys
    (heads, V, head_dim), and returns one float64 score per image key."""

    def ranker(self, seed: int):
        return attention_ranker


@dataclass(frozen=True)
class Vanilla(Strategy):
    name = "vanilla"

    def schedule(self, num_layers: int, num_image_tokens: int) -> StageSchedule:
        return keep_all_schedule(num_layers, num_image_tokens)


@dataclass(frozen=True)
class PyramidDrop(Strategy):
    stages: int = 4
    keep_ratio: float = 0.5
    name = "pdrop"

    def schedule(self, num_layers: int, num_image_tokens: int) -> StageSchedule:
        return build_schedule(num_layers, self.stages, self.keep_ratio, num_image_tokens)


@dataclass(frozen=True)
class SingleEarlyDrop(Strategy):
    """FastV-style schedule: full width for drop_layer layers, then a
    single cut down to floor(keep_ratio * V0)."""

    drop_layer: int = 2
    keep_ratio: float = 0.5
    name = "fastv"

    def schedule(self, num_layers: int, num_image_tokens: int) -> StageSchedule:
        if not 0.0 <= self.keep_ratio <= 1.0:
            raise ConfigError(f"keep_ratio must be in [0, 1], got {self.keep_ratio}")
        keep = math.floor(self.keep_ratio * num_image_tokens)
        return single_drop_schedule(num_layers, self.drop_layer, keep, num_image_tokens)


@dataclass(frozen=True)
class UniformCompression(Strategy):
    """Q-former-style cost schedule: a constant compressed token count at
    every layer. Cost-only: it has no ranker, so it cannot run a forward."""

    token_count: int = 288
    name = "uniform"

    def schedule(self, num_layers: int, num_image_tokens: int) -> StageSchedule:
        return keep_all_schedule(num_layers, self.token_count)

    def ranker(self, seed: int):
        raise ConfigError("uniform compression has no forward semantics; it is cost-only")


@dataclass(frozen=True)
class RandomDrop(PyramidDrop):
    """PyramidDrop counts with uniformly random kept-sets; isolates the
    value of attention ranking."""

    seed: int = 0
    name = "random"

    def ranker(self, seed: int):
        return random_ranker(derive_seed(seed, self.seed))


def random_ranker(seed: int):
    """Ranker callable producing seeded uniform scores; the per-stage stream
    is derived from (seed, stage) so row order never matters."""

    def rank(q_last, k_image, stage):
        return RngState(derive_seed(seed, stage)).uniforms(k_image.shape[1])

    return rank


def attention_ranker(q_last, k_image, stage):
    """Default ranker: last-instruction query against surviving image keys."""
    return rank_image_tokens(q_last, k_image)
