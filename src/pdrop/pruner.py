"""Staged pruning core: schedules, drop decisions, and the baseline
strategies used for cost comparison.

The drop count at the end of each stage is ceil((1 - keep_ratio) * count);
the survivors feed the next stage, so the image-token count shrinks
roughly exponentially stage by stage.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import index

import numpy as np

from .errors import ConfigError
from .numkernel import RngState, arg_topk, derive_seed

# stages past which no schedule is built, as each of its lists is that
# long; a forward's model has fewer than 8192 layers (layout.MAX_ELEMENTS)
MAX_STAGES = 1 << 16


@dataclass(frozen=True)
class StageSchedule:
    """Layers and image tokens in each stage of one forward; each stage
    but the last ends in a drop boundary."""

    stage_layer_counts: tuple[int, ...]
    stage_token_counts: tuple[int, ...]

    def __post_init__(self):
        layers, tokens = self.stage_layer_counts, self.stage_token_counts
        if not layers or len(layers) != len(tokens):
            raise ConfigError(f"{len(layers)} stage layer counts vs {len(tokens)} token counts")
        if min(layers) < 1 or min(tokens) < 0:
            raise ConfigError(f"need >= 1 layer and >= 0 tokens per stage, got {layers}, {tokens}")
        if sorted(tokens, reverse=True) != [*tokens]:
            raise ConfigError(f"image-token counts grow across stages: {tokens}")

    @property
    def boundary_layers(self) -> tuple[int, ...]:
        """1-based layers after which a drop is applied."""
        return tuple(itertools.accumulate(self.stage_layer_counts[:-1]))


@functools.lru_cache(maxsize=1024)
def _rational(ratio: float) -> tuple[int, int]:
    """``ratio`` as the rational p/q it stands for, so that 0.4 * 345 does
    not ceil to 139 through binary rounding noise (cached: a snap is ~10 us)."""
    snapped = Fraction(ratio).limit_denominator(1_000_000)
    return snapped.numerator, snapped.denominator


def _keep_counts(keep_ratio: float, num_image_tokens: int, num_drops: int) -> tuple[int, ...]:
    """Image-token counts before and after each of ``num_drops`` drops, each
    keeping floor(p * c / q) of c for the snapped ``keep_ratio`` p/q."""
    p, q = _rational(keep_ratio)
    tokens = [num_image_tokens]
    for _ in range(num_drops):
        tokens.append(p * tokens[-1] // q)
    return tuple(tokens)


def build_schedule(num_layers: int, num_stages: int, keep_ratio: float, num_image_tokens: int) -> StageSchedule:
    """Split layers into stages as evenly as possible (remainder goes to the
    last stage) and iterate the ceiling-drop recurrence on token counts."""
    if not 1 <= num_stages <= min(num_layers, MAX_STAGES):
        raise ConfigError(f"need 1 <= stages <= layers and {MAX_STAGES}, "
                          f"got S={num_stages}, J={num_layers}")
    if not 0.0 < keep_ratio <= 1.0:
        raise ConfigError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    base = num_layers // num_stages
    layer_counts = [base] * (num_stages - 1) + [num_layers - base * (num_stages - 1)]
    return StageSchedule(tuple(layer_counts), _keep_counts(keep_ratio, num_image_tokens, num_stages - 1))


def keep_all_schedule(num_layers: int, num_image_tokens: int) -> StageSchedule:
    """One stage at full width: the unpruned forward."""
    return StageSchedule((num_layers,), (num_image_tokens,))


def identity_ranker(scores, stage):
    """Default ranker: the paper's rule keeps the highest attention scores."""
    return scores


def decide(scores: np.ndarray, schedule: StageSchedule, stage: int,
           ranker=identity_ranker) -> np.ndarray:
    """Ascending indices of the tokens kept at the drop boundary that ends
    ``stage``: the schedule's next count of highest ``ranker(copy, stage)``,
    ties to the lower index. The ranker gets a float64 copy of ``scores``,
    so it may keep or write into its argument."""
    counts = schedule.stage_token_counts
    if not 0 <= stage < len(counts) - 1:
        raise ConfigError(f"stage {stage} has no drop boundary (S={len(counts)})")
    try:  # a float count would slice the scores or pass the shape check
        expected, kept = index(counts[stage]), index(counts[stage + 1])
    except TypeError as exc:
        raise ConfigError(f"schedule counts must be integers: {exc}") from exc
    scores = np.asarray(ranker(np.array(scores, dtype=np.float64), stage), dtype=np.float64)
    if scores.shape != (expected,):
        raise ConfigError(f"{scores.shape} scores at stage {stage}, schedule expects {expected}")
    if not np.isfinite(scores).all():
        raise ConfigError(f"non-finite ranking scores at stage {stage}")
    return arg_topk(scores, kept)


# --- strategies ------------------------------------------------------------


class Strategy:
    """A strategy is its stage schedule,
    ``schedule(num_layers, num_image_tokens)``, plus ``ranker(seed)``, the
    ranker that picks the kept set at each drop boundary of a run. A ranker
    is called as ``ranker(scores, stage)`` with the attention score of each
    surviving image token (``toymodel.forward_pruned``) and returns one
    float64 score per token; the boundary keeps the highest."""

    def ranker(self, seed: int):
        return identity_ranker


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
    single cut down to floor(keep_ratio * V0) by build_schedule's rule."""

    drop_layer: int = 2
    keep_ratio: float = 0.5
    name = "fastv"

    def schedule(self, num_layers: int, num_image_tokens: int) -> StageSchedule:
        if not 0.0 <= self.keep_ratio <= 1.0:
            raise ConfigError(f"keep_ratio must be in [0, 1], got {self.keep_ratio}")
        if not 1 <= self.drop_layer < num_layers:
            raise ConfigError(f"drop layer {self.drop_layer} must be in [1, {num_layers})")
        return StageSchedule((self.drop_layer, num_layers - self.drop_layer),
                             _keep_counts(self.keep_ratio, num_image_tokens, 1))


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

    def rank(scores, stage):
        return RngState(derive_seed(seed, stage)).uniforms(scores.size)

    return rank
