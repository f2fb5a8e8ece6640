"""Closed-form FLOPs accounting for the image-token part of a decoder
forward: 4nd^2 + 2n^2d + 3ndm per layer, summed per stage for staged
pruning. Text tokens contribute zero by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, log10

from .errors import ConfigError
from .pruner import StageSchedule, Strategy


def layer_flops(n: int, d: int, m: int) -> int:
    """Attention + three-linear FFN cost of one layer at n image tokens."""
    n, d, m = int(n), int(d), int(m)
    return 4 * n * d * d + 2 * n * n * d + 3 * n * d * m


@dataclass(frozen=True)
class CostReport:
    per_stage: tuple[int, ...]
    total: int
    vanilla: int
    ratio: float
    avg_tokens: float

    def to_json(self) -> dict:
        return {
            "per_stage": list(self.per_stage),
            "total": self.total,
            "vanilla": self.vanilla,
            "ratio": self.ratio,
            "avg_tokens": self.avg_tokens,
            "unit": "FLOPs",
        }


TERA_SIG_FIGS = 3  # significant figures of a tera value, the paper-table convention


def tera(flops: int) -> float:
    """FLOPs in units of 1e12, rounded to TERA_SIG_FIGS significant figures."""
    t = flops / 1e12
    if t == 0:
        return 0.0
    return round(t, TERA_SIG_FIGS - 1 - floor(log10(abs(t))))


def _report(layers, tokens, num_layers: int, vanilla_tokens: int, d: int, m: int) -> CostReport:
    """The one report builder: stage i runs layers[i] layers at tokens[i]
    image tokens; the vanilla reference, num_layers at vanilla_tokens."""
    if d < 1 or m < 1:
        raise ConfigError(f"hidden size d and FFN size m must be positive, got d={d}, m={m}")
    per_stage = tuple(k * layer_flops(n, d, m) for k, n in zip(layers, tokens))
    total = sum(per_stage)
    vanilla = num_layers * layer_flops(vanilla_tokens, d, m)
    return CostReport(per_stage=per_stage, total=total, vanilla=vanilla,
                      ratio=total / vanilla if vanilla else 1.0,
                      avg_tokens=sum(k * n for k, n in zip(layers, tokens)) / sum(layers))


def schedule_cost(schedule: StageSchedule, d: int, m: int) -> CostReport:
    """Per-stage and total cost of a schedule; the vanilla reference runs
    every layer at the first stage's width."""
    layers, tokens = schedule.stage_layer_counts, schedule.stage_token_counts
    return _report(layers, tokens, sum(layers), tokens[0], d, m)


def theoretical_saving(keep_ratio: float, num_stages: int) -> float:
    """Staged/vanilla cost fraction under a linear per-layer cost and pure
    exponential token counts: (1 - r^S) / (S (1 - r)); 1 at r = 1."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ConfigError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if num_stages < 1:
        raise ConfigError(f"need at least one stage, got {num_stages}")
    if keep_ratio == 1.0:
        return 1.0
    return (1.0 - keep_ratio**num_stages) / (num_stages * (1.0 - keep_ratio))


def strategy_cost(strategy: Strategy, num_layers: int, num_image_tokens: int, d: int, m: int) -> CostReport:
    """Cost of a strategy's schedule. Consecutive stages of equal width are
    reported as one, so S=4 at lambda=1 reports one stage; the vanilla
    reference is always the uncompressed count, even for strategies (like
    uniform compression) that never run at full width."""
    schedule = strategy.schedule(num_layers, num_image_tokens)
    layers, tokens = [], []
    for k, n in zip(schedule.stage_layer_counts, schedule.stage_token_counts):
        if tokens and tokens[-1] == n:
            layers[-1] += k
        else:
            layers.append(k)
            tokens.append(n)
    return _report(layers, tokens, num_layers, num_image_tokens, d, m)
