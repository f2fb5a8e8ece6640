"""Experiment driver: layer sweeps, strategy comparisons, marker-recall
evaluation, and machine-readable reports.

Marker recall (fraction of planted instruction-relevant image tokens that
survive to the final stage) is the task metric: it is cheap, exact, and
directly controlled by the dropping rule.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from .costmodel import CostReport, strategy_cost
from .errors import ConfigError
from .layout import (MultimodalSequence, build_sequence, check_elements, check_image_size,
                     load_sequence, read_json)
from .numkernel import RngState, derive_seed
from .pruner import (
    PyramidDrop,
    RandomDrop,
    SingleEarlyDrop,
    StageSchedule,
    Strategy,
    UniformCompression,
    Vanilla,
    decide,
)
from .toymodel import (
    DecoderWeights,
    ForwardTrace,
    ModelConfig,
    build_marker_model,
    forward_elements,
    forward_plans,
    forward_pruned,
)


@dataclass(frozen=True)
class FixtureSpec:
    """Generator parameters for a planted marker fixture."""

    image_tokens: int = 64
    marked_count: int = 4
    instruction_length: int = 4
    answer_length: int = 1
    marker_dims: tuple[int, ...] = (0, 1, 2, 3)
    marked_placement: str = "high"  # "high" | "low" | "random"
    noise: float = 0.01
    amplitude: float = 1.0


@dataclass
class ExperimentSpec:
    model: ModelConfig
    seed: int = 0
    fixture: FixtureSpec | None = None
    fixture_path: str | None = None
    strategy: Strategy | None = None
    strategies: list[Strategy] = field(default_factory=list)
    sweep_layers: list[int] = field(default_factory=list)
    sweep_ratios: list[float] = field(default_factory=list)
    margin_onset_layer: int = 1


@dataclass(frozen=True)
class SweepRow:
    layer: int
    keep_ratio: float
    recall: float
    kept_count: int
    flops: int


@dataclass
class RunReport:
    strategy: str
    kept_masks: list[tuple[int, np.ndarray]]
    recall: float
    cost: CostReport
    digest: str

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "stages": [
                {"boundary": int(layer), "kept": [int(p) for p in kept]}
                for layer, kept in self.kept_masks
            ],
            "recall": self.recall,
            "cost": self.cost.to_json(),
            "digest": self.digest,
        }


# --- spec / strategy parsing ----------------------------------------------


# name -> strategy class
STRATEGIES = {
    cls.name: cls for cls in (Vanilla, PyramidDrop, SingleEarlyDrop, UniformCompression, RandomDrop)
}


# the largest magnitude of an integer read from a config or a flag: one
# fits an int64, and a product or sum of a few stays far under the 4,300
# digits past which Python prints no integer
MAX_COUNT = 2**63 - 1


def _int(value) -> int:
    """An integer, or a numeric string of one; a bool or a fraction is refused,
    not truncated, and one past MAX_COUNT is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    n = int(value)
    if abs(n) > MAX_COUNT:
        raise ConfigError(f"{n} is past the bound of {MAX_COUNT}")
    return n


def _float(value) -> float:
    """A float, or a numeric string of one; a bool is refused, not taken as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _ints(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError(f"not a list: {value!r}")
    return tuple(map(_int, value))


# field annotation -> coercion of a JSON value or a flag's text to that type
_COERCE = {"int": _int, "float": _float, "str": str, "tuple[int, ...]": _ints}


def typed(kind: str, value, what: str):
    """``value`` (JSON or a flag's text) as type ``kind``, or a ConfigError naming ``what``."""
    try:
        return _COERCE[kind](value)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: expected {kind}, got {value!r}") from exc


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{what}: expected {kind.__name__}, got {value!r}")
    return value


def _known(obj, keys, what: str) -> dict:
    """``obj``, a JSON object whose every key is one of ``keys``."""
    unknown = sorted(set(_expect(obj, dict, what)) - set(keys))
    if unknown:
        raise ConfigError(f"{what}: unknown fields {unknown}")
    return obj


def _from_fields(cls, obj, what: str):
    """``cls`` built from a JSON object whose keys name its fields; each
    value is coerced to the type its field is annotated with."""
    kinds = {f.name: f.type for f in fields(cls)}
    _known(obj, kinds, what)
    try:
        return cls(**{k: typed(kinds[k], v, f"{what} {k}") for k, v in obj.items()})
    except TypeError as exc:  # a field without a default is missing
        raise ConfigError(f"{what}: {exc}") from exc


def strategy_from_json(obj) -> Strategy:
    """Build a strategy from its name and the fields given; each field is
    coerced to its annotated type, and a field the strategy lacks is an error."""
    if isinstance(obj, str):
        obj = {"name": obj}
    try:
        name = obj["name"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"strategy needs a name: {obj!r}") from exc
    cls = STRATEGIES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(f"unknown strategy {name!r}")
    return _from_fields(cls, {k: v for k, v in obj.items() if k != "name"}, f"strategy {name!r}")


def spec_from_json(obj: dict) -> ExperimentSpec:
    """The spec of a JSON config; a key unknown at any level is an error."""
    _known(obj, ("model", "seed", "fixture", "strategy", "strategies", "sweep",
                 "margin_onset_layer"), "config")
    try:
        model = _from_fields(ModelConfig, obj["model"], "model")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc
    fixture = None
    fixture_path = None
    fx = obj.get("fixture", {})
    if isinstance(fx, dict) and "path" in fx:
        fixture_path = _expect(_known(fx, ("path",), "fixture")["path"], str, "fixture path")
    else:
        fixture = _from_fields(FixtureSpec, fx, "fixture")
    sweep = _known(obj.get("sweep", {}), ("layers", "ratios"), "sweep")
    return ExperimentSpec(
        model=model,
        seed=typed("int", obj.get("seed", 0), "seed"),
        fixture=fixture,
        fixture_path=fixture_path,
        strategy=strategy_from_json(obj["strategy"]) if "strategy" in obj else None,
        strategies=[strategy_from_json(s)
                    for s in _expect(obj.get("strategies", []), list, "strategies")],
        sweep_layers=[typed("int", x, "sweep layer")
                      for x in _expect(sweep.get("layers", []), list, "sweep layers")],
        sweep_ratios=[typed("float", x, "sweep ratio")
                      for x in _expect(sweep.get("ratios", []), list, "sweep ratios")],
        margin_onset_layer=typed("int", obj.get("margin_onset_layer", 1), "margin_onset_layer"),
    )


# config file bytes past which no config is parsed: 1 MiB, over a
# thousand times the largest config in the repo
MAX_CONFIG_BYTES = 1 << 20


def load_spec(path) -> ExperimentSpec:
    """The spec of the config file at ``path``, refused unparsed past MAX_CONFIG_BYTES."""
    return spec_from_json(read_json(path, "config", MAX_CONFIG_BYTES, ConfigError))


# --- fixtures --------------------------------------------------------------


def make_marker_sequence(
    cfg: ModelConfig, fixture: FixtureSpec, seed: int
) -> tuple[MultimodalSequence, np.ndarray]:
    """Planted fixture: unmarked image tokens are small noise, marked ones
    carry the marker subspace. Returns the sequence and the marked original
    positions."""
    v0, km = fixture.image_tokens, fixture.marked_count
    if not 0 <= km <= v0:
        raise ConfigError(f"cannot mark {km} of {v0} image tokens")
    if fixture.answer_length < 0:
        raise ConfigError(f"negative answer length {fixture.answer_length}")
    if cfg.vocab_size < 2:  # the text ids run over 1 .. vocab_size - 1
        raise ConfigError(f"a generated fixture needs vocab_size >= 2, got {cfg.vocab_size}")
    d = cfg.hidden_size
    check_image_size(v0, d)
    # refused as its forward would be, before any embedding or id is built
    n = v0 + max(fixture.instruction_length, 0) + fixture.answer_length
    check_elements(f"a forward of {n} tokens", forward_elements(cfg, n))
    rng = RngState(derive_seed(seed, 101))
    emb = fixture.noise * rng.normals(v0 * d).reshape(v0, d) if v0 else np.zeros((0, d))
    if fixture.marked_placement == "high":
        marked = np.arange(v0 - km, v0)
    elif fixture.marked_placement == "low":
        marked = np.arange(km)
    elif fixture.marked_placement == "random":
        marked = np.sort(np.argsort(rng.uniforms(v0), kind="stable")[:km])
    else:
        raise ConfigError(f"unknown placement {fixture.marked_placement!r}")
    for p in marked:
        emb[p, list(fixture.marker_dims)] += fixture.amplitude
    instruction = 1 + np.arange(fixture.instruction_length) % (cfg.vocab_size - 1)
    answer = 1 + np.arange(fixture.answer_length) % (cfg.vocab_size - 1)
    return build_sequence(emb, instruction, answer), marked.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Plan:
    """What a command runs, resolved before its first forward: the weights,
    the sequence, the marked positions, and one ``(strategy, schedule,
    ranker)`` run per strategy. Unpacks as ``(weights, seq, marked)`` only
    for ``perfbench/workloads.py`` (``Experiments.diagnostics``), until the
    ROADMAP's benchmark housekeeping reads these fields by name."""

    weights: DecoderWeights
    seq: MultimodalSequence
    marked: np.ndarray
    runs: tuple[tuple[Strategy, StageSchedule, Callable], ...] = ()

    def __iter__(self):
        return iter((self.weights, self.seq, self.marked))


def prepare(spec: ExperimentSpec, strategies=()) -> Plan:
    """Resolve the plan of a command that runs ``strategies`` (a run's one
    strategy, a compare's list, or a sweep's cells): the weights, the
    sequence, the marked positions, then each strategy's ranker and
    schedule, so that a bad strategy fails before any forward runs. A file
    fixture's model takes the default marker dims."""
    fixture = spec.fixture or FixtureSpec()
    # the model first, so that it rejects marker dims outside the hidden size
    weights = build_marker_model(
        spec.model, fixture.marker_dims, margin_onset_layer=spec.margin_onset_layer
    )
    if spec.fixture_path is not None:
        seq = load_sequence(spec.fixture_path)  # the forward checks its width
        marked = np.empty(0, dtype=np.int64)
    else:
        seq, marked = make_marker_sequence(spec.model, fixture, spec.seed)
    runs = []
    for strategy in strategies:
        ranker = strategy.ranker(spec.seed)  # a cost-only strategy stops here
        runs.append((strategy, strategy.schedule(spec.model.num_layers, seq.num_image_tokens), ranker))
    return Plan(weights, seq, marked, tuple(runs))


def marker_recall(kept: np.ndarray | None, marked: np.ndarray) -> float:
    """Fraction of the distinct ``marked`` image positions among ``kept``,
    the positions kept at the last drop boundary (``None`` when nothing was
    dropped); 1.0 when nothing was dropped or nothing is marked."""
    if kept is None or marked.size == 0:
        return 1.0
    return len(set(marked.tolist()).intersection(kept.tolist())) / marked.size


# --- runs ------------------------------------------------------------------


def run_strategy(plan: Plan, strategy: Strategy, trace: ForwardTrace) -> RunReport:
    """The report of ``strategy``'s run in ``plan``, from its forward's trace."""
    cfg = plan.weights.config
    v0 = plan.seq.num_image_tokens
    digest = hashlib.sha256(
        np.ascontiguousarray(trace.hidden[-1]).tobytes()
        + np.ascontiguousarray(trace.positions).tobytes()
    ).hexdigest()
    return RunReport(
        strategy=strategy.name,
        kept_masks=trace.kept_masks,
        recall=marker_recall(trace.kept_masks[-1][1] if trace.kept_masks else None, plan.marked),
        cost=strategy_cost(strategy, cfg.num_layers, v0, cfg.hidden_size, cfg.ffn_intermediate),
        digest=digest,
    )


def run_plan(plan: Plan) -> list[RunReport]:
    """One report per run of ``plan``, in order, from one forward of all its
    runs (``forward_plans``)."""
    traces = forward_plans(plan.weights, plan.seq, [run[1:] for run in plan.runs])
    # each trace is freed before the next one's logits are built
    return [run_strategy(plan, strategy, next(traces)) for strategy, _, _ in plan.runs]


def run_single(spec: ExperimentSpec) -> RunReport:
    return run_plan(prepare(spec, [spec.strategy or PyramidDrop()]))[0]


def run_compare(spec: ExperimentSpec) -> list[RunReport]:
    if not spec.strategies:
        raise ConfigError("compare needs at least one strategy")
    return run_plan(prepare(spec, spec.strategies))


def run_layer_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """One row per (layer, ratio) cell in grid order, each the single
    FastV-style cut ``SingleEarlyDrop(layer, ratio)``, resolved by
    ``prepare`` as compare's strategies are. A cell's row depends only on
    the ranking scores at its drop layer, and the layers before that drop
    run at full width in every cell. So one keep-all forward through the
    last sweep layer runs with a boundary at each distinct sweep layer and
    records that boundary's scores; each cell's kept set is the decision
    its own forward would make on its layer's scores."""
    if not spec.sweep_layers or not spec.sweep_ratios:
        raise ConfigError("sweep needs nonempty layer and ratio grids")
    plan = prepare(spec, [SingleEarlyDrop(drop_layer=layer, keep_ratio=ratio)
                          for layer in spec.sweep_layers for ratio in spec.sweep_ratios])
    weights, seq, cfg = plan.weights, plan.seq, spec.model
    v0 = seq.num_image_tokens

    boundaries = sorted(set(spec.sweep_layers))
    # no row reads a layer past the last sweep layer, nor the logits: run
    # the first last + 1 layers, since the final stage needs one
    depth = boundaries[-1] + 1
    weights = replace(weights, config=replace(cfg, num_layers=depth), layers=weights.layers[:depth])
    layer_counts = tuple(np.diff([0, *boundaries, depth]).tolist())
    keep_all = StageSchedule(layer_counts, (v0,) * len(layer_counts))
    scores = {}  # each boundary's scores, by layer
    forward_pruned(weights, seq, keep_all,
                   observe=lambda layer, x, positions, s: scores.setdefault(layer, s))

    rows = []
    for strategy, schedule, ranker in plan.runs:
        kept = decide(scores[strategy.drop_layer], schedule, 0, ranker)
        cost = strategy_cost(strategy, cfg.num_layers, v0, cfg.hidden_size, cfg.ffn_intermediate)
        rows.append(SweepRow(
            layer=strategy.drop_layer,
            keep_ratio=strategy.keep_ratio,
            recall=marker_recall(kept, plan.marked),
            kept_count=schedule.stage_token_counts[-1],
            flops=cost.total,
        ))
    return rows


# --- output ----------------------------------------------------------------

def write_json(obj, path=None) -> None:
    """``obj`` as JSON indented by 2 with one trailing newline, to ``path``,
    or to stdout when ``path`` is None."""
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        columns = [f.name for f in fields(SweepRow)]
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(map(attrgetter(*columns), rows))
