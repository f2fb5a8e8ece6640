"""Command-line interface.

Subcommands: cost, schedule, run, sweep, compare. JSON goes to stdout
unless --out is given. Exit codes: 0 success, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .costmodel import strategy_cost
from .errors import ConfigError, PdropError, quoted
from .harness import (
    STRATEGIES,
    load_spec,
    run_compare,
    run_layer_sweep,
    run_single,
    strategy_from_json,
    write_json,
    write_sweep_csv,
)
from .pruner import build_schedule

EXIT_CONFIG = 2
EXIT_IO = 3


def _parse_list(text: str, kind: type, what: str) -> list:
    """A comma list of ``kind`` values, e.g. layers '2,8,16' or ratios '0.1,0.5'."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {quoted(text)}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdrop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="FLOPs report for a strategy or staged schedule")
    cost.add_argument("--n", type=int, required=True, help="initial image-token count")
    cost.add_argument("--layers", type=int, required=True)
    cost.add_argument("--d", type=int, required=True, help="hidden size")
    cost.add_argument("--m", type=int, required=True, help="FFN intermediate size")
    cost.add_argument("--lambda", dest="keep_ratio", type=float,
                      help="keep ratio; without --strategy, selects pdrop")
    cost.add_argument("--stages", type=int, help="pdrop and random stage count")
    cost.add_argument("--strategy", help="vanilla | pdrop | fastv | uniform | random")
    cost.add_argument("--drop-layer", type=int, help="fastv drop layer")
    cost.add_argument("--tokens", dest="token_count", type=int, help="uniform token count")

    sched = sub.add_parser("schedule", help="stage schedule as JSON")
    sched.add_argument("--layers", type=int, required=True)
    sched.add_argument("--stages", type=int, required=True)
    sched.add_argument("--lambda", dest="keep_ratio", type=float, required=True)
    sched.add_argument("--tokens", type=int, required=True)

    run = sub.add_parser("run", help="run one strategy, print RunReport JSON")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)

    sweep = sub.add_parser("sweep", help="single-drop layer/ratio sweep to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--layers", default=None, help="comma list, e.g. 2,8,16,24")
    sweep.add_argument("--ratios", default=None, help="comma list, e.g. 0.1,0.5,0.9")
    sweep.add_argument("--out", required=True)

    compare = sub.add_parser("compare", help="run several strategies on one fixture")
    compare.add_argument("--config", required=True)
    compare.add_argument("--strategies", default=None,
                         help="comma list: vanilla,pdrop,fastv,random")
    compare.add_argument("--out", default=None)
    return parser


# built once per process: building it takes about 1.6 ms (each add_argument
# reads the terminal size), a measurable share of a short in-process main()
_PARSER = _build_parser()


# each strategy field that a cost flag sets (its dest), and the flag as typed
_COST_FLAGS = {"stages": "--stages", "keep_ratio": "--lambda",
               "drop_layer": "--drop-layer", "token_count": "--tokens"}


def _cmd_cost(args) -> dict:
    # only the flags given reach the strategy: an unset one takes the
    # strategy's default, and one the strategy lacks is an error that names it
    default = "vanilla" if args.keep_ratio is None else "pdrop"
    name = default if args.strategy is None else args.strategy
    given = {k: getattr(args, k) for k in _COST_FLAGS if getattr(args, k) is not None}
    if name in STRATEGIES:
        owned = {f.name for f in fields(STRATEGIES[name])}
        lacking = [_COST_FLAGS[k] for k in given if k not in owned]
        if lacking:
            raise ConfigError(f"strategy {name!r} takes no {', '.join(lacking)}")
    strat = strategy_from_json({"name": name, **given})
    return strategy_cost(strat, args.layers, args.n, args.d, args.m).to_json()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "cost":
            write_json(_cmd_cost(args))
        elif args.command == "schedule":
            schedule = build_schedule(args.layers, args.stages, args.keep_ratio, args.tokens)
            write_json({
                "boundaries": list(schedule.boundary_layers),
                "stage_layers": list(schedule.stage_layer_counts),
                "stage_tokens": list(schedule.stage_token_counts),
                "lambda": args.keep_ratio,
                "stages": args.stages,
            })
        elif args.command == "run":
            spec = load_spec(args.config)
            if args.seed is not None:
                spec.seed = args.seed
            write_json(run_single(spec).to_json())
        elif args.command == "sweep":
            spec = load_spec(args.config)
            if args.layers is not None:
                spec.sweep_layers = _parse_list(args.layers, int, "layer")
            if args.ratios is not None:
                spec.sweep_ratios = _parse_list(args.ratios, float, "ratio")
            write_sweep_csv(run_layer_sweep(spec), args.out)
        elif args.command == "compare":
            spec = load_spec(args.config)
            if args.strategies is not None:
                spec.strategies = [strategy_from_json(s) for s in args.strategies.split(",")]
            write_json([r.to_json() for r in run_compare(spec)], args.out)
    except PdropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # the file name may come from a config, so it is quoted cut
        where = "" if exc.filename is None else f": {quoted(exc.filename)}"
        print(f"i/o error: {exc.strerror or exc}{where}", file=sys.stderr)
        return EXIT_IO
    return 0
