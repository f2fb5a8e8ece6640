"""Command-line interface.

Subcommands: cost, schedule, run, sweep, compare. JSON goes to stdout
unless --out is given. Exit codes: 0 success, 2 config error, 3 I/O error.
The config's reader (``harness.typed``) reads every number a flag gives,
and its error names the flag as typed. Every error, a bad command line
too, is one ``error:`` or ``i/o error:`` line, cut by ``errors.one_line``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .costmodel import strategy_cost
from .errors import ConfigError, PdropError, one_line
from .harness import (
    STRATEGIES,
    load_spec,
    run_compare,
    run_layer_sweep,
    run_single,
    strategy_from_json,
    typed,
    write_json,
    write_sweep_csv,
)
from .pruner import build_schedule

EXIT_CONFIG = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with a ConfigError, for main's one error line."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdrop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="FLOPs report for a strategy or staged schedule")
    cost.add_argument("--n", required=True, help="initial image-token count")
    cost.add_argument("--layers", required=True)
    cost.add_argument("--d", required=True, help="hidden size")
    cost.add_argument("--m", required=True, help="FFN intermediate size")
    cost.add_argument("--lambda", dest="keep_ratio",
                      help="keep ratio; without --strategy, selects pdrop")
    cost.add_argument("--stages", help="pdrop and random stage count")
    cost.add_argument("--strategy", help="vanilla | pdrop | fastv | uniform | random")
    cost.add_argument("--drop-layer", help="fastv drop layer")
    cost.add_argument("--tokens", dest="token_count", help="uniform token count")

    sched = sub.add_parser("schedule", help="stage schedule as JSON")
    sched.add_argument("--layers", required=True)
    sched.add_argument("--stages", required=True)
    sched.add_argument("--lambda", dest="keep_ratio", required=True)
    sched.add_argument("--tokens", required=True)

    run = sub.add_parser("run", help="run one strategy, print RunReport JSON")
    run.add_argument("--config", required=True)
    run.add_argument("--seed")

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
    n, layers, d, m = (typed("int", getattr(args, k), f"--{k}") for k in ("n", "layers", "d", "m"))
    # only the flags given reach the strategy: an unset one takes the
    # strategy's default, and one the strategy lacks is an error that names it
    default = "vanilla" if args.keep_ratio is None else "pdrop"
    name = default if args.strategy is None else args.strategy
    given = {k: getattr(args, k) for k in _COST_FLAGS if getattr(args, k) is not None}
    if name in STRATEGIES:
        kinds = {f.name: f.type for f in fields(STRATEGIES[name])}
        lacking = [_COST_FLAGS[k] for k in given if k not in kinds]
        if lacking:
            raise ConfigError(f"strategy {name!r} takes no {', '.join(lacking)}")
        given = {k: typed(kinds[k], v, _COST_FLAGS[k]) for k, v in given.items()}
    strat = strategy_from_json({"name": name, **given})
    return strategy_cost(strat, layers, n, d, m).to_json()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "cost":
            write_json(_cmd_cost(args))
        elif args.command == "schedule":
            layers, stages, tokens = (typed("int", getattr(args, k), f"--{k}")
                                      for k in ("layers", "stages", "tokens"))
            keep_ratio = typed("float", args.keep_ratio, "--lambda")
            schedule = build_schedule(layers, stages, keep_ratio, tokens)
            write_json({
                "boundaries": list(schedule.boundary_layers),
                "stage_layers": list(schedule.stage_layer_counts),
                "stage_tokens": list(schedule.stage_token_counts),
                "lambda": keep_ratio,
                "stages": stages,
            })
        elif args.command == "run":
            seed = None if args.seed is None else typed("int", args.seed, "--seed")
            spec = load_spec(args.config)
            spec.seed = spec.seed if seed is None else seed
            write_json(run_single(spec).to_json())
        elif args.command == "sweep":
            spec = load_spec(args.config)
            if args.layers is not None:
                spec.sweep_layers = [typed("int", x, "--layers") for x in args.layers.split(",")]
            if args.ratios is not None:
                spec.sweep_ratios = [typed("float", x, "--ratios") for x in args.ratios.split(",")]
            write_sweep_csv(run_layer_sweep(spec), args.out)
        elif args.command == "compare":
            spec = load_spec(args.config)
            if args.strategies is not None:
                spec.strategies = [strategy_from_json(s) for s in args.strategies.split(",")]
            write_json([r.to_json() for r in run_compare(spec)], args.out)
    except PdropError as exc:
        print(f"error: {one_line(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename!r}"
        print(f"i/o error: {one_line(f'{exc.strerror or exc}{where}')}", file=sys.stderr)
        return EXIT_IO
    return 0
