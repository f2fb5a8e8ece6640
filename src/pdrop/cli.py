"""Command-line interface.

Subcommands: cost, schedule, run, sweep, compare. JSON goes to stdout
unless --out is given. Exit codes: 0 success, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .costmodel import schedule_cost, strategy_cost
from .errors import ConfigError, PdropError
from .harness import (
    emit_masks,
    load_spec,
    run_compare,
    run_layer_sweep,
    run_single,
    strategy_from_json,
    write_sweep_csv,
)
from .pruner import build_schedule

EXIT_CONFIG = 2
EXIT_IO = 3
# a ratio range may span at most this many steps; a tiny step would
# otherwise build an unbounded list before any forward runs
MAX_RANGE_STEPS = 1000


def _parse_layers(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad layer list {text!r}") from exc


def _parse_ratios(text: str) -> list[float]:
    """Either a comma list '0.1,0.5,1.0' or an inclusive range 'a:b:step'."""
    try:
        if ":" not in text:
            return [float(x) for x in text.split(",")]
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad ratio list {text!r}") from exc
    if step <= 0 or not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"ratio range {text!r} needs finite bounds and a positive step")
    if (stop - start) / step > MAX_RANGE_STEPS:
        raise ConfigError(f"ratio range {text!r} has more than {MAX_RANGE_STEPS} steps")
    out = []
    v = start
    while v <= stop + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdrop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="FLOPs report for a strategy or staged schedule")
    cost.add_argument("--n", type=int, required=True, help="initial image-token count")
    cost.add_argument("--layers", type=int, required=True)
    cost.add_argument("--d", type=int, required=True, help="hidden size")
    cost.add_argument("--m", type=int, required=True, help="FFN intermediate size")
    cost.add_argument("--lambda", "--keep-ratio", dest="keep_ratio", type=float, default=None,
                      help="keep ratio; alone, costs the --stages schedule")
    cost.add_argument("--stages", type=int, default=4)
    cost.add_argument("--strategy", default=None,
                      help="vanilla | pdrop | fastv | uniform | random")
    cost.add_argument("--drop-layer", type=int, default=2, help="fastv drop layer")
    cost.add_argument("--tokens", type=int, default=288, help="uniform token count")

    sched = sub.add_parser("schedule", help="stage schedule as JSON")
    sched.add_argument("--layers", type=int, required=True)
    sched.add_argument("--stages", type=int, required=True)
    sched.add_argument("--lambda", dest="keep_ratio", type=float, required=True)
    sched.add_argument("--tokens", type=int, required=True)

    run = sub.add_parser("run", help="run one strategy, print RunReport JSON")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--emit-masks", default=None)

    sweep = sub.add_parser("sweep", help="single-drop layer/ratio sweep to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--layers", default=None, help="comma list, e.g. 2,8,16,24")
    sweep.add_argument("--ratios", default=None, help="comma list or start:stop:step")
    sweep.add_argument("--out", required=True)

    compare = sub.add_parser("compare", help="run several strategies on one fixture")
    compare.add_argument("--config", required=True)
    compare.add_argument("--strategies", default=None,
                         help="comma list: vanilla,pdrop,fastv,random")
    compare.add_argument("--out", default=None)
    return parser


def _cmd_cost(args) -> dict:
    if args.strategy is None and args.keep_ratio is not None:
        schedule = build_schedule(args.layers, args.stages, args.keep_ratio, args.n)
        return schedule_cost(schedule, args.d, args.m).to_json()
    fields = {
        "name": "vanilla" if args.strategy is None else args.strategy,
        "stages": args.stages,
        "keep_ratio": args.keep_ratio,
        "drop_layer": args.drop_layer,
        "token_count": args.tokens,
    }
    strat = strategy_from_json({k: v for k, v in fields.items() if v is not None})
    return strategy_cost(strat, args.layers, args.n, args.d, args.m).to_json()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "cost":
            json.dump(_cmd_cost(args), sys.stdout, indent=2)
            print()
        elif args.command == "schedule":
            schedule = build_schedule(args.layers, args.stages, args.keep_ratio, args.tokens)
            json.dump({
                "boundaries": list(schedule.boundary_layers),
                "stage_layers": list(schedule.stage_layer_counts),
                "stage_tokens": list(schedule.stage_token_counts),
                "lambda": args.keep_ratio,
                "stages": args.stages,
            }, sys.stdout, indent=2)
            print()
        elif args.command == "run":
            spec = load_spec(args.config)
            if args.seed is not None:
                spec.seed = args.seed
            report = run_single(spec)
            if args.emit_masks:
                emit_masks(report, args.emit_masks)
            json.dump(report.to_json(), sys.stdout, indent=2)
            print()
        elif args.command == "sweep":
            spec = load_spec(args.config)
            if args.layers:
                spec.sweep_layers = _parse_layers(args.layers)
            if args.ratios:
                spec.sweep_ratios = _parse_ratios(args.ratios)
            write_sweep_csv(run_layer_sweep(spec), args.out)
        elif args.command == "compare":
            spec = load_spec(args.config)
            if args.strategies:
                spec.strategies = [strategy_from_json(s) for s in args.strategies.split(",")]
            reports = [r.to_json() for r in run_compare(spec)]
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(reports, fh, indent=2)
                    fh.write("\n")
            else:
                json.dump(reports, sys.stdout, indent=2)
                print()
    except PdropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
