"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10 --first-seed 1 --out perfbench/out/summary.json

For every workload in BENCHMARK.json (or those named by --workloads) it
runs ``perfbench/run.py`` once per seed, one run at a time, and records
for each end-to-end metric the median, the quartiles and their spread
(interquartile distance over the median) beside the metric's bound. With
``--trace`` it adds one traced run per workload. Every run's full result
line is kept in the output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    notes = json.loads(lines[-2])["notes"]
    return {"seed": seed, "result": json.loads(lines[-1]), "notes": notes}


def summarise(runs: list[dict], bench: dict) -> dict:
    out = {}
    for metric in bench["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": metric["bound"], "unit": metric["unit"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {"label": args.label, "workloads": {}}
    for name in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(bench, name, seed, 0) for seed in seeds]
        entry = {"summary": summarise(runs, bench), "runs": runs}
        if args.trace:
            entry["traced"] = run_once(bench, name, args.first_seed, 1)
        report["workloads"][name] = entry
        report["machine"] = runs[0]["notes"]["machine"]
        for metric, s in entry["summary"].items():
            print(f"{name:24s} {metric:14s} median {s['median']:.6g} {s['unit']:3s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
