"""Benchmark of the pdrop package, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload prefill_mid576 --seed 1 --seconds 10 --trace 0

It imports ``pdrop`` from ``src/`` of the checkout it sits in and drives
only the package's public API, as one process and one caller (a closed
loop) with one BLAS thread. The run builds its inputs from ``--seed``,
sets up several times and reports the median set-up time, makes one
untimed operation to measure peak allocation and record reference
outputs, then repeats the operation for ``--seconds`` and checks every
result. Every operation is counted in ``attempted``; one that raises,
exits non-zero or fails its check is counted in ``failed``.

Times are reported at reference speed. The speed of a shared host
shifts by up to half for seconds to minutes at a time, and it moves the
same-code median from run to run by more than any useful bound. So a
fixed reference job of the workload's kind of work, which calls nothing
in ``pdrop``, runs before the first and after every timed set-up and
operation. Each measured time is multiplied by the job's ``REFERENCE_MS``
over the mean of the two reference times beside it: the time it would
take on a machine where the reference job takes ``REFERENCE_MS``. The raw
medians are printed in the notes.

With ``--trace 0`` the metrics are the end-to-end ones (see metrics.py).
With ``--trace 1`` operations alternate in pairs between untraced and
traced by a span recorder (see spans.py); the metrics are per-layer,
including the tracing overhead and the workload's untraced diagnostics,
and the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric with its unit and the machine notes. Without a
``src/pdrop`` package next to this directory the run exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: two-thread GEMMs spread far more from run to run on a
# shared two-core machine
BLAS_THREADS = "1"
# set up at least MIN_SETUPS times, and more while under SETUP_BUDGET_S
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 50, 1.0
# on cost_grid, whose peak is a few hundred KB of small Python objects, the
# peak allocation of the same operation moves by up to 5% from pass to
# pass; take the median of up to PEAK_PASSES passes made within PEAK_BUDGET_S
PEAK_PASSES, PEAK_BUDGET_S = 9, 2.0
# about each reference job's time on a 2-vCPU Xeon guest; constants, so
# that scaled times keep the magnitude of real ones
REFERENCE_MS = {"numpy": 15.0, "objects": 10.0}


@dataclasses.dataclass(frozen=True)
class _Item:
    index: int
    scale: float
    pair: tuple


class Reference:
    """A fixed reference job of the kind of work a workload does: "numpy"
    (GEMMs, a row softmax and an integer loop) for the prefill and
    experiment workloads, "objects" (small frozen dataclasses built and
    summed) for the pure-Python cost_grid. Each tracks the speed shifts of
    its workloads far better than the other job or the two together do."""

    def __init__(self, job: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((192, 192))
        self.b = rng.standard_normal((384, 384))
        self.job = {"numpy": self._numpy_job, "objects": self._objects_job}[job]
        self.reference_ms = REFERENCE_MS[job]
        self.times = []

    def _numpy_job(self) -> None:
        np = self.np
        for _ in range(16):
            self.a @ self.a
        for _ in range(8):
            z = self.b - self.b.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
        total = 0
        for k in range(40000):
            total += k * k % 7

    @staticmethod
    def _objects_job() -> None:
        acc = []
        for k in range(6000):
            item = _Item(k, k * 0.5, (k, k + 1))
            acc.append(item.index * 4096 * 4096 + int(item.scale) * 11008 + sum(item.pair))
            if len(acc) > 64:
                acc = [sum(acc)]

    def run(self) -> None:
        t0 = time.perf_counter()
        self.job()
        self.times.append(time.perf_counter() - t0)

    def scale(self, seconds: float) -> float:
        """``seconds``, measured between the last two reference runs, at
        reference speed."""
        return seconds * 2e-3 * self.reference_ms / (self.times[-2] + self.times[-1])


def machine_notes() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": os.uname().machine,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Counts operations and failures; prints the first traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args) -> bool:
        self.attempted += 1
        try:
            ok = bool(fn(*args))
        except Exception:
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            ok = False
        self.failed += not ok
        return ok


def timed_setups(cls, seed: int, workdir: str, reference: Reference):
    """Returns the last state and the median set-up time, scaled and raw."""
    raw, scaled, state = [], [], None
    reference.run()
    while len(raw) < MIN_SETUPS or (sum(raw) < SETUP_BUDGET_S and len(raw) < MAX_SETUPS):
        t0 = time.perf_counter()
        state = cls(seed, workdir)
        raw.append(time.perf_counter() - t0)
        reference.run()
        scaled.append(reference.scale(raw[-1]))
    return state, statistics.median(scaled), statistics.median(raw)


def peak_alloc_bytes(runner: Runner, op) -> int:
    """Median peak traced allocation over passes of the first operation."""
    peaks, start = [], time.perf_counter()
    while not peaks or (len(peaks) < PEAK_PASSES and time.perf_counter() - start < PEAK_BUDGET_S):
        gc.collect()  # otherwise cyclic garbage from set-up moves the peak
        tracemalloc.start()
        runner.call(op, 0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return statistics.median(peaks)


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Returns (result, per-layer diagnostics, notes)."""
    import pdrop
    from metrics import end_to_end_metrics, per_layer_metrics
    from spans import SpanRecorder, write_jsonl
    from workloads import WORKLOADS

    runner = Runner()
    reference = Reference(WORKLOADS[name].reference_job)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        state, setup_s, raw_setup_s = timed_setups(WORKLOADS[name], seed, workdir, reference)
        peak_bytes = peak_alloc_bytes(runner, state.op)

        recorder = SpanRecorder(pdrop)
        times = {False: [], True: []}  # scaled to reference speed
        raw_ms = []
        reference.run()
        i, start = 1, time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # a traced run needs at least one traced and one untraced operation
            if elapsed >= seconds and (not trace or all(times.values()) or elapsed >= 3 * seconds):
                break
            traced = trace and (i // 2) % 2 == 1
            t0 = time.perf_counter()
            if traced:
                with recorder:
                    ok = runner.call(state.op, i)
            else:
                ok = runner.call(state.op, i)
            seconds_taken = time.perf_counter() - t0
            reference.run()
            if ok:
                times[traced].append(reference.scale(seconds_taken))
                if not traced:
                    raw_ms.append(1e3 * seconds_taken)
            i += 1

        notes = {
            "machine": machine_notes(),
            "workload": name,
            "seed": seed,
            "fixture_seeds": getattr(state, "seeds", [seed]),
            "ops_timed": {"untraced": len(times[False]), "traced": len(times[True])},
        }
        diagnostics = {}
        if trace:

            def diagnose():
                diagnostics.update(state.diagnostics())
                return True

            runner.call(diagnose)
            overhead = 0.0
            if all(times.values()):
                overhead = 100.0 * (statistics.median(times[True]) / statistics.median(times[False]) - 1.0)
            metrics = per_layer_metrics(recorder.spans, len(times[True]), diagnostics, overhead)
            spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
            write_jsonl(recorder.spans, spans_path)
            notes["spans"] = {"count": len(recorder.spans), "path": os.path.relpath(spans_path, ROOT)}
        else:
            metrics = end_to_end_metrics(setup_s, times[False], peak_bytes)
            raw_ms = raw_ms or [0.0]
            q1, median, q3 = statistics.quantiles(raw_ms, n=4) if len(raw_ms) > 1 else raw_ms * 3
            notes["raw"] = {"setup_s": raw_setup_s, "op_ms": {"q1": q1, "median": median, "q3": q3}}
            notes["reference_ms"] = 1e3 * statistics.median(reference.times)
        recalls = getattr(state, "recalls", None)
        if recalls:
            notes["recall_pdrop"] = min(recalls)
    notes["error_rate"] = runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, diagnostics, notes


def print_report(result: dict, diagnostics: dict, notes: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':48s} {notes['error_rate']:.6g} ratio")
    if "recall_pdrop" in notes:
        print(f"{'recall_pdrop':48s} {notes['recall_pdrop']:.6g} ratio")
    if diagnostics.get("stages"):
        print("stage  layers  tokens  layer_ms   layer_flops")
        for s, st in enumerate(diagnostics["stages"]):
            print(f"{s:5d}  {st['layers']:6d}  {st['tokens']:6d}  {st['layer_ms']:8.3f}  {st['layer_flops']:12d}")
    print(json.dumps({"notes": notes}))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pdrop", "__init__.py")):
        print(f"error: no pdrop package under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print_report(*run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
