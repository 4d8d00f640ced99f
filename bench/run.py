"""Benchmark for the bss-uwpd separation toolkit.

Run from the repository root:

    python3 bench/run.py --workload speech_4s --seed 1 --seconds 20 --trace 0

With --trace 0 it times an untraced pass and prints the end-to-end
metrics; with --trace 1 it also runs a traced pass and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A fuller record
(sample counts, quartiles, environment, problems found) goes to
bench/out/. See bench/README.md for the workloads and metrics.
"""

import os
import sys
import time

START = time.perf_counter()

# Pin BLAS to one thread before numpy loads: with default threading the
# scoring calls swing by more than an order of magnitude on a 2-CPU host.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics, top_level_call_seconds  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Input making is repeated this many times per run; setup_s takes the median.
SETUP_REPEATS = 3


def _import_program():
    """Import bss_uwpd from this checkout's src/; returns the seconds from
    the start of this script until the program was imported."""
    package = SRC / "bss_uwpd" / "__init__.py"
    if not package.is_file():
        print(f"error: program source not found at {package.relative_to(ROOT)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bss_uwpd

    if Path(bss_uwpd.__file__).resolve() != package.resolve():
        print(f"error: imported bss_uwpd from {bss_uwpd.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return time.perf_counter() - START


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workload_names), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """Counts operations and problems across the passes of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, op, index):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            result = op(index)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return result

    def timed_pass(self, seconds):
        """Untraced whole rounds until `seconds` of wall time have passed.
        Returns the outcome of every operation that completed."""
        outcomes = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for index in range(len(self.workload.round)):
                outcome = self.attempt(self.workload.op, index)
                if outcome is not None:
                    outcomes.append(outcome)
                    self.problems += outcome.problems
        return outcomes

    def traced_pass(self, seconds, tracer):
        """Traced whole rounds until `seconds` of wall time have passed.
        Returns the number of operations that completed."""
        completed = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for index in range(len(self.workload.round)):
                tracer.op = self.attempted
                problems = self.attempt(lambda i: self.workload.traced_op(i, tracer), index)
                if problems is not None:
                    completed += 1
                    self.problems += problems
        return completed


def p90(values):
    """90th percentile, interpolated between the two nearest samples.

    Timings report this rather than the median: on a shared host whose
    speed changes in phases, the median jumps between the fast and the
    slow level as the share of fast phases in a run changes (see
    bench/README.md), while the 90th percentile stays on the slow level.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _summary(values):
    """Sample count, median, quartiles and 90th percentile of timings."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "p90": p90(values),
    }


def end_to_end(outcomes, n_samples, setup_s, peak_mib, methods):
    """The end-to-end metrics, plus a summary of every timing for the run
    record."""
    samples = {m: [o.times[m] * 1e3 for o in outcomes] for m in methods}
    samples["evaluate"] = [t * 1e3 for o in outcomes for t in o.times["evaluate"]]
    values = {"setup_s": (setup_s, "s")}
    for name, timed in samples.items():
        values[f"{name}_ms"] = (p90(timed), "ms")
    calls_s = sum(o.calls_s for o in outcomes)
    values["samples_per_s"] = (n_samples * len(outcomes) / calls_s, "samples/s")
    values["peak_mib"] = (peak_mib, "MiB")
    return values, {f"{k}_ms": _summary(v) for k, v in samples.items()}


PER_LAYER_UNITS = {
    "filterbank.nodes": "count",
    "filterbank.node_mib": "MiB",
    "filterbank.peak_mib": "MiB",
    "stats.nodes_scored": "count",
    "separators.fastica_iters": "count",
    "separators.sobi_sweeps": "count",
    "audio_io.bytes_read": "B",
    "audio_io.bytes_written": "B",
    "trace.overhead_pct": "%",
}


def per_layer(tracer, workload, untraced, fb_peak_mib):
    values = layer_metrics(tracer.spans)
    values["filterbank.node_mib"] = values["filterbank.nodes"] * workload.n * 8 * 2 / 2**20
    values["filterbank.peak_mib"] = fb_peak_mib
    traced_ms = p90(top_level_call_seconds(tracer.spans).values()) * 1e3
    untraced_ms = p90(o.calls_s for o in untraced) * 1e3
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    return {name: (v, PER_LAYER_UNITS.get(name, "ms")) for name, v in values.items()}


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None):
    import_s = _import_program()
    from workloads import METHODS, WORKLOADS

    args = _parse_args(argv, WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](work_dir)
    run = Run(workload)
    try:
        inputs_runs = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            start = time.perf_counter()
            workload.make_inputs(args.seed)
            inputs_runs.append(time.perf_counter() - start)
        # the warm-up is set-up, not a measured operation: a fault in it
        # shows again, and is counted, in the timed pass
        start = time.perf_counter()
        try:
            warm_up = workload.op(0)
        except Exception:
            traceback.print_exc()
            warm_up_s = time.perf_counter() - start
        else:
            warm_up_s = warm_up.calls_s
            run.problems += warm_up.problems
        setup_s = import_s + statistics.median(inputs_runs) + warm_up_s

        untraced = run.timed_pass(args.seconds)
        if not untraced:
            # nothing completed, so there is nothing to time or check: report
            # the counts without metrics
            run.problems.append("no operation completed")
            values, extra = {}, {}
        elif args.trace == 0:
            values, summaries = end_to_end(
                untraced, workload.n, setup_s, workload.peak_mib(), METHODS
            )
            extra = {
                "timings": summaries,
                "import_s": import_s,
                "inputs_runs_s": inputs_runs,
                "warm_up_s": warm_up_s,
                "op_times_s": [o.times for o in untraced],
            }
        else:
            tracer = Tracer()
            if not run.traced_pass(args.seconds, tracer):
                run.problems.append("no traced operation completed")
                values = {}
            else:
                values = per_layer(tracer, workload, untraced, workload.filterbank_peak_mib())
            extra = {"spans": len(tracer.spans)}
            (OUT_DIR / f"trace-{tag}.json").write_text(json.dumps(tracer.spans))
        if untraced:
            run.problems += workload.verify()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "problems": run.problems,
        **extra,
        **result,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
