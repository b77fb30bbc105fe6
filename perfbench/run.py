"""E-CIT benchmark: single ecit queries and PC discovery, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ecit_kcit --seed 1 --seconds 30 --trace 0

One fresh process per run, one caller in a closed loop, BLAS pinned to one
thread before numpy is imported, at most two cores.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
interleaves untraced and traced rounds and reports the per-module metrics of
the traced rounds plus the tracing overhead.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MAX_CORES = 2
WORKLOADS = ("ecit_kcit", "ecit_rcit", "pc_kcit")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup():
    """import citkit plus the first combine_stable call, which builds the
    stable-law table for alpha = 1.75: the fixed cost of every cold process."""
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import citkit
    t_first = time.perf_counter()
    citkit.combine_stable([0.25, 0.5, 0.75], citkit.StableParams(1.75, 0.0, 1.0, 0.0))
    t_ready = time.perf_counter()
    if not Path(citkit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"citkit was imported from {citkit.__file__}, not from {SRC}")
    return citkit, {"setup_s": t_ready - _T0, "import.citkit_s": t_first - t_import,
                    "stable.first_call_s": t_ready - t_first}


class _EcitCounter:
    """Counts completed ``citkit.ensemble.ecit`` calls: the batch queries of
    the ecit workloads, the CI queries of a PC run."""

    def __init__(self, ensemble):
        self.calls = 0
        self._ensemble, self._ecit = ensemble, ensemble.ecit

        def counted(*args, **kwargs):
            out = self._ecit(*args, **kwargs)
            self.calls += 1
            return out
        ensemble.ecit = counted

    def close(self):
        self._ensemble.ecit = self._ecit


def _measure(workload, seconds, tracer, counter):
    """Whole rounds until the next one would overrun ``seconds``.

    Returns {traced: [(round seconds, ecit calls), ...]}, the rounds' outputs,
    and the attempted and failed operation counts.  With a tracer, rounds go
    untraced, traced, traced, untraced, and so on, so that a steady drift in
    machine speed cancels out of the overhead; at least one of each runs.
    """
    times = {False: [], True: []}
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 4 in (1, 2)
        scope = tracer.active() if traced else contextlib.nullcontext()
        calls = counter.calls
        with scope:
            t = time.perf_counter()
            outputs, fails = workload.run_round()
            dt = time.perf_counter() - t
        times[traced].append((dt, counter.calls - calls))
        rounds.append(outputs)
        attempted += workload.ops_per_round
        failed += fails
        enough = times[False] and (tracer is None or times[True])
        if enough and time.perf_counter() - start + dt > seconds:
            return times, rounds, attempted, failed


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "citkit" / "__init__.py").is_file():
        print(f"perfbench: no citkit sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:MAX_CORES])
    citkit, setup = _setup()

    # imported after set-up, so that set-up times citkit's own imports
    import tracing
    import workloads
    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT)
    tracer = tracing.Tracer() if args.trace else None
    counter = _EcitCounter(citkit.ensemble)
    try:
        times, rounds, attempted, failed = _measure(workload, args.seconds, tracer, counter)
    finally:
        counter.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check(rounds)
    plain = [dt for dt, _ in times[False]]

    if tracer is None:
        metrics = {
            "setup_s": ("s", setup["setup_s"]),
            "peak_rss_mb": ("MB", peak_rss_mb),
            "ecit_per_s": ("queries/s", statistics.median(n / dt for dt, n in times[False])),
            "pc_run_s": ("s", statistics.median(plain)),
        }
    else:
        traced = [dt for dt, _ in times[True]]
        overhead = statistics.median(traced) - statistics.median(plain)
        values = tracer.metrics(len(traced))
        values.update({
            "import.citkit_s": setup["import.citkit_s"],
            "stable.first_call_s": setup["stable.first_call_s"],
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / statistics.median(plain),
        })
        metrics = {name: (unit, values[name]) for name, unit in tracing.per_layer_metric_names()}
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "absent_layers": tracer.absent,
            "untraced_round_s": plain, "traced_round_s": traced,
            "spans": tracer.spans}) + "\n", encoding="utf-8")
        for layer in tracer.absent:
            print(f"absent layer: {layer}", file=sys.stderr)

    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for name, (unit, value) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (unit, value) in metrics.items()}}
    line = json.dumps(result)
    rounds_s = {"untraced": times[False], "traced": times[True]}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "problems": problems, "rounds_s_ecit_calls": rounds_s}) + "\n",
        encoding="utf-8")
    print(line)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
