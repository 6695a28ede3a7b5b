"""Benchmark of coherence-kit: one workload per run, end to end or traced.

Usage (from the repository root):

    python3 benchmark/run.py --workload harness-mono --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven in-process.
Set-up (interpreter start and imports, input generation, a warm-up pass) is
timed apart from the calls. The run then does whole rounds of calls until
the calls have taken ``--seconds``, checks every answer against references
computed without the program, and prints one JSON object as its last line
of output. ``--trace 1`` wraps the program's public functions and reports
per-layer counts and self times over a fixed number of rounds instead.
"""

from __future__ import annotations

import os

# One BLAS thread: on the two-core reference machine, threaded OpenBLAS made
# small products and d = 64 eigendecompositions erratic (see README). This
# must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COHERENCE_KIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
STARTUP_PROBE = "import coherence_kit, coherence_kit.cli"


def set_up(workload) -> tuple:
    """Set up SETUP_REPEATS times; return (set-up time as measured, scaled).

    set-up time = median (interpreter start-up + imports, in a fresh process)
    + median (input generation + warm-up pass, in this process). Each part is
    scaled by the calibration kernel timed just before it, as calls are.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    raw = {"startup": [], "in_process": []}
    scaled = {"startup": [], "in_process": []}

    def timed(part, fn):
        scale = workloads.REFERENCE_CALIBRATION_S / workloads.calibration_s()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        raw[part].append(elapsed)
        scaled[part].append(elapsed * scale)

    def in_process():
        workload.generate()
        workload.warm_up()

    for _ in range(SETUP_REPEATS):
        timed("startup", lambda: subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], env=env, check=True, timeout=60
        ))
        timed("in_process", in_process)
    return (
        sum(statistics.median(v) for v in raw.values()),
        sum(statistics.median(v) for v in scaled.values()),
    )


def measure(workload, seconds: float) -> workloads.Tally:
    """Whole rounds until the calls have taken ``seconds`` in total."""
    tally = workloads.Tally()
    while tally.busy_s < seconds:
        tally.run_round(workload.round(tally.rounds))
    return tally


def traced(workload, seconds: float, ck):
    """Fixed number of rounds with the public functions wrapped."""
    tracer = tracing.Tracer()
    tracer.install(ck)
    tally = workloads.Tally()
    for _ in range(max(1, round(seconds / workload.nominal_round_s))):
        tally.run_round(workload.round(tally.rounds))
    return tally, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coherence_kit", "__init__.py")):
        print(f"coherence_kit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import coherence_kit as ck
    import coherence_kit.cli  # noqa: F401 - makes ck.cli available

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ck, args.seed, workdir)
        setup_raw_s, setup_s = set_up(workload)
        start = time.perf_counter()
        if args.trace:
            tally, tracer = traced(workload, args.seconds, ck)
        else:
            tally = measure(workload, args.seconds)
        wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = tally.attempted - tally.failed
    summary = (
        f"{args.workload} seed {args.seed}{' traced' if args.trace else ''}: {tally.rounds} "
        f"rounds, {tally.attempted} calls, {tally.failed} failed, {len(tally.problems)} "
        f"problems; {done / sum(tally.scaled):.3f} calls/s scaled; as measured: calls took "
        f"{tally.busy_s:.2f} s of {wall_s:.2f} s ({done / tally.busy_s:.3f} calls/s, "
        f"p50 {1e3 * statistics.median(tally.latencies):.3f} ms), set-up {setup_raw_s:.3f} s"
    )
    print(summary, file=sys.stderr)
    for problem in tally.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracing.metric_unit(name)}
            for name, value in tracer.metrics().items()
        }
    else:
        metrics = {
            "items_per_s": {"value": done / sum(tally.scaled), "unit": "1/s"},
            "call_p50_ms": {"value": 1e3 * statistics.median(tally.scaled), "unit": "ms"},
            "call_tail_ms": {
                "value": 1e3 * statistics.quantiles(tally.scaled, n=100, method="inclusive")[
                    workload.tail_percentile - 1
                ],
                "unit": "ms",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, summary=summary, problems=tally.problems), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
