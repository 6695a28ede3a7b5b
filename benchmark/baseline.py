"""Reference figures for benchmark/README.md: the ROADMAP baseline table, re-measured.

Usage (from the repository root; takes about a minute):

    python3 benchmark/baseline.py

Prints the machine (cores, Python, numpy, BLAS threads) and one markdown row
per figure: C_R by the cutting plane at d = 3/5/8/12, 3x3 eig_hermitian and
DensityMatrix construction, the three harness suites at 200 samples and
``monotones`` on one d = 8 mixed state, each through the in-process CLI.
Times are medians of repeated perf_counter measurements.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COHERENCE_KIT_THREADS", None)

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import coherence_kit as ck  # noqa: E402
import coherence_kit.cli  # noqa: E402,F401


def median_time(fn, repeats: int) -> float:
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fmt(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.1f} µs"


def main() -> None:
    print(
        f"cores {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}, "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    )
    rows = []
    for d, repeats in ((3, 20), (5, 10), (8, 5), (12, 3)):
        states = [ck.random_density(d, 100 + i) for i in range(repeats)]
        t = median_time(lambda i: ck.c_r(states[i], method="cutting_plane"), repeats)
        rows.append((f"`c_r` cutting plane, mixed state, d = {d} (median of {repeats})", t))

    mats = [ck.random_density(3, i).mat for i in range(2000)]
    rows.append(("`eig_hermitian` on 3×3", median_time(lambda i: ck.eig_hermitian(mats[i]), 2000)))
    stacked = np.stack(mats)
    rows.append(("numpy stacked `eigh`, per 3×3 matrix", median_time(lambda i: np.linalg.eigh(stacked), 20) / len(mats)))
    rows.append(("`DensityMatrix(...)` construction, 3×3", median_time(lambda i: ck.DensityMatrix(mats[i]), 2000)))

    for suite, repeats in (("monotonicity", 1), ("inclusions", 3), ("roundtrips", 3)):
        argv = ["harness", "--suite", suite, "--samples", "200", "--seed", "0"]
        t = median_time(lambda i: workloads.run_cli(ck, argv), repeats)
        rows.append((f"`harness --suite {suite} --samples 200` (in-process CLI)", t))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ck.random_density(8, 0).to_json_dict(), fh)
        rows.append(
            ("`monotones` on one d = 8 mixed state (in-process CLI)",
             median_time(lambda i: workloads.run_cli(ck, ["monotones", path]), 3))
        )

    print("| measured | time |\n|---|---|")
    for label, seconds in rows:
        print(f"| {label} | {fmt(seconds)} |")


if __name__ == "__main__":
    main()
