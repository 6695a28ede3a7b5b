"""Sampled property suites: monotonicity, class inclusions, and roundtrips.

Each suite evaluates independent seeded samples one after another and
reduces results in sample-index order, so a run is a pure function of
(suite, samples, seed). Runs are serial: the samples are small numpy calls
that the GIL serializes, so a thread pool gave no speed-up.
COHERENCE_KIT_THREADS and ``threads=`` remain a cap on parallelism
(default 1), which a serial run always meets.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import channels as ch
from . import covariance as cov
from . import monotones as mo
from .numerics import birkhoff_decompose
from .states import DensityMatrix, random_density

MONOTONE_SLACK = 1e-7
ALPHA_GRID = (0.0, 0.3, 0.5, 0.7, 1.0, 1.3, 1.7, 2.0)

SUITES = ("monotonicity", "inclusions", "roundtrips")


def thread_count(requested: int | None = None) -> int:
    """The parallelism cap: ``requested``, else COHERENCE_KIT_THREADS, else 1."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("COHERENCE_KIT_THREADS")
    if env:
        return max(1, int(env))
    return 1


def _sub_seed(seed: int, index: int, salt: int = 0) -> int:
    return (seed * 1_000_003 + index * 97 + salt) % (2**31 - 1)


def _mio_measures(rho: DensityMatrix) -> dict:
    vals = {}
    for alpha in ALPHA_GRID:
        vals[f"c_alpha[{alpha:g}]"] = mo.c_alpha(rho, alpha).value
    cr = mo.c_r(rho).value
    vals["c_r"] = cr
    vals["log1p_c_r"] = math.log2(1.0 + cr)
    return vals


def _dio_measures(rho: DensityMatrix) -> dict:
    vals = {}
    for alpha in ALPHA_GRID:
        vals[f"c_delta_alpha[{alpha:g}]"] = mo.c_delta_alpha(rho, alpha, "right").value
    vals["trace_norm_coherence"] = mo.trace_norm_coherence(rho).value
    vals["c_delta_r"] = mo.c_delta_r(rho).value
    return vals


def _monotonicity_sample(index: int, seed: int, corrupt_hook) -> list:
    failures = []
    rng = np.random.default_rng(_sub_seed(seed, index))

    def check(tag, channel, rho, measure_sets):
        if corrupt_hook is not None:
            channel = corrupt_hook(channel, index)
        out = ch.apply(channel, rho)
        for measures in measure_sets:
            before = measures(rho)
            after = measures(out)
            for name, lhs in before.items():
                drop = lhs - after[name]
                if drop < -MONOTONE_SLACK:
                    failures.append(
                        {
                            "index": index,
                            "check": f"monotonicity/{tag}/{name}",
                            "magnitude": float(-drop),
                        }
                    )

    params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), 3)
    check(
        "g_covariant",
        ch.g_covariant_channel(params),
        random_density(3, _sub_seed(seed, index, 1)),
        [_mio_measures, _dio_measures],
    )
    check(
        "qubit_mio",
        ch.sample_mio_qubit_channel(_sub_seed(seed, index, 2)),
        random_density(2, _sub_seed(seed, index, 3)),
        [_mio_measures],
    )

    def sio_measures(rho):
        vals = _mio_measures(rho)
        vals.update(_dio_measures(rho))
        vals["c_l1"] = mo.c_l1(rho).value
        return vals

    check(
        "sio",
        ch.random_sio_channel(3, rng),
        random_density(3, _sub_seed(seed, index, 4)),
        [sio_measures],
    )
    return failures


def _inclusion_sample(index: int, seed: int, corrupt_hook) -> list:
    failures = []
    rng = np.random.default_rng(_sub_seed(seed, index))
    d = 3 + index % 2

    def expect(tag, channel, predicates):
        if corrupt_hook is not None:
            channel = corrupt_hook(channel, index)
        for name, predicate in predicates:
            if not predicate(channel):
                failures.append(
                    {"index": index, "check": f"inclusions/{tag}/{name}", "magnitude": 1.0}
                )

    chain = [
        ("sio_rep", ch.is_sio_rep),
        ("sio_special_rep", ch.is_sio_special_rep),
        ("io_rep", ch.is_io_rep),
        ("dio", ch.is_dio),
        ("mio", ch.is_mio),
    ]
    expect("pio", ch.random_pio_channel(d, rng), [("pio_rep", ch.is_pio_rep)] + chain)
    expect("sio", ch.random_sio_channel(d, rng), chain)
    expect(
        "sio_special",
        ch.random_sio_special_channel(d, rng),
        [
            ("sio_special_rep", ch.is_sio_special_rep),
            ("io_rep", ch.is_io_rep),
            ("mio", ch.is_mio),
        ],
    )
    expect(
        "io",
        ch.random_io_channel(d, rng),
        [("io_rep", ch.is_io_rep), ("mio", ch.is_mio)],
    )
    params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), d)
    expect(
        "g_covariant",
        ch.g_covariant_channel(params),
        [("dio", ch.is_dio), ("mio", ch.is_mio)],
    )
    expect(
        "incoherent_unitary",
        ch.incoherent_unitary_channel(ch.random_incoherent_unitary(d, rng)),
        chain,
    )
    return failures


def _roundtrip_sample(index: int, seed: int, corrupt_hook) -> list:
    del corrupt_hook  # roundtrips exercise representation algebra only
    failures = []
    rng = np.random.default_rng(_sub_seed(seed, index))
    d = 2 + index % 3

    def record(name, magnitude, tol):
        if magnitude > tol:
            failures.append(
                {"index": index, "check": f"roundtrips/{name}", "magnitude": float(magnitude)}
            )

    generic = ch.random_channel(d, d, 3, rng)
    rebuilt = ch.channel_from_choi(ch.choi(generic))
    record("choi", ch.choi_distance(generic, rebuilt), 1e-8)

    params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), d)
    fitted = ch.fit_g_covariant(ch.g_covariant_channel(params))
    if fitted is None:
        record("g_fit", 1.0, 0.0)
    else:
        record(
            "g_fit",
            max(abs(a - b) for a, b in zip(fitted.as_tuple(), params.as_tuple())),
            1e-9,
        )

    double_dual = ch.dual_map(ch.dual_map(generic))
    record("dual_involution", ch.choi_distance(generic, double_dual), 1e-9)

    parsed = ch.KrausChannel.from_json_dict(generic.to_json_dict())
    record("channel_json", ch.choi_distance(generic, parsed), 1e-12)

    mix = np.zeros((4, 4))
    for w in rng.dirichlet(np.ones(6)):
        perm = rng.permutation(4)
        p = np.zeros((4, 4))
        p[np.arange(4), perm] = 1.0
        mix += w * p
    decomp = birkhoff_decompose(mix)
    record("birkhoff", float(np.max(np.abs(decomp.matrix() - mix))), 1e-8)
    record("birkhoff_terms", len(decomp.terms), (4 - 1) ** 2 + 1)
    return failures


_SAMPLERS = {
    "monotonicity": _monotonicity_sample,
    "inclusions": _inclusion_sample,
    "roundtrips": _roundtrip_sample,
}


def run_suite(
    suite: str,
    samples: int,
    seed: int = 0,
    threads: int | None = None,
    corrupt_hook=None,
) -> dict:
    """Run one suite; returns a summary dict with per-sample failures.

    ``threads`` is validated as a cap (see ``thread_count``); samples run
    serially whatever its value.
    """
    if suite not in _SAMPLERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    sampler = _SAMPLERS[suite]
    thread_count(threads)
    results = [sampler(i, seed, corrupt_hook) for i in range(samples)]
    failures = [f for per_sample in results for f in per_sample]
    worst = max((f["magnitude"] for f in failures), default=0.0)
    return {
        "suite": suite,
        "samples": samples,
        "seed": seed,
        "failures": failures,
        "failure_count": len(failures),
        "worst_violation": worst,
        "passed": not failures,
    }
