"""Sampled property suites: monotonicity, class inclusions, and roundtrips.

The class suites list each sampled channel family once, with its smallest
class: the inclusions suite tests every class ``channels.class_chain`` gives
for it, and the monotonicity suite every monotone of those classes.

The monotonicity suite takes each step once for the whole run: it samples
every channel and input matrix, validates the inputs, applies the channels,
validates the outputs, and measures every state. Each validation is one
stack per dimension (``states._density_stack``: one ``eig_hermitian`` call
per stack, each state with the bits ``DensityMatrix`` gives it alone); the
qubit MIO channel's Choi matrix is factorized with full checks once, and its
Kraus operators are read off that factorization. C_R solves each dimension's
states as one batch of the rank-one dual kernel and those it refuses one at
a time on the barrier kernel (``monotones.c_r_many``), and each spectral
monotone is one stacked call per dimension over the states that need it (the
``monotones.*_values`` kernels); the other suites evaluate one sample after
another.
Every suite reduces its results in sample-index order (then family, then
check), and the samples draw from independent seeds, so a run is a pure
function of (suite, samples, seed). Runs are serial: the samples are small
numpy calls that the GIL serializes, so a thread pool gave no speed-up.
"""

from __future__ import annotations

import math

import numpy as np

from . import channels as ch
from . import monotones as mo
from .states import _density_stack, _ginibre, _per_dimension

MONOTONE_SLACK = 1e-7
ALPHA_GRID = (0.0, 0.3, 0.5, 0.7, 1.0, 1.3, 1.7, 2.0)

SUITES = ("monotonicity", "inclusions", "roundtrips")


def _sub_seed(seed: int, index: int, salt: int = 0) -> int:
    return (seed * 1_000_003 + index * 97 + salt) % (2**31 - 1)


_C_ALPHA = tuple(f"c_alpha[{a:g}]" for a in ALPHA_GRID)
_C_DELTA_ALPHA = tuple(f"c_delta_alpha[{a:g}]" for a in ALPHA_GRID)


def _dio_measures(states):
    """(c_alpha grid, c_delta_alpha grid, trace-norm coherence, c_delta_r) of
    each of states of one dimension, the grids from one product."""
    c_alphas, c_deltas = mo.renyi_grid_values(states, ALPHA_GRID)
    trace_norms = mo.trace_norm_coherence_values(states)
    return zip(c_alphas, c_deltas, trace_norms, mo.c_delta_r_values(states)[0])


def _measure_states(cases) -> list:
    """The monotones of each (class, state) case, for its class and every
    class containing it: MIO's (every class is an MIO class), then DIO's,
    then IO's. Each measure is one stacked call per dimension over the states
    that need it, and a state in a DIO class reads all of DIO's from one
    call (``_dio_measures``); C_R is one ``c_r_many`` call over all the
    states, which solves each dimension's states as one rank-one batch."""
    states = [rho for _, rho in cases]
    chains = [ch.class_chain(klass) for klass, _ in cases]
    dio = [k for k, chain in enumerate(chains) if "dio" in chain]
    others = [k for k, chain in enumerate(chains) if "dio" not in chain]
    io = [k for k, chain in enumerate(chains) if "io_rep" in chain]
    rows = _per_dimension(lambda s: zip(mo.c_alpha_values(s, ALPHA_GRID)), states, others)
    rows.update(_per_dimension(_dio_measures, states, dio))
    c_l1s = _per_dimension(mo.c_l1_values, states, io)
    measured = []
    for k, c_r in enumerate(mo.c_r_many(states)):
        c_alphas, *dio_values = rows[k]
        vals = dict(zip(_C_ALPHA, c_alphas))
        vals["c_r"] = c_r.value
        vals["log1p_c_r"] = math.log2(1.0 + c_r.value)
        if dio_values:
            c_deltas, trace_norm, c_delta_r = dio_values
            vals.update(zip(_C_DELTA_ALPHA, c_deltas))
            vals["trace_norm_coherence"] = trace_norm
            vals["c_delta_r"] = c_delta_r
        if k in c_l1s:
            vals["c_l1"] = c_l1s[k]
        measured.append(vals)
    return measured


def _monotonicity_families(index: int, seed: int, corrupt_hook) -> list:
    """(tag, smallest class, channel, input matrix) for each family sampled at
    index, with the corrupt hook applied to its channel. The input is the
    unvalidated matrix of a ``random_density`` state."""
    rng = np.random.default_rng(_sub_seed(seed, index))
    params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), 3)
    families = (
        ("g_covariant", "dio", ch.g_covariant_channel(params), 3, 1),
        ("qubit_mio", "mio", ch.sample_mio_qubit_channel(_sub_seed(seed, index, 2)), 2, 3),
        ("sio", "sio_rep", ch.random_sio_channel(3, rng), 3, 4),
    )
    return [
        (
            tag,
            klass,
            channel if corrupt_hook is None else corrupt_hook(channel, index),
            _ginibre(d, _sub_seed(seed, index, salt)),
        )
        for tag, klass, channel, d, salt in families
    ]


def _monotonicity_run(samples: int, seed: int, corrupt_hook) -> list:
    """Sample every family's channel and input, validate the inputs, apply
    the channels and validate the outputs, each step once for the run, then
    measure every state at once (``_measure_states``), and reduce by sample
    index, then family, then measure."""
    rows = [
        (index, *family)
        for index in range(samples)
        for family in _monotonicity_families(index, seed, corrupt_hook)
    ]
    indices, tags, classes, channels, mats = zip(*rows)
    inputs = _density_stack(mats)
    outputs = _density_stack([ch._operator_sum(c, rho) for c, rho in zip(channels, inputs)])
    measured = _measure_states(
        [(klass, rho) for klass, *pair in zip(classes, inputs, outputs) for rho in pair]
    )
    failures = []
    for index, tag, before, after in zip(indices, tags, measured[::2], measured[1::2]):
        for name, lhs in before.items():
            drop = lhs - after[name]
            if drop < -MONOTONE_SLACK:
                check = f"monotonicity/{tag}/{name}"
                failures.append({"index": index, "check": check, "magnitude": float(-drop)})
    return failures


def _inclusion_sample(index: int, seed: int, corrupt_hook) -> list:
    rng = np.random.default_rng(_sub_seed(seed, index))
    d = 3 + index % 2
    # (tag, smallest class, channel) for each sampled family, drawn in this order
    families = (
        ("pio", "pio_rep", ch.random_pio_channel(d, rng)),
        ("sio", "sio_rep", ch.random_sio_channel(d, rng)),
        ("sio_special", "sio_special_rep", ch.random_sio_special_channel(d, rng)),
        ("io", "io_rep", ch.random_io_channel(d, rng)),
        (
            "g_covariant",
            "dio",
            ch.g_covariant_channel(ch.GCovariantParams(*rng.dirichlet(np.ones(3)), d)),
        ),
        (
            "incoherent_unitary",
            "sio_rep",
            ch.incoherent_unitary_channel(ch.random_incoherent_unitary(d, rng)),
        ),
    )
    failures = []
    for tag, klass, channel in families:
        if corrupt_hook is not None:
            channel = corrupt_hook(channel, index)
        for c in ch.class_chain(klass):
            if not ch.in_class(channel, c):
                check = f"inclusions/{tag}/{c}"
                failures.append({"index": index, "check": check, "magnitude": 1.0})
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
    return failures


def _sample_by_sample(sampler):
    """A run that evaluates ``sampler`` on each sample index in turn."""

    def run(samples: int, seed: int, corrupt_hook) -> list:
        return [f for index in range(samples) for f in sampler(index, seed, corrupt_hook)]

    return run


_RUNS = {
    "monotonicity": _monotonicity_run,
    "inclusions": _sample_by_sample(_inclusion_sample),
    "roundtrips": _sample_by_sample(_roundtrip_sample),
}


def run_suite(
    suite: str,
    samples: int,
    seed: int = 0,
    corrupt_hook=None,
) -> dict:
    """Run one suite; returns a summary dict with per-sample failures."""
    if suite not in _RUNS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    failures = _RUNS[suite](samples, seed, corrupt_hook)
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
