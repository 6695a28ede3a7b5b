"""Sampled property suites: monotonicity, class inclusions, and roundtrips.

The class suites list each sampled channel family once, with its smallest
class: the inclusions suite tests every class ``channels.class_chain`` gives
for it, and the monotonicity suite every monotone of those classes.

The monotonicity suite first builds every sample's channels and their input
and output states, then measures all the states at once. A sample's three
input states are validated as one stack per dimension, and so are its three
output states (``states._density_stack``: one ``eig_hermitian`` call per
stack, each state with the bits ``DensityMatrix`` gives it alone); the qubit
MIO channel's Choi matrix is factorized with full checks once, and its Kraus
operators are read off that factorization. C_R solves each dimension's
states as one batch of the barrier kernel (``monotones.c_r_many``), and each
spectral monotone is one stacked call per dimension over the states that
need it (the ``monotones.*_values`` kernels); the other suites evaluate one
sample after another.
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
from .monotones import _per_dimension
from .states import _density_stack, _ginibre

MONOTONE_SLACK = 1e-7
ALPHA_GRID = (0.0, 0.3, 0.5, 0.7, 1.0, 1.3, 1.7, 2.0)

SUITES = ("monotonicity", "inclusions", "roundtrips")


def _sub_seed(seed: int, index: int, salt: int = 0) -> int:
    return (seed * 1_000_003 + index * 97 + salt) % (2**31 - 1)


_C_ALPHA = tuple(f"c_alpha[{a:g}]" for a in ALPHA_GRID)
_C_DELTA_ALPHA = tuple(f"c_delta_alpha[{a:g}]" for a in ALPHA_GRID)


def _measure_states(cases) -> list:
    """The monotones of each (class, state) case, for its class and every
    class containing it: MIO's (every class is an MIO class), then DIO's,
    then IO's. Each measure is one stacked call per dimension over the states
    that need it; a state in a DIO class reads both Renyi grids from one
    product (``renyi_grid_values``), and C_R is one ``c_r_many`` call over
    all the states, which solves each dimension's barrier states as one
    batch."""
    states = [rho for _, rho in cases]
    chains = [ch.class_chain(klass) for klass, _ in cases]
    dio = [k for k, chain in enumerate(chains) if "dio" in chain]
    others = [k for k, chain in enumerate(chains) if "dio" not in chain]
    io = [k for k, chain in enumerate(chains) if "io_rep" in chain]
    grids = _per_dimension(lambda s: mo.c_alpha_values(s, ALPHA_GRID), states, others)
    both = _per_dimension(lambda s: np.hstack(mo.renyi_grid_values(s, ALPHA_GRID)), states, dio)
    grids.update(both)
    trace_norms = _per_dimension(mo.trace_norm_coherence_values, states, dio)
    c_delta_rs = _per_dimension(lambda s: mo.c_delta_r_values(s)[0], states, dio)
    c_l1s = _per_dimension(mo.c_l1_values, states, io)
    measured = []
    for k, (chain, c_r) in enumerate(zip(chains, mo.c_r_many(states))):
        vals = dict(zip(_C_ALPHA, grids[k]))
        vals["c_r"] = c_r.value
        vals["log1p_c_r"] = math.log2(1.0 + c_r.value)
        if "dio" in chain:
            vals.update(zip(_C_DELTA_ALPHA, grids[k][len(ALPHA_GRID) :]))
            vals["trace_norm_coherence"] = trace_norms[k]
            vals["c_delta_r"] = c_delta_rs[k]
        if "io_rep" in chain:
            vals["c_l1"] = c_l1s[k]
        measured.append(vals)
    return measured


def _monotonicity_families(index: int, seed: int, corrupt_hook) -> list:
    """(tag, smallest class, input, output) for each family sampled at index,
    with the corrupt hook applied to its channel. The inputs are
    ``random_density`` states and the outputs ``ch.apply``'s, each set
    validated as one stack per dimension."""
    rng = np.random.default_rng(_sub_seed(seed, index))
    params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), 3)
    # (tag, smallest class, channel, input dimension, input seed salt)
    families = (
        ("g_covariant", "dio", ch.g_covariant_channel(params), 3, 1),
        ("qubit_mio", "mio", ch.sample_mio_qubit_channel(_sub_seed(seed, index, 2)), 2, 3),
        ("sio", "sio_rep", ch.random_sio_channel(3, rng), 3, 4),
    )
    inputs = _density_stack(
        [_ginibre(d, _sub_seed(seed, index, salt)) for _, _, _, d, salt in families]
    )
    channels = [
        channel if corrupt_hook is None else corrupt_hook(channel, index)
        for _, _, channel, _, _ in families
    ]
    outputs = _density_stack([ch._operator_sum(c, rho) for c, rho in zip(channels, inputs)])
    return [
        (tag, klass, rho, out)
        for (tag, klass, *_), rho, out in zip(families, inputs, outputs)
    ]


def _monotonicity_run(samples: int, seed: int, corrupt_hook) -> list:
    """Build every sample's channels and states first, then measure them all
    at once (``_measure_states``), and reduce by sample index, then family,
    then measure."""
    families = [
        (index, family)
        for index in range(samples)
        for family in _monotonicity_families(index, seed, corrupt_hook)
    ]
    measured = _measure_states(
        [(klass, rho) for _, (_, klass, before, after) in families for rho in (before, after)]
    )
    failures = []
    for k, (index, (tag, _, _, _)) in enumerate(families):
        before, after = measured[2 * k], measured[2 * k + 1]
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
