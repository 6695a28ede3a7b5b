"""State-transformation deciders with constructive channel witnesses.

Pure-state convertibility under strictly incoherent operations is governed by
majorization of the squared-amplitude vectors; the qubit mixed-state order is
governed by the two robustness measures; a qubit can be pumped into a
higher-rank pure qudit by maximally incoherent operations exactly on the
`sum sqrt(q) <= sqrt(2)` region; and a pure state converts under physically
incoherent operations exactly when its support splits into blocks whose
moduli are proportional to the target's. Every positive verdict carries a
Kraus witness. Each construction writes its operators as one stack, and
``_witness`` alone builds and checks it: CPTP within ``CPTP_TOL``, the
construction's class test, and the output match (``_verify_witness``), on
an output formed as one Gram product (``_witness_output``) for every
decider. SIO operators are written entry by entry through the sorting
gauges' indices and phases, with no gauge matrix formed.

Each class's feasibility inequality is tested in one place, its construction,
which raises ``InfeasibleTransformError`` carrying the violation record. Every
decider is ``_decide`` over its construction: it only turns that exception
into the negative verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .channels import (
    PREDICATE_TOL,
    KrausChannel,
    _phase_permutation_weights,
    _single_entried,
    is_mio,
    is_sio_rep,
)
from .numerics import trace_norm
from .states import (
    DISTRIBUTION_SUM_TOL,
    DensityMatrix,
    PureStateVector,
    SchmidtVector,
    probability_vector,
    qubit_standard_form,
    schmidt_vector,
)

WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class MajorizationCheck:
    holds: bool
    failing_k: int | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class TransformDecision:
    verdict: bool
    witness: KrausChannel | None = None
    violation: dict | None = None

    def to_json_dict(self) -> dict:
        payload: dict = {"verdict": self.verdict}
        if self.witness is not None:
            payload["witness"] = self.witness.to_json_dict()
        if self.violation is not None:
            payload["violation"] = self.violation
        return payload


class InfeasibleTransformError(ValueError):
    """The transformation fails its class's feasibility inequality.

    ``violation`` is the record the decider returns with its negative verdict.
    """

    def __init__(self, message: str, violation: dict):
        super().__init__(message)
        self.violation = violation


def _decide(construct, *args) -> TransformDecision:
    """The verdict of one construction: its witness, or its violation record."""
    try:
        return TransformDecision(True, witness=construct(*args))
    except InfeasibleTransformError as exc:
        return TransformDecision(False, violation=exc.violation)


def _padded_desc(*vectors) -> list:
    """The vectors normalized (a valid sum may miss 1 by more than the 1e-12
    prefix slack), zero-padded to a common length and sorted descending."""
    size = max(v.size for v in vectors)
    return [np.sort(np.pad(v / v.sum(), (0, size - v.size)))[::-1] for v in vectors]


def _prefix_violations(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Indices where a partial sum of source exceeds target's by over 1e-12;
    both descending and of one length."""
    return np.flatnonzero(np.cumsum(source) > np.cumsum(target) + 1e-12)


def majorizes(target: SchmidtVector, source: SchmidtVector) -> MajorizationCheck:
    """True iff every partial sum of source is dominated by target's.

    Vectors are normalized and zero-padded to a common length; on failure
    the smallest violating prefix length k (1-based) is reported.
    """
    violated = _prefix_violations(*_padded_desc(target.probs, source.probs))
    if violated.size:
        return MajorizationCheck(False, failing_k=int(violated[0]) + 1)
    return MajorizationCheck(True)


def _witness_output(channel: KrausChannel, source) -> DensityMatrix:
    """The channel's output on source, as the Gram product G G^H with
    G = [K_a F], the operators applied to a factor F F^H of the source: psi
    as a column for a PureStateVector, V diag(sqrt(max(lam, 0))) from the
    cached spectrum for a DensityMatrix. It is scaled to unit trace, as
    ``apply`` scales a trace-preserving channel's output, and validated as a
    DensityMatrix. A pure source costs O(n d^2), against the operator sum's
    O(n d^3), and no structure of the stack is assumed."""
    if isinstance(source, PureStateVector):
        factor = source.amps[:, None]
    else:
        spec = source.spectrum
        factor = spec.eigenvectors * np.sqrt(np.maximum(spec.eigenvalues, 0.0))
    cols = (channel.kraus @ factor).transpose(1, 0, 2).reshape(channel.dout, -1)
    out = cols @ cols.conj().T
    return DensityMatrix(out / np.trace(out).real)


def _verify_witness(channel: KrausChannel, source, target):
    """Raise ArithmeticError unless the channel's output on source
    (``_witness_output``) is within WITNESS_TOL of target in trace distance."""
    dist = 0.5 * trace_norm(_witness_output(channel, source).mat - target.mat)
    if dist > WITNESS_TOL:
        raise ArithmeticError(f"witness output misses the target by {dist:.3e}")


def _witness(ops, member, lost: str, source, target):
    """The channel of the stack ``ops``: TP within CPTP_TOL (else ValueError),
    passing ``member`` (else ArithmeticError naming what was ``lost``) and
    taking source to target (``_verify_witness``). source and target are the
    decider's own states, a DensityMatrix or a PureStateVector, read through
    their ``amps``, ``spectrum`` and ``mat``: a pure state is not validated
    again as a density matrix, and only the witness's output is."""
    channel = KrausChannel(ops)
    if not member(channel):
        raise ArithmeticError(f"constructed witness lost {lost}")
    _verify_witness(channel, source, target)
    return channel


def _sorting_gauge(amps: np.ndarray) -> tuple:
    """(order, phases, moduli) of the incoherent unitary g with
    g[i, order[i]] = phases[i], which makes g @ amps = moduli real,
    nonnegative and descending: ``order`` sorts |amps| stably descending,
    and a phase is 1 where the modulus is at most 1e-15."""
    order = np.argsort(-np.abs(amps), kind="stable")
    moved = amps[order]
    phases = np.ones(amps.size, dtype=complex)
    nonzero = np.abs(moved) > 1e-15
    phases[nonzero] = np.exp(-1j * np.angle(moved[nonzero]))
    return order, phases, np.abs(moved)


def sio_pure_construct(psi: PureStateVector, phi: PureStateVector) -> KrausChannel:
    """Strictly incoherent Kraus set mapping psi to phi.

    Works in the sorted-amplitude frame: a vertex walk on the permutohedron of
    tau(phi) writes tau(psi) as a convex mix of at most d permutations of
    tau(phi), and each permutation is Hadamarded against the amplitude-ratio
    matrix. Input columns the mix leaves at zero keep an identity block per
    operator so the sum rule closes exactly. Each operator has one entry per
    column, written into the dense stack through the sorting gauges'
    indices and phases (``_sorting_gauge``), with no gauge matrix formed.
    States of unequal dimension d, d' are zero-padded to the larger one and
    the square witness is composed with the embedding sum_x |x><x| (d < d',
    still at most d operators) or with the fold operators sum_{y<d'} |y><y|
    and |0><y| for y >= d' (d > d'; zero composites are dropped).

    Each state is sorted once, by its gauge: majorization is tested first,
    on the squared sorted moduli x and y, each normalized by the sum over its
    own state's entries. These are the bits ``majorizes`` compares after
    ``schmidt_vector`` sorts the probabilities (squaring keeps the
    descending order, and the padding zeros sit past every entry), so the
    verdict and ``failing_k`` are the same without a second sort.
    """
    d_in, d_out = psi.dim, phi.dim
    d = max(d_in, d_out)
    order_in, phase_in, amps_in = _sorting_gauge(np.pad(psi.amps, (0, d - d_in)))
    order_out, phase_out, amps_out = _sorting_gauge(np.pad(phi.amps, (0, d - d_out)))
    x, y = amps_in**2, amps_out**2
    violated = _prefix_violations(y / y[:d_out].sum(), x / x[:d_in].sum())
    if violated.size:
        k = int(violated[0]) + 1
        raise InfeasibleTransformError(f"majorization fails at k={k}", {"failing_k": k})

    weights, perms = _permutohedron_walk(x, y)
    # Columns are normalized by the mix actually reached, not by |psi_x|^2,
    # so the sum rule closes to rounding even for tiny amplitudes.
    reached = weights @ y[perms]
    support = reached > 0.0
    # In the sorted frame operator a sends column x to row rows[a, x]: to
    # perms[a, x] where the mix reached x, else to x itself, the identity
    # block that closes the sum rule.
    rows = np.where(support, perms, np.arange(d))
    ratio = amps_out[perms] / np.sqrt(np.where(support, reached, 1.0))
    values = np.where(support, ratio, 1.0) * np.sqrt(weights)[:, None]
    # the gauges move entry (r, x) to (order_out[r], order_in[x]) and
    # multiply it by conj(phase_out[r]) phase_in[x]
    ops = np.zeros((weights.size, d, d), dtype=complex)
    ops[np.arange(weights.size)[:, None], order_out[rows], order_in] = (
        phase_out[rows].conj() * values * phase_in
    )
    if d_in < d_out:
        ops = ops[:, :, :d_in]
    elif d_in > d_out:
        # the fold: each operator's rows below d_out stay where they are, and
        # its row y >= d_out moves to row 0 of a composite of its own; the
        # composites run y-major, as the products |0><y| K_a do
        head = ops[:, :d_out]
        y, a = np.nonzero(np.any(ops[:, d_out:] != 0.0, axis=2).T)
        tail = np.zeros((y.size, d_out, d_in), dtype=complex)
        tail[:, 0] = ops[a, d_out + y]
        ops = np.concatenate((head[np.any(head != 0.0, axis=(1, 2))], tail))
    return _witness(
        ops, lambda c: _single_entried(c.kraus, PREDICATE_TOL), "strict incoherence", psi, phi
    )


def _permutohedron_walk(x: np.ndarray, y: np.ndarray) -> tuple:
    """Weights w > 0 summing to 1 and m <= d permutations with x = w @ y[perms].

    y is descending and majorizes x, so x lies in the permutohedron of y,
    whose facets are the cuts sum_S z <= Y_|S| (Y the prefix sums of y).
    From the vertex v with v[order] = y, ``order`` sorting z descending, the
    walk steps through z to the first free cut hit, z + lam (z - v); lam is
    found exactly by Dinkelbach's method from above, over the top-k sets of
    z + lam (z - v). Each step tightens one more cut, so at most d - 1 steps
    reach a vertex (Yasutake, Hatano, Kijima, Takimoto and Takeda, ISAAC
    2011). Ties in z need no tie-break: a tie across a tight cut forces equal
    entries of y there, so every descending order gives the same v on them.
    A step writes z = (z' + lam v) / (1 + lam), so the weights are carried as
    products; rounding amplified by a far extrapolation is damped by the same
    factor 1 / (1 + lam).

    The walk runs on Python floats and lists: at d <= 64 a numpy call costs
    more than its arithmetic. Every step rounds as the numpy form of the
    walk did, so weights and permutations keep their bits: ``sorted`` with
    ``reverse=True`` is the stable descending order of ``argsort(-z,
    kind="stable")``, running sums add left to right as ``cumsum`` does,
    each entrywise sum, product and quotient is one IEEE operation either
    way, and the first strict minimum is ``argmin``'s.
    """
    d = x.size
    y = y.tolist()
    y_cum = list(accumulate(y))
    free = [True] * (d - 1) + [False]  # sum z = sum y throughout
    z = x.astype(float).tolist()
    weights, perms, carry = [], [], 1.0
    while True:
        rank = _descending_rank(z)
        if not any(free):
            break
        u = [zi - y[r] for zi, r in zip(z, rank)]  # z - v, with v[i] = y[rank[i]]
        lam, cut = math.inf, None
        while True:
            key = u if lam == math.inf else [zi + lam * ui for zi, ui in zip(z, u)]
            idx = sorted(range(d), key=key.__getitem__, reverse=True)
            best, k_best = math.inf, None
            u_cum = z_cum = 0.0
            for k, i in enumerate(idx):
                u_cum += u[i]
                z_cum += z[i]
                if free[k] and u_cum > 0.0:
                    ratio = (y_cum[k] - z_cum) / u_cum
                    if ratio < best:
                        best, k_best = ratio, k
            if best >= lam:  # also when no cut is free, or every ratio is inf
                break
            lam, cut = best, k_best
        if cut is None:  # u vanishes up to rounding: z is the vertex v
            break
        step = max(lam, 0.0)
        if step > 0.0:
            weights.append(carry * step / (1.0 + step))
            perms.append(rank)
            carry /= 1.0 + step
        z = [zi + step * ui for zi, ui in zip(z, u)]
        free[cut] = False
    weights.append(carry)
    perms.append(rank)
    keep = np.array(weights) > 0.0
    return np.array(weights)[keep], np.array(perms)[keep]


def _descending_rank(z: list) -> list:
    """rank[i] = position of entry i in the stable descending order of z:
    ``argsort(argsort(-z, kind="stable"))``."""
    rank = [0] * len(z)
    for k, i in enumerate(sorted(range(len(z)), key=z.__getitem__, reverse=True)):
        rank[i] = k
    return rank


def sio_pure_decide(psi: PureStateVector, phi: PureStateVector) -> TransformDecision:
    """Is psi -> phi possible by strictly incoherent operations?"""
    return _decide(sio_pure_construct, psi, phi)


def multi_outcome_decide(psi: PureStateVector, ensemble) -> bool:
    """Is the multi-outcome transformation psi -> {(p_i, phi_i)} possible?

    Holds iff tau(psi) is majorized by the probability mix of the outcome
    Schmidt vectors. The weights must be a ``probability_vector`` and are
    normalized before mixing, so the verdict does not hang on its slack.
    """
    weights = [float(p) for p, _ in ensemble]
    weights = probability_vector(weights, "ensemble weights", DISTRIBUTION_SUM_TOL)
    weights /= weights.sum()
    vecs = _padded_desc(psi.probs, *(schmidt_vector(s).probs for _, s in ensemble))
    mixed = sum(w * v for w, v in zip(weights, vecs[1:]))
    return not _prefix_violations(np.sort(mixed)[::-1], vecs[0]).size


def max_conversion_probability(psi: PureStateVector, phi: PureStateVector) -> float:
    """Largest p with psi -> phi succeeding at probability p under SIO.

    min over k of the tail-sum ratios of the descending squared amplitudes,
    normalized and zero-padded to a common length; 1.0 exactly when
    ``majorizes`` holds, which is decided first with its own slack.
    """
    s, t = _padded_desc(psi.probs, phi.probs)
    if not _prefix_violations(t, s).size:
        return 1.0
    src_tail = np.cumsum(s[::-1])[::-1]
    tgt_tail = np.cumsum(t[::-1])[::-1]
    kept = tgt_tail > 1e-15
    best = np.min(src_tail / np.where(kept, tgt_tail, 1.0), where=kept, initial=1.0)
    return float(max(best, 0.0))


# ---------------------------------------------------------------------------
# Qubit -> qudit pure transformations under maximally incoherent operations.
# ---------------------------------------------------------------------------


def _mio_target(q) -> np.ndarray:
    """Validated target probabilities: a ``probability_vector`` of dimension above 2."""
    qv = probability_vector(np.ravel(q), "target probabilities", DISTRIBUTION_SUM_TOL)
    if qv.size <= 2:
        raise ValueError("target dimension must exceed 2 (use qubit_decide instead)")
    return qv


def mio_qubit_pure_construct(p, q) -> KrausChannel:
    """Maximally incoherent channel taking the pure qubit with probabilities p
    to the pure qudit sum_y sqrt(q_y) |y>.

    The source must be |+>: p uniform, |p_0 - p_1| <= 2e-12 whatever the
    scale of p, and a refusal reports that inequality. Both vectors are
    validated before either test. Uses a stack of d'+1 operators built from
    r_y = sqrt(q_y)/s with s = sum sqrt(q): column 0 of operator j holds
    sqrt(r_j) e_j, column 1 holds sqrt(2 q_y) c_j - sqrt(r_y) delta_{yj}, with
    c_j = sqrt(s/2) q_j^(1/4) and a completing coefficient
    c_{d'+1} = sqrt(1 - s^2/2). Feasible exactly when s <= sqrt(2), tested
    with a 1e-12 slack; at the boundary the completing operator vanishes (it
    is dropped below 1e-13), and so does operator j wherever q_j = 0.
    """
    pv = probability_vector(np.ravel(p), "source probabilities", DISTRIBUTION_SUM_TOL)
    if pv.size != 2:
        raise ValueError("source must be a qubit probability vector")
    qv = _mio_target(q)
    spread = float(abs(pv[0] - pv[1]))
    if spread > 2e-12:
        raise InfeasibleTransformError(
            f"source population {pv[0]:.6f} is not uniform",
            {"monotone": "uniform_source", "lhs": spread, "rhs": 2e-12},
        )
    s = float(np.sum(np.sqrt(qv)))
    if s > math.sqrt(2.0) + 1e-12:
        raise InfeasibleTransformError(
            f"sum of square roots {s:.6f} exceeds sqrt(2)",
            {"monotone": "sqrt_sum", "lhs": s, "rhs": math.sqrt(2.0)},
        )
    d_out = qv.size
    root_r = np.sqrt(np.sqrt(qv) / s)
    c_last = math.sqrt(max(1.0 - s * s / 2.0, 0.0))
    c = np.append(np.sqrt(s / 2.0) * qv**0.25, c_last)
    y = np.arange(d_out)
    ops = np.zeros((d_out + 1, d_out, 2), dtype=complex)
    ops[y, y, 0] = root_r
    ops[:, :, 1] = np.sqrt(2.0 * qv) * c[:, None]
    ops[y, y, 1] -= root_r
    keep = ops.any(axis=(1, 2))
    keep[d_out] &= c_last >= 1e-13
    plus = PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    target = PureStateVector(np.sqrt(qv / qv.sum()).astype(complex))
    return _witness(ops[keep], is_mio, "the incoherence property", plus, target)


def mio_qubit_pure_decide(p, q) -> TransformDecision:
    """Can the pure qubit with probabilities p reach the pure qudit q by MIO?"""
    return _decide(mio_qubit_pure_construct, p, q)


# ---------------------------------------------------------------------------
# Qubit mixed-state transformations.
# ---------------------------------------------------------------------------


def _qubit_cdr(p: float, r: float) -> float:
    if p >= 1.0 - 1e-12:
        return 0.0
    return r / math.sqrt(p * (1.0 - p))


def qubit_decide(rho: DensityMatrix, sigma: DensityMatrix) -> TransformDecision:
    """Decide rho -> sigma for qubits via the two robustness inequalities."""
    return _decide(qubit_construct, rho, sigma)


def _qubit_peak_offdiagonal(p: float, q: float, r: float) -> float:
    if q >= p:
        return r * math.sqrt(q * (1.0 - q) / (p * (1.0 - p)))
    return r


def _qubit_stage_one(p: float, q: float) -> np.ndarray:
    """Diagonal/antidiagonal stack {J, K} moving (p, r) to (q, r_peak)."""
    if abs(p - q) < 1e-14:
        return np.eye(2, dtype=complex)[None]
    if p >= q:
        u = v = (p + q - 1.0) / (2.0 * p - 1.0)
    else:
        w = (p + q - 1.0) / (2.0 * q - 1.0)
        u = (q / p) * w
        v = ((1.0 - q) / (1.0 - p)) * w
    u = min(max(u, 0.0), 1.0)
    v = min(max(v, 0.0), 1.0)
    j_op = np.diag([math.sqrt(u), math.sqrt(v)]).astype(complex)
    k_op = np.array([[0.0, math.sqrt(1.0 - v)], [math.sqrt(1.0 - u), 0.0]], dtype=complex)
    if np.max(np.abs(k_op)) < 1e-13:
        return j_op[None]
    return np.stack([j_op, k_op])


def qubit_construct(rho: DensityMatrix, sigma: DensityMatrix) -> KrausChannel:
    """Strictly incoherent channel realizing a feasible qubit transformation.

    Two stages on standard forms: first a {diagonal, antidiagonal} pair
    reaching the target populations at the largest compatible off-diagonal,
    then a dephasing pair diag(cos t, sin t) / diag(sin t, cos t), which keeps
    the populations and scales the off-diagonal by sin 2t, so
    t = asin(target / peak) / 2. The standard-form gauges of both states are
    folded into the operators. Feasible exactly when neither C_R nor C_dR
    (robustness 2r and dephasing robustness r / sqrt(p(1-p))) grows, each
    tested with a 1e-12 slack, C_R first.
    """
    if rho.dim != 2 or sigma.dim != 2:
        raise ValueError("both states must be qubits")
    sf_in = qubit_standard_form(rho)
    sf_out = qubit_standard_form(sigma)
    p, r = sf_in.p, sf_in.r
    q, t = sf_out.p, sf_out.r
    t_peak = _qubit_peak_offdiagonal(p, q, r)
    for monotone, lhs, rhs in (
        ("c_r", 2.0 * r, 2.0 * t),
        ("c_delta_r", _qubit_cdr(p, r), _qubit_cdr(q, t)),
    ):
        if lhs < rhs - 1e-12:
            raise InfeasibleTransformError(
                "transformation is not feasible for these qubits",
                {"monotone": monotone, "lhs": lhs, "rhs": rhs},
            )

    ops = _qubit_stage_one(p, q)
    if t < t_peak - 1e-12:
        theta = 0.5 * math.asin(t / t_peak)
        cos, sin = math.cos(theta), math.sin(theta)
        dephasing = np.array([np.diag([cos, sin]), np.diag([sin, cos])], dtype=complex)
        ops = (dephasing[:, None] @ ops[None]).reshape(-1, 2, 2)
    gauged = sf_out.gauge.conj().T @ ops @ sf_in.gauge
    return _witness(gauged, is_sio_rep, "strict incoherence", rho, sigma)


# ---------------------------------------------------------------------------
# Pure-state transformations under physically incoherent operations.
# ---------------------------------------------------------------------------


def _match_blocks(values_desc, profile):
    """Partition index-value pairs, sorted by descending value, into blocks
    proportional to the descending profile.

    The largest remaining value must head its own block, so a value that block
    needs and no remaining entry matches within 1e-9 (relative above 1) proves
    that no partition exists. Returns (blocks, None), or (None, (top, missing))
    with that head and needed value.
    """
    remaining = list(values_desc)
    blocks = []
    while remaining:
        idx, top = remaining.pop(0)
        scale = top / profile[0]
        block = [idx]
        for want in (scale * v for v in profile[1:]):
            close = 1e-9 * max(1.0, want)
            near = [pos for pos, (_, val) in enumerate(remaining) if abs(val - want) <= close]
            if not near:
                return None, (top, want)
            block.append(remaining.pop(near[0])[0])
        blocks.append(block)
    return blocks, None


def pio_pure_construct(psi: PureStateVector, phi: PureStateVector) -> KrausChannel:
    """Physically incoherent Kraus set mapping psi to phi.

    Feasible exactly when the support of psi splits into equal-size blocks,
    each with modulus pattern proportional to that of phi. One operator per
    block sends it onto the support of phi by unit-modulus phases, so each
    operator's column support is one block; the identity on the complement of
    psi's support closes the sum rule. The witness is checked at every d to be
    one PIO group: unit-modulus phase partial permutations whose supports
    partition the basis. Moduli are taken by np.hypot, which rounds as abs()
    of one entry does; np.abs of a complex array can differ in the last bit.
    """
    if psi.dim != phi.dim:
        raise ValueError("decision expects equal dimensions")
    d = psi.dim
    mod_in = np.hypot(psi.amps.real, psi.amps.imag)
    mod_out = np.hypot(phi.amps.real, phi.amps.imag)
    supp_in = np.flatnonzero(mod_in > 1e-12)
    supp_out = np.flatnonzero(mod_out > 1e-12)
    n = supp_out.size
    if n == 0 or supp_in.size % n != 0:
        reason = "support sizes incompatible"
        supports = {"source_support": supp_in.tolist(), "target_support": supp_out.tolist()}
        raise InfeasibleTransformError(reason, {"reason": reason, **supports})
    out_sorted = supp_out[np.argsort(-mod_out[supp_out], kind="stable")]
    profile = mod_out[out_sorted].tolist()
    in_sorted = supp_in[np.argsort(-mod_in[supp_in], kind="stable")]
    blocks, unmatched = _match_blocks(zip(in_sorted.tolist(), mod_in[in_sorted].tolist()), profile)
    if blocks is None:
        top, missing = unmatched
        reason = "no proportional block partition"
        raise InfeasibleTransformError(
            reason, {"reason": reason, "profile": profile, "top": top, "missing": missing}
        )

    blocks = np.array(blocks)
    scale = mod_in[blocks[:, :1]] / mod_out[out_sorted[0]]
    phase = (psi.amps[blocks] / (scale * phi.amps[out_sorted])).conj()
    complement = np.flatnonzero(mod_in <= 1e-12)
    m = len(blocks)
    ops = np.zeros((m + (complement.size > 0), d, d), dtype=complex)
    ops[np.arange(m)[:, None], out_sorted, blocks] = phase / np.hypot(phase.real, phase.imag)
    ops[m:, complement, complement] = 1.0
    return _witness(ops, _one_projective_group, "the projective form", psi, phi)


def _one_projective_group(channel: KrausChannel) -> bool:
    """Unit-modulus phase partial permutations: one PIO group, as the trace
    check has made their supports partition the basis."""
    group = _phase_permutation_weights(channel, PREDICATE_TOL)
    return group is not None and np.max(np.abs(group[0] - 1.0)) <= 1e-8


def pio_pure_decide(psi: PureStateVector, phi: PureStateVector) -> TransformDecision:
    """Is psi -> phi possible by physically incoherent operations?"""
    return _decide(pio_pure_construct, psi, phi)
