"""Coherence measures: Renyi families, robustness measures, and rate calculators.

All values are in bits (log base 2). Each measure returns a MonotoneReport
carrying the value, the evaluation method, an optional witness (an optimal
diagonal majorant, an optimal ratio vector, or similar) and, for the two
optimizations, the certified dual bound. C_R first tries a rank-one dual
Y = u u^H, |u_i| = 1, which is the shape of its optimum in each closed form:
``_c_r_rank_one`` runs Newton on the phases of u for a batch of states in
lockstep and certifies a state with one Cholesky factorization of
Diag(d) - rho at d_i = Re(conj(u_i) (rho u)_i), which sums to the dual value
u^H rho u. The states it refuses, C_R with method="cutting_plane", and the
trace distance to the incoherent states are solved by
``numerics.log_det_barrier``, one problem per call: each client passes its
start and its slack, Newton step and bound hooks, which read the problem's
data from their closures, and the kernel sets the barrier schedule from the
certified gap: t starts at nu / gap and, after each step taken near the
central path and after at most BARRIER_FAR_PULLS in a row taken far from it,
rises to at least BARRIER_MU * nu / gap, and a solve that rounding keeps
open past that t restarts without far pulls. ``c_r_many`` hands every state
without a closed form to the rank-one kernel, as one batch per dimension,
and every state that kernel refuses to the barrier, and ``c_r`` is its
one-state case; a state's report is the same, bit for bit, in any batch.
The C_R barrier solves its d x d Newton systems densely and repairs a dual
point out of S^-1. The trace distance is solved in its dual form, so every
iterate is a certificate as it stands, and the primal point q is read off
its multipliers. Its Newton step uses the shared eigenbasis of (I -+ W)^-1
and costs O(d^4), so it reaches d = 64.
Either report's bound is within its gap target (``C_R_GAP``,
``TRACE_DISTANCE_GAP``) of its value, or the call raises ArithmeticError.

The spectral measures are stacked kernels over states of one dimension d,
each a ``*_values`` function returning an array with one row per state, and
the only interface for many states or many alphas; ``states._per_dimension``
groups a list of states of mixed dimensions for them. The one-state functions
(``c_rel``, ``c_l1``, ``c_alpha``, ``c_delta_alpha``,
``trace_norm_coherence``, ``c_delta_r``) are their one-state case, wrapping
one entry in a report, and a state's row is the same, bit for bit, in any
stack. They read the eigendecompositions rho = V diag(lambda) V^H cached on
the states (``DensityMatrix.spectrum``) instead of factorizing again. Each Renyi
measure is a trace against a diagonal state, so it needs only the diagonal
of a function of rho, diag f(rho) = |V|^2 f(lambda) (``_diag_of``); no d x d
power of rho is formed, and the dephased state is raised to a power
elementwise. diag(rho^alpha) for every alpha of a grid and every state is
one (K, d, n) product |V|^2 [lambda_i^alpha] (``_diag_powers``), dotted
column by column with the dephased states' powers for c_delta_alpha;
``renyi_grid_values`` gives c_alpha and the right-hand c_delta_alpha from a
single product. c_rel and c_l1 are row reductions, the trace norm of
rho - dephased is one stacked SVD, and c_delta_r is one stacked
eigendecomposition of the cores D^-1/2 rho D^-1/2 per support size of D.
Logarithms of the results are math.log2's, taken on Python floats: np.log2
differs from it in the last bit on some inputs.

On a pure state psi every measure but c_delta_alpha is a function of the
coherence vector p = |psi|^2, and ``_pure_reports`` reads each off p in O(d),
method "closed_form", with no d x d matrix built or factorized. A
``DensityMatrix`` input takes the spectral path even when it is pure, since
a nearly pure mixed state can keep a different c_delta_r support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .numerics import _ExactEquality, eig_hermitian, log_det_barrier, psd_power_values, solve_stack
from .numerics import trace_norm
from .states import DISTRIBUTION_SUM_TOL, DensityMatrix, PureStateVector, SchmidtVector
from .states import _per_dimension, complex_to_json, probability_vector


@dataclass(frozen=True, eq=False)
class MonotoneReport(_ExactEquality):
    name: str
    value: float
    # closed_form | eigenvalue | rank_one_dual | barrier; the last two carry a
    # bound, and so does C_R's pure form
    method: str
    witness: object = None
    bound: float | None = None  # certified lower bound on value; None when exact

    def __post_init__(self):
        # a zero value is +0.0; x + 0.0 is x for every other x
        object.__setattr__(self, "value", self.value + 0.0)

    def to_json_dict(self, include_witness: bool = False) -> dict:
        payload = {"name": self.name, "value": self.value, "method": self.method}
        if include_witness and self.bound is not None:
            payload["bound"] = self.bound
        if include_witness and self.witness is not None:
            w = np.asarray(self.witness)
            if np.iscomplexobj(w):
                payload["witness"] = complex_to_json(w.ravel())
            else:
                payload["witness"] = [float(v) for v in w.ravel()]
        return payload


def _entropies(vals: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of vals (K, n); entries <= 1e-15
    count as 0. Each row is summed from its kept entries alone, as a 1-D
    array, so its bits do not depend on the entries it drops."""
    rows = (row[row > 1e-15] for row in vals)
    return np.array([-(row * np.log2(row)).sum() for row in rows])


def _shannon(vec: np.ndarray) -> float:
    """Shannon entropy in bits of a probability vector (see _entropies)."""
    return float(_entropies(vec[None])[0])


def renyi(p, alpha: float) -> float:
    """Renyi entropy S_alpha in bits of a SchmidtVector or a flat
    ``probability_vector``; alpha=1 is Shannon, alpha=inf is min-entropy."""
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    probs = p.probs if isinstance(p, SchmidtVector) else p
    vec = probability_vector(np.ravel(probs), "probability vector", DISTRIBUTION_SUM_TOL)
    kept = vec[vec > 1e-15]
    if alpha == 1.0:
        value = _shannon(vec)
    elif math.isinf(alpha):
        value = float(-np.log2(np.max(kept)))
    elif alpha == 0.0:
        value = float(np.log2(kept.size))
    else:
        value = float(np.log2(np.sum(kept**alpha)) / (1.0 - alpha))
    return value + 0.0  # a zero entropy is +0.0, as in MonotoneReport


def _stacked(states, get) -> np.ndarray:
    """The stack of get(rho) over a sequence of states of one dimension; for
    one state a view, which may be read-only."""
    if len(states) == 1:
        return get(states[0])[None]
    return np.array([get(rho) for rho in states])


def _dephased(states) -> np.ndarray:
    """(K, d) diagonals of states of one dimension: their dephased states."""
    return _stacked(states, lambda rho: rho.mat.diagonal()).real


def _eigenvalues(states) -> np.ndarray:
    """(K, d) ascending eigenvalues of states of one dimension, as cached."""
    return _stacked(states, lambda rho: rho.spectrum.eigenvalues)


def _eigenvectors(states) -> np.ndarray:
    """(K, d, d) eigenvectors of states of one dimension, as cached."""
    return _stacked(states, lambda rho: rho.spectrum.eigenvectors)


def _diag_of(vecs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Diagonals of V diag(values) V^H for a stack of eigenbases V (K, d, d)
    and values (K, d, n), one column per column of values: |V|^2 values."""
    return (vecs.real**2 + vecs.imag**2) @ values


def _c_rel_rows(delta: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """(K,) c_rel from the dephased states and the eigenvalues."""
    entropies = _entropies(np.concatenate((delta, vals)))
    return entropies[: len(delta)] - entropies[len(delta) :]


def c_rel_values(states) -> np.ndarray:
    """Relative entropy of coherence S(dephased) - S(rho) of each of states
    of one dimension, (K,)."""
    return _c_rel_rows(_dephased(states), _eigenvalues(states))


def c_rel(rho: DensityMatrix) -> MonotoneReport:
    """Relative entropy of coherence S(dephased) - S(rho)."""
    return MonotoneReport("c_rel", float(c_rel_values((rho,))[0]), "closed_form")


def _alpha_grid(alphas) -> np.ndarray:
    grid = np.asarray(alphas, dtype=float).ravel()
    if not all(0.0 <= alpha <= 2.0 for alpha in grid.tolist()):
        raise ValueError("alpha must lie in [0, 2]")
    return grid


def _diag_powers(vals: np.ndarray, vecs: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """(K, d, n) columns diag(rho^a) = |V|^2 lambda^a, one per exponent a, for
    each state: one stacked product."""
    return _diag_of(vecs, psd_power_values(vals[:, :, None], exponents))


def _c_alpha_rows(grid: np.ndarray, diags: np.ndarray, rel) -> np.ndarray:
    """(K, n) c_alpha at every alpha of grid from the columns diag(rho^alpha)
    (K, d, n) and c_rel (K,), which stands at alpha = 1 (None if 1 is off the
    grid). Logarithms are math.log2's, of Python floats, column by column."""
    diags = diags.clip(0.0, None)
    # alpha = 0 reads the column maximum, so its exponent here is a placeholder
    totals = (diags ** (1.0 / np.where(grid == 0.0, 1.0, grid))).sum(axis=1)
    values = np.empty(totals.shape)
    for j, alpha in enumerate(grid.tolist()):
        if alpha == 1.0:
            values[:, j] = rel
        elif alpha == 0.0:
            values[:, j] = [0.0 - math.log2(top) for top in diags[:, :, j].max(axis=1).tolist()]
        else:
            scale = alpha / (alpha - 1.0)
            values[:, j] = [scale * math.log2(total) for total in totals[:, j].tolist()]
    return values


def _renyi_inputs(states, grid: np.ndarray) -> tuple:
    """What both Renyi grids read of states of one dimension: the dephased
    states, the spectra, the columns diag(rho^alpha) (K, d, n) of one stacked
    product, and c_rel (None if 1 is off the grid)."""
    delta, vals, vecs = _dephased(states), _eigenvalues(states), _eigenvectors(states)
    rel = _c_rel_rows(delta, vals) if 1.0 in grid.tolist() else None
    return delta, vals, vecs, _diag_powers(vals, vecs, grid), rel


def c_alpha_values(states, alphas) -> np.ndarray:
    """(K, n) Renyi coherence monotones c_alpha of states of one dimension at
    every alpha in [0, 2] of ``alphas`` (see c_alpha); the diagonals of every
    rho^alpha come from one product (``_diag_powers``)."""
    grid = _alpha_grid(alphas)
    _, _, _, diags, rel = _renyi_inputs(states, grid)
    return _c_alpha_rows(grid, diags, rel)


def c_alpha(rho: DensityMatrix, alpha: float) -> MonotoneReport:
    """Renyi coherence monotone c_alpha for alpha in [0, 2], closed form.

    (alpha/(alpha-1)) * log2 sum_x <x|rho^alpha|x>^(1/alpha); alpha = 1
    dispatches to the relative entropy of coherence, alpha = 0 is the
    analytic limit -log2 max_x <x|P|x> with P the support projector. The
    one-state, one-alpha case of ``c_alpha_values``.
    """
    value = float(c_alpha_values((rho,), (alpha,))[0, 0])
    return MonotoneReport(f"c_alpha[{float(alpha):g}]", value, "closed_form")


def _off_diagonal(states) -> np.ndarray:
    """(K, d, d) copies of the matrices of states of one dimension with their
    diagonals set to zero: rho minus its dephased state."""
    off = _stacked(states, lambda rho: rho.mat).copy()
    d = off.shape[-1]
    off[:, np.arange(d), np.arange(d)] = 0.0
    return off


def c_l1_values(states) -> np.ndarray:
    """Sum of off-diagonal moduli of each of states of one dimension, (K,)."""
    mags = np.abs(_off_diagonal(states))
    return mags.reshape(len(mags), -1).sum(axis=1)


def c_l1(rho: DensityMatrix) -> MonotoneReport:
    """Sum of off-diagonal moduli."""
    return MonotoneReport("c_l1", float(c_l1_values((rho,))[0]), "closed_form")


def c_q_alpha_pure(psi: PureStateVector, alpha: float) -> MonotoneReport:
    """Sandwiched-Renyi coherence of a pure state: S_gamma(p), gamma = a/(2a-1)."""
    if not alpha >= 0.5:
        raise ValueError("alpha must be at least 1/2")
    if math.isinf(alpha):
        gamma = 0.5
    elif alpha == 0.5:
        gamma = math.inf
    else:
        gamma = alpha / (2.0 * alpha - 1.0)
    return MonotoneReport(f"c_q_alpha[{alpha:g}]", renyi(psi.probs, gamma), "closed_form")


def _c_delta_alpha_rows(grid, side, powers, delta, vals, vecs, rel) -> np.ndarray:
    """(K, n) c_delta_alpha on ``side`` at every alpha of grid, from the columns
    diag(rho^a) (K, d, n) (a = alpha on the right, 1 - alpha on the left), the
    dephased states, the spectra and, on the right, c_rel (None if 1 is off
    the grid). Logarithms are math.log2's, of Python floats, as in
    _c_alpha_rows."""
    b = 1.0 - grid if side == "right" else grid
    traces = (powers * psd_power_values(delta[:, :, None], b)).sum(axis=1)
    values = np.empty(traces.shape)
    for j, alpha in enumerate(grid.tolist()):
        if alpha == 1.0 and side == "right":
            values[:, j] = rel
        elif alpha == 1.0:
            log_rho = _diag_of(vecs, np.log2(np.clip(vals, 1e-300, None))[:, :, None])[:, :, 0]
            values[:, j] = -_entropies(delta) - np.vecdot(delta, log_rho)
        else:
            logs = [math.log2(max(trace, 1e-300)) for trace in traces[:, j].tolist()]
            values[:, j] = [log / (alpha - 1.0) for log in logs]
    if side == "left":
        # +inf for alpha >= 1 where the dephased support exceeds the rank
        infinite = np.sum(delta > 1e-12, axis=1) > np.sum(vals > 1e-12, axis=1)
        values[np.ix_(infinite, grid >= 1.0)] = math.inf
    return values


def c_delta_alpha_values(states, alphas, side: str = "right") -> np.ndarray:
    """(K, n) dephasing-relative Renyi monotones of states of one dimension at
    every alpha in [0, 2] of ``alphas`` (see c_delta_alpha). Each trace is
    diag(rho^a) . dephased^b, (a, b) = (alpha, 1-alpha) on the right and
    (1-alpha, alpha) on the left, from one product (``_diag_powers``)."""
    grid = _alpha_grid(alphas)
    if side == "right":
        delta, vals, vecs, diags, rel = _renyi_inputs(states, grid)
        return _c_delta_alpha_rows(grid, side, diags, delta, vals, vecs, rel)
    if side != "left":
        raise ValueError("side must be 'right' or 'left'")
    delta, vals, vecs = _dephased(states), _eigenvalues(states), _eigenvectors(states)
    powers = _diag_powers(vals, vecs, 1.0 - grid)
    return _c_delta_alpha_rows(grid, side, powers, delta, vals, vecs, None)


def renyi_grid_values(states, alphas) -> tuple:
    """(K, n) c_alpha and (K, n) right-hand c_delta_alpha of states of one
    dimension at every alpha in [0, 2] of ``alphas``, from one stacked
    product diag(rho^alpha) and one c_rel: the right side reads the powers
    c_alpha reads. The first is ``c_alpha_values``'s, bit for bit."""
    grid = _alpha_grid(alphas)
    delta, vals, vecs, diags, rel = _renyi_inputs(states, grid)
    c_deltas = _c_delta_alpha_rows(grid, "right", diags, delta, vals, vecs, rel)
    return _c_alpha_rows(grid, diags, rel), c_deltas


def c_delta_alpha(rho: DensityMatrix, alpha: float, side: str = "right") -> MonotoneReport:
    """Dephasing-relative Renyi monotone for alpha in [0, 2], closed form.

    right: (1/(alpha-1)) log2 Tr[rho^alpha (dephased)^{1-alpha}]
    left:  same with the arguments swapped. At alpha = 1 these become the
    corresponding relative entropies. For alpha >= 1 the left variant is +inf
    when the support of the dephased state exceeds the rank of rho. The
    one-state, one-alpha case of ``c_delta_alpha_values``.
    """
    value = float(c_delta_alpha_values((rho,), (alpha,), side)[0, 0])
    return MonotoneReport(f"c_delta_alpha[{float(alpha):g},{side}]", value, "closed_form")


def trace_norm_coherence_values(states) -> np.ndarray:
    """Trace norm of rho minus its dephased version, for each of states of one
    dimension, (K,): one stacked SVD."""
    return trace_norm(_off_diagonal(states))


def trace_norm_coherence(rho: DensityMatrix) -> MonotoneReport:
    """Trace norm of rho minus its dephased version."""
    value = float(trace_norm_coherence_values((rho,))[0])
    return MonotoneReport("trace_norm_coherence", value, "closed_form")


def _is_pure(rho: DensityMatrix) -> bool:
    # Tr rho^2 is the squared Frobenius norm of a Hermitian rho: O(d^2), no product
    return float(np.vdot(rho.mat, rho.mat).real) >= 1.0 - 1e-12


def _is_real_nonneg(rho: DensityMatrix) -> bool:
    return bool(
        np.max(np.abs(rho.mat.imag)) <= 1e-12 and np.min(rho.mat.real) >= -1e-12
    )


C_R_GAP = 1e-9


def _c_r_closed_form(rho: DensityMatrix):
    """C_R's closed form at rho, or None when none applies (see c_r). Each is
    the value at a rank-one dual optimum u u^H whose phases are known: u_i =
    psi_i / |psi_i| for a pure state psi, u = (1, conj(rho_01) / |rho_01|)
    for a qubit, and u = 1 for a real nonnegative state; ``_c_r_rank_one``
    looks for u where no formula gives it."""
    if _is_pure(rho):
        p = np.clip(np.diag(rho.mat).real, 0.0, None)
        return MonotoneReport("c_r", float(np.sum(np.sqrt(p)) ** 2 - 1.0), "closed_form")
    if rho.dim == 2:
        return MonotoneReport("c_r", 2.0 * abs(rho.mat[0, 1]), "closed_form")
    if _is_real_nonneg(rho):
        return MonotoneReport("c_r", c_l1(rho).value, "closed_form")
    return None


def _unit_phases(z: np.ndarray, out: np.ndarray) -> None:
    """Write z / |z| entrywise into out, whose entries stay where z is 0."""
    mod = np.abs(z)
    np.divide(z, mod, out=out, where=mod > 0.0)


def _c_r_rank_one(states) -> list:
    """C_R of states of one dimension n from a rank-one dual Y = u u^H,
    |u_i| = 1: one report per state it certifies, None for the others.

    Tr(rho Y) = f(u) = u^H rho u is maximized over the phases u = e^{i theta}
    for every state at once. The start is the phases of rho's top eigenvector
    (cached on the state), then two sweeps of exact coordinate ascent
    u_i <- phase(sum_{j != i} rho_ij u_j) (the mixing method of Wang, Chang &
    Kolter, arXiv:1706.00476), then plain Newton on theta_1..theta_{n-1}
    with theta_0 fixed: with M = diag(u)^H rho diag(u) and r its row sums the
    gradient is 2 Im r and the Hessian 2 (Re M - Diag(Re r)). The rows run in
    lockstep, each stopping after a step of at most 1e-6 in every phase or
    after 20 rounds; a singular Hessian stops a row where it is. Where a
    zero coordinate sum or a zero eigenvector entry leaves a phase undefined
    the old phase (or 1) stays.

    At any u, d_i = Re(conj(u_i) (rho u)_i) sums to u^H rho u, a dual value.
    d raised by a relative 1e-13 certifies a state when Diag(d) - rho passes
    a Cholesky factorization, which makes 1.d an upper bound, and
    1.d - Re(u^H rho u) <= C_R_GAP: the report is then value 1.d - 1,
    witness d and bound Re(u^H rho u) - 1, method "rank_one_dual". A zero
    row of rho has d_i = 0 and splits off Diag(d) - rho as a zero row, so
    the factorization reads 1 on its diagonal and factors the rest. A state
    whose optimal duals all have rank above one, or whose ascent stopped
    short of a maximum, fails the factorization and is left to the barrier.
    Every step is row by row, so a state's report is the same, bit for bit,
    in any batch.
    """
    n = states[0].dim
    mats, off = _stacked(states, lambda rho: rho.mat), _off_diagonal(states)
    u = np.ones((len(mats), n), dtype=complex)
    _unit_phases(_stacked(states, lambda rho: rho.spectrum.eigenvectors[:, -1]), u)
    for _ in range(2):
        for i in range(n):
            _unit_phases(np.vecdot(off[:, :, i], u), u[:, i])
    rows, active, sub = np.arange(len(u)), u, mats
    for _ in range(20):
        m = active.conj()[:, :, None] * sub * active[:, None, :]
        r = m.sum(axis=2)
        # A = Diag(Re r) - Re M is -Hessian / 2, so the Newton step is A^-1 Im r
        a = -m.real
        a.reshape(len(m), n * n)[:, :: n + 1] += r.real
        with np.errstate(invalid="ignore", over="ignore"):  # a singular A: no step
            step = _umath_linalg.solve1(a[:, 1:, 1:], r.imag[:, 1:])
        step = np.where(np.isfinite(step), step, 0.0)
        active[:, 1:] *= np.exp(1j * step)
        going = np.abs(step).max(axis=1) > 1e-6
        if not going.all():
            u[rows[~going]] = active[~going]
            rows, active, sub = rows[going], active[going], sub[going]
            if not len(rows):
                break
    u[rows] = active
    rho_u = (mats @ u[:, :, None])[:, :, 0]
    d = (u.conj() * rho_u).real * (1.0 + 1e-13)
    slack = -mats
    slack.reshape(len(mats), n * n)[:, :: n + 1] += d + ~mats.any(axis=2)
    with np.errstate(invalid="ignore"):  # a failed factorization gives NaN
        factors = _umath_linalg.cholesky_lo(slack)
    psd = np.isfinite(factors.reshape(len(mats), n * n)).all(axis=1).tolist()
    totals, duals = d.sum(axis=1).tolist(), np.vecdot(u, rho_u).real.tolist()
    return [
        MonotoneReport("c_r", total - 1.0, "rank_one_dual", witness=d_vec, bound=dual - 1.0)
        if ok and total - dual <= C_R_GAP
        else None
        for ok, total, dual, d_vec in zip(psd, totals, duals, d)
    ]


def _c_r_barrier(rho: DensityMatrix) -> MonotoneReport:
    """min{ 1.d : Diag(d) >= rho } on the log-det barrier kernel.

    The start d = (lambda_max + 1/n) 1 makes S = Diag(d) - rho positive
    definite, and the kernel keeps it so: every iterate d is primal feasible.
    Y = S^-1 rescaled to unit diagonal is a correlation matrix, so Tr(rho Y)
    is a dual lower bound (Napoli et al., PRL 116, 150502); the solve stops
    once 1.d - Tr(rho Y) <= C_R_GAP. Gradient t - diag S^-1, Hessian
    |S^-1|^2 entrywise, solved densely for the step; the kernel chooses t and
    lets it follow the certified gap, so a d = 3 solve takes about 11 Newton
    systems. Returns a barrier report, value 1.d - 1 with the majorant's
    diagonal d as witness and Tr(rho Y) - 1 as bound, or raises
    ArithmeticError.
    """
    n, mat = rho.dim, rho.mat

    def slack(y):
        return (np.diag(y) - mat,)

    def newton(s_inv, t):
        (s_inv,) = s_inv
        grad = t - s_inv.diagonal().real
        return grad, -solve_stack(np.abs(s_inv) ** 2, grad)

    def bound(y, s_inv):
        (s_inv,) = s_inv
        scale = 1.0 / np.sqrt(s_inv.diagonal().real)
        return float(np.vecdot((s_inv * np.outer(scale, scale)).ravel(), mat.ravel()).real)

    start = np.full(n, float(rho.spectrum.eigenvalues[-1]) + 1.0 / n)
    d_vec, dual = log_det_barrier(start, np.ones(n), slack, newton, bound, C_R_GAP)
    value = float(np.sum(d_vec) - 1.0)
    return MonotoneReport("c_r", value, "barrier", witness=d_vec, bound=dual - 1.0)


def c_r_many(states, method: str = "auto") -> list:
    """C_R of every state, one report per state, in order (see c_r).

    Each state takes c_r's closed form where one applies; the rest are
    grouped by dimension, each group one batch of the rank-one dual kernel,
    whose rows keep their own iterations, so a state's report does not
    depend on the states it was solved with. Each state that kernel refuses
    is solved on its own by the barrier. method="cutting_plane" sends every
    state to the barrier.
    """
    if method not in ("auto", "cutting_plane"):
        raise ValueError("method must be 'auto' or 'cutting_plane'")
    states = list(states)
    reports = [_c_r_closed_form(rho) if method == "auto" else None for rho in states]
    if method == "auto":
        left = [k for k, report in enumerate(reports) if report is None]
        for k, report in _per_dimension(_c_r_rank_one, states, left).items():
            reports[k] = report
    return [_c_r_barrier(rho) if report is None else report for rho, report in zip(states, reports)]


def c_r(rho: DensityMatrix, method: str = "auto") -> MonotoneReport:
    """Robustness of coherence.

    Closed forms: pure states give (sum sqrt p)^2 - 1, qubits give 2r, and
    entrywise-nonnegative real states give the l1 value. Anything else is
    first tried with a rank-one dual u u^H (method "rank_one_dual", see
    ``_c_r_rank_one``), and a state that fails its Cholesky certificate, or
    any state with method='cutting_plane' (kept as the name that forces the
    solver), runs the log-det barrier solver (method "barrier"). Either
    answer is within C_R_GAP = 1e-9 of a dual lower bound, or the call raises
    ArithmeticError. The witness is then a diagonal majorant's diagonal d,
    and the report's bound is the dual value Tr(rho Y) - 1 that certifies it.
    This is the one-state case of c_r_many.
    """
    return c_r_many((rho,), method)[0]


def _norms(vecs: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v) of each row v of a complex stack vecs (K, n), bit for bit."""
    return np.sqrt(np.vecdot(vecs.real, vecs.real) + np.vecdot(vecs.imag, vecs.imag))


def c_delta_r_values(states) -> tuple:
    """Dephasing robustness of each of states of one dimension d, and the
    witnesses: ((K,) values, (K, d) ratio vectors); see c_delta_r.

    A state's core D^{-1/2} rho D^{-1/2} lives on the support of its dephased
    state D: its rows with a diagonal entry above 1e-12, or above 0 and an
    entry above 1e-10 (PSD allows sqrt(rho_xx rho_yy) there). The states are
    grouped by support size, and each group's cores are one stacked
    eigendecomposition. Raises ValueError, for all the states, if a row with
    a diagonal entry <= 0 carries an entry above 1e-10: t is then unbounded.
    """
    mats = _stacked(states, lambda rho: rho.mat)
    diag = mats.diagonal(0, 1, 2).real
    keep = diag > 1e-12
    if not keep.all():
        heavy = np.abs(mats).max(axis=2) > 1e-10
        if np.any(heavy & (diag <= 0.0)):
            raise ValueError("zero-diagonal row carries off-diagonal weight")
        keep |= heavy
    values = np.empty(len(mats))
    witnesses = np.zeros(diag.shape, dtype=complex)
    sizes = keep.sum(axis=1)
    for size in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == size)
        idx = np.nonzero(keep[rows])[1].reshape(len(rows), size)
        sub = mats[rows[:, None, None], idx[:, :, None], idx[:, None, :]]
        scale = 1.0 / np.sqrt(diag[rows[:, None], idx])
        dec = eig_hermitian(sub * (scale[:, :, None] * scale[:, None, :]))
        top = dec.eigenvectors[:, :, -1] * scale
        witnesses[rows[:, None], idx] = top / _norms(top)[:, None]
        values[rows] = np.maximum(dec.eigenvalues[:, -1] - 1.0, 0.0)
    return values, witnesses


def c_delta_r(rho: DensityMatrix) -> MonotoneReport:
    """Dephasing robustness: the least t with (1+t) * dephased - rho PSD.

    Computed as lambda_max(D^{-1/2} rho D^{-1/2}) - 1 on the support of the
    dephased state D; the witness is the maximizing ratio vector. The
    one-state case of ``c_delta_r_values``.
    """
    values, witnesses = c_delta_r_values((rho,))
    return MonotoneReport("c_delta_r", float(values[0]), "eigenvalue", witness=witnesses[0])


def log_robustness_of(base: MonotoneReport) -> MonotoneReport:
    """The r_d report of a c_delta_r report: log2(1 + its value), its method
    and its witness."""
    return MonotoneReport("r_d", math.log2(1.0 + base.value), base.method, witness=base.witness)


def log_robustness_dephasing(rho: DensityMatrix) -> MonotoneReport:
    """log2(1 + dephasing robustness); between 0 and log2 d."""
    return log_robustness_of(c_delta_r(rho))


def _secular_root(p: np.ndarray) -> float:
    """The top eigenvalue of psi psi^H - Diag p, p = |psi|^2: 0.0 when fewer
    than two entries of p are positive, else its one positive eigenvalue.

    That is the root of f(lambda) = sum_{p_i > 0} p_i / (lambda + p_i) - 1,
    which falls and is convex for lambda > 0, so Newton from below rises to
    it monotonically. Both starts are lower bounds: sum(p) - max p, at which
    f >= 0, and sqrt(p_1 p_2) of the two largest entries, the top eigenvalue
    of their 2 x 2 principal submatrix (Cauchy interlacing). The iteration
    stops at the first iterate that does not rise.
    """
    q = p[p > 0.0]
    if q.size < 2:
        return 0.0
    second, first = np.sqrt(np.partition(q, -2)[-2:])
    lam = max(float(q.sum() - q.max()), float(first * second))
    while True:
        ratio = q / (lam + q)
        rise = lam + (ratio.sum() - 1.0) / (ratio / (lam + q)).sum()
        if not rise > lam:
            return lam
        lam = float(rise)


def _pure_reports(psi: PureStateVector) -> dict:
    """{name: report maker} for every measure with a pure-state form, each
    read off p = |psi|^2 in O(d), with no d x d matrix: the maker takes the
    measure's parameters after the state, as the measure of that name does.

    c_rel is H(p), entries <= 1e-15 counting as 0 (``_entropies``); c_l1 and
    c_r are (sum sqrt p)^2 - 1, and C_R's certificate is the diagonal
    majorant d_i = sqrt(p_i) sum_j sqrt(p_j), which meets the value, so its
    bound is the value; c_delta_r is s - 1 on the support of size s that
    ``c_delta_r_values`` keeps (p_i > 1e-12, or |psi_i| max|psi| > 1e-10),
    where the ratio vector 1 / conj(psi_i) is the witness; the trace norm is
    twice ``_secular_root``, since psi psi^H - Diag p has trace 0 and one
    positive eigenvalue; c_alpha is alpha / (alpha - 1) log2 sum p^(1/alpha),
    -log2 max p at alpha = 0 and c_rel at alpha = 1 (``_c_alpha_rows``).
    """
    amps = psi.amps
    p = (amps * amps.conj()).real  # the diagonal of psi.mat, bit for bit
    roots = np.sqrt(p)
    l1 = float(roots.sum() ** 2 - 1.0)
    rel = _shannon(p)

    def c_delta_r_report():
        mod = np.abs(amps)
        keep = (p > 1e-12) | (mod * mod.max() > 1e-10)
        witness = np.zeros(amps.shape, dtype=complex)
        witness[keep] = amps[keep] / p[keep]
        witness /= np.linalg.norm(witness)
        return MonotoneReport("c_delta_r", float(keep.sum() - 1), "closed_form", witness=witness)

    def c_alpha_report(alpha):
        value = float(_c_alpha_rows(_alpha_grid((alpha,)), p[None, :, None], [rel])[0, 0])
        return MonotoneReport(f"c_alpha[{float(alpha):g}]", value, "closed_form")

    return {
        "c_rel": lambda: MonotoneReport("c_rel", rel, "closed_form"),
        "c_l1": lambda: MonotoneReport("c_l1", l1, "closed_form"),
        "c_r": lambda: MonotoneReport(
            "c_r", l1, "closed_form", witness=roots * roots.sum(), bound=l1
        ),
        "c_delta_r": c_delta_r_report,
        "trace_norm_coherence": lambda: MonotoneReport(
            "trace_norm_coherence", 2.0 * _secular_root(p), "closed_form"
        ),
        "c_alpha": c_alpha_report,
    }


TRACE_DISTANCE_GAP = 1e-6


def _incoherent_bound(rho: DensityMatrix, h: np.ndarray):
    """(Tr(rho W) - max_i W_ii, eigenvalues of h) for W = sign(h), Hermitian h.

    For any ||W|| <= 1 the first entry is a lower bound on ||rho - sigma||_1
    over every incoherent state sigma (Rana, Parashar & Lewenstein, PRA 93,
    012110); this W attains ||h||_1 = sum |eigenvalues|.
    """
    vals, vecs = np.linalg.eigh(h)
    w = (vecs * np.sign(vals)) @ vecs.conj().T
    return float(np.vdot(w, rho.mat).real) - float(np.max(w.diagonal().real)), vals


def _incoherent_trace_distance(rho: DensityMatrix):
    """min_q ||rho - Diag q||_1 over the simplex, on the log-det barrier kernel,
    in its dual form: max Tr(rho W) - s s.t. I - W >= 0, I + W >= 0 and
    s - W_ii >= 0 (Rana, Parashar & Lewenstein, PRA 93, 012110).

    y holds the real and imaginary parts of W's entries, then s; damped Newton
    is affine invariant, so these redundant coordinates are fine while each
    step, built as (X + X^H)/2, is exactly Hermitian. The start W = 0, s = 1 is
    strictly feasible, and every iterate is dual feasible, so
    Tr(rho W) - max_i W_ii is a certified bound. The multipliers
    q ~ r = 1/(s - W_ii), normalized, lie in the simplex; ||rho - Diag q||_1 is
    the value.

    The Newton step costs O(d^4). A1, A2 = (I -+ W)^-1 share the eigenbasis U
    of A1 - A2, in which the W-block X -> A1 X A1 + A2 X A2 of the Hessian is
    the entrywise product with M = a a^T + b b^T (a, b the Rayleigh quotients
    of A1, A2), so L^-1(Y) = U((U^H Y U) / M) U^H. With D = diag(r^2),
    K = P diag(1/M) P^H and P[j, ab] = U_ja conj(U_jb), the couplings through
    s - W_ii leave [[D^-1 + K, 1], [1^T, 0]] [w; ds] = [-diag L^-1(G); t - sum r],
    and dW = -L^-1(G + Diag w) with its diagonal set to w / D + ds, its exact
    value, as the rounded one leaves the domain near t ~ 1e9. Returns
    (value, bound, q), with value - bound <= TRACE_DISTANCE_GAP, or raises
    ArithmeticError.
    """
    mat = rho.mat
    d = rho.dim
    cost = np.append(-mat.view(float).ravel(), 1.0)

    def w_of(y):
        return y[:-1].view(complex).reshape(d, d)

    def slack(y):
        w = w_of(y)
        return np.eye(d) - w, np.eye(d) + w, np.diag(y[-1] - w.diagonal().real)

    def simplex_point(y):
        r = 1.0 / (y[-1] - w_of(y).diagonal().real)
        return r / r.sum()

    def newton(s_inv, t):
        a1, a2, a3 = s_inv
        r = a3.diagonal().real
        grad_w = a1 - a2 - t * mat
        grad_w.flat[:: d + 1] += r
        u = np.linalg.eigh(a1 - a2)[1]
        u_h = u.conj().T
        a, b = (np.sum(u.conj() * (a_k @ u), axis=0).real for a_k in (a1, a2))
        m = np.outer(a, a) + np.outer(b, b)

        def l_inv(y):
            return u @ ((u_h @ y @ u) / m) @ u_h

        p = (u[:, :, None] * u.conj()[:, None, :]).reshape(d, d * d)
        schur = np.ones((d + 1, d + 1))
        schur[:d, :d] = ((p / m.ravel()) @ p.conj().T).real + np.diag(1.0 / r**2)
        schur[d, d] = 0.0
        l_grad, grad_s = l_inv(grad_w), t - np.sum(r)
        sol = np.linalg.solve(schur, np.append(-l_grad.diagonal().real, grad_s))
        x = -(l_grad + l_inv(np.diag(sol[:d])))
        step_w = (x + x.conj().T) / 2.0
        step_w.flat[:: d + 1] = sol[:d] / r**2 + sol[d]
        grad = np.append(grad_w.view(float).ravel(), grad_s)
        return grad, np.append(step_w.view(float).ravel(), sol[d])

    def bound(y, s_inv):
        return -trace_norm(mat - np.diag(simplex_point(y)))

    y = np.append(np.zeros(2 * d * d), 1.0)
    y, value = log_det_barrier(y, cost, slack, newton, bound, TRACE_DISTANCE_GAP)
    w = w_of(y)
    low = float(np.vdot(w, mat).real) - float(np.max(w.diagonal().real))
    return -float(value), low, simplex_point(y)


def monotone_from_divergence(
    rho: DensityMatrix, reference_set: str = "dephased_singleton"
) -> MonotoneReport:
    """Trace-distance monotone to a reference set.

    dephased_singleton: the exact trace-norm distance to the dephased state.
    incoherent_set: min over diagonal states sigma of ||rho - sigma||_1. The
    dephased state is taken in closed form, with bound = value, when
    W = sign(rho - dephased) certifies it within 1e-12 (every qubit and every
    incoherent state). Otherwise the log-det barrier kernel solves the
    semidefinite program; the report's bound is the certified lower bound
    Tr(rho W) - max_i W_ii, within 1e-6 of the value, or the call raises
    ArithmeticError. The witness is the diagonal q of the nearest incoherent
    state found.
    """
    if reference_set == "dephased_singleton":
        return MonotoneReport(
            "div[trace_distance,dephased_singleton]",
            trace_norm_coherence(rho).value,
            "closed_form",
        )
    if reference_set != "incoherent_set":
        raise ValueError(f"unsupported reference set {reference_set!r}")
    name = "div[trace_distance,incoherent_set]"
    q = np.diag(rho.mat).real.copy()
    low, vals = _incoherent_bound(rho, rho.mat - np.diag(q))
    value = float(np.sum(np.abs(vals)))
    if value - low <= 1e-12:
        return MonotoneReport(name, value, "closed_form", witness=q, bound=value)
    value, low, q = _incoherent_trace_distance(rho)
    return MonotoneReport(name, value, "barrier", witness=q, bound=low)


def distillation_rate_pure(psi: PureStateVector) -> float:
    """Shannon entropy (bits) of the squared amplitudes."""
    return renyi(psi.probs, 1.0)


def dilution_ratio(psi: PureStateVector, phi: PureStateVector) -> float:
    """Entropy ratio of the two squared-amplitude distributions."""
    denom = distillation_rate_pure(phi)
    if denom <= 1e-12:
        raise ValueError("target state is incoherent (zero entropy)")
    return distillation_rate_pure(psi) / denom
