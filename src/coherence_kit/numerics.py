"""Dense complex linear algebra, a log-det barrier kernel that solves one
problem at a time, a small simplex LP, and Birkhoff decomposition.

Matrices are plain numpy arrays (complex128, row-major). ``eig_hermitian``
and ``trace_norm`` take one matrix or a stack (K, n, n), factorized in one
LAPACK call whose rows carry the bits of their one-matrix calls. Everything
here is a pure function of its inputs; nothing mutates its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.linalg import _umath_linalg

HERMITIAN_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


class InfeasibleError(ValueError):
    """The linear program has an empty feasible region."""


class UnboundedError(ValueError):
    """The linear program objective is unbounded below."""


# Every evaluation of the barrier factors and inverts each block, and C_R's
# Newton hook solves one system more. numpy.linalg's functions check shapes,
# promote types and enter an errstate context in Python on every call, which
# on a 3 x 3 block costs several times what LAPACK does: 4.0 against 1.0 us for
# cholesky and 7.9 against 1.5 us for inv (numpy 2.4, one BLAS thread, a
# virtual Xeon core). The barrier, on its problem's blocks, and eig_hermitian
# and trace_norm, on their complex128 stacks, call the gufuncs behind them
# instead, under the error state numpy.linalg sets, so the bits are the same
# and a failed factorization raises LinAlgError as there. eig_hermitian's
# checks cost more again (25 us a call at n = 3 or 4, against 3 to 5 us of
# LAPACK), so callers with many states validate them as one stack per
# dimension (``states._density_stack``: a harness monotonicity run of any size
# validates its states in four calls), and the qubit MIO sampler's projection
# steps, whose matrices are exactly Hermitian, call eigh_lo themselves
# (``channels.sample_mio_qubit_channel``). C_R's rank-one kernel
# (``monotones._c_r_rank_one``) calls solve1 and cholesky_lo with invalid
# values ignored instead: a failed row comes back as NaN and is refused, so
# it neither warns nor stops the other rows of its batch.
def _lapack_errstate(message: str) -> dict:
    """numpy.linalg's error state around a LAPACK gufunc, raising
    LinAlgError(message) where LAPACK reports a failure."""

    def failed(err, flag):
        raise np.linalg.LinAlgError(message)

    return {
        "call": failed,
        "invalid": "call",
        "over": "ignore",
        "divide": "ignore",
        "under": "ignore",
    }


_LAPACK_ERRSTATE = _lapack_errstate("singular or not positive definite")
_EIGH_ERRSTATE = _lapack_errstate("Eigenvalues did not converge")
_SVD_ERRSTATE = _lapack_errstate("SVD did not converge")


def _as_square_matrix(mat) -> np.ndarray:
    """mat as a complex (n, n) array or (K, n, n) stack."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a complex stack (K, n, n)."""
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.vecdot(flat, flat).real)


def _same(a, b) -> bool:
    """Exact equality of two field values: arrays entry by entry (shape
    included), tuples item by item, anything else by ``==``."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return bool(a == b)


class _ExactEquality:
    """Equality of frozen dataclasses that hold arrays, for classes declared
    with ``eq=False``: instances compare equal only to instances of the same
    class whose compared fields are all the same (``_same``). Like numpy
    arrays they are unhashable."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class EigenDecomposition(_ExactEquality):
    """Ascending real eigenvalues and column-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(mat) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (K, n, n).

    Each matrix must be Hermitian within ``HERMITIAN_TOL`` (relative to its
    Frobenius norm); it is symmetrized before factorization. Eigenvalues come
    back ascending, eigenvectors as orthonormal columns, with the stack's
    leading axis where there is one. LAPACK is called through the gufunc
    behind np.linalg.eigh (see ``_lapack_errstate``), so each matrix gets
    np.linalg.eigh's bits, alone or in a stack. Each matrix is checked on its
    own, and one that fails the Hermiticity check (ValueError) or whose
    reconstruction residual exceeds ``RECONSTRUCTION_TOL`` (ArithmeticError)
    fails the whole stack.
    """
    m = _as_square_matrix(mat)
    stack = m if m.ndim == 3 else m[None]
    adjoint = stack.conj().swapaxes(1, 2)
    scale = np.maximum(1.0, _frobenius(stack))
    if max((_frobenius(stack - adjoint) / scale).tolist()) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    with np.errstate(**_EIGH_ERRSTATE):
        vals, vecs = _umath_linalg.eigh_lo((stack + adjoint) / 2.0)
    residual = _frobenius(stack - (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(1, 2))
    if max((residual / scale).tolist()) > RECONSTRUCTION_TOL:
        raise ArithmeticError(f"eigendecomposition residual {residual.max():.3e} too large")
    if m.ndim == 2:
        return EigenDecomposition(vals[0], vecs[0])
    return EigenDecomposition(vals, vecs)


def psd_power_values(vals, alpha) -> np.ndarray:
    """Elementwise support-restricted power of the values of a PSD operator.

    ``vals`` are eigenvalues or the diagonal of a diagonal matrix. Values below
    1e-12 are treated as exact zeros and mapped to 0 for every alpha (so
    negative powers act as pseudo-inverse powers on the support); values below
    -1e-10 (scaled) are rejected. ``alpha`` broadcasts against ``vals``: a
    column of values against a row of exponents gives one column per exponent.
    """
    vals = np.asarray(vals, dtype=float)
    low = float(vals.min())
    if low < -1e-10 * max(1.0, -low, float(vals.max())):
        raise ValueError(f"matrix is not PSD: min eigenvalue {low:.3e}")
    zero = vals < 1e-12
    return np.where(zero, 0.0, np.power(np.where(zero, 1.0, vals), alpha))


def mat_power_psd(mat, alpha: float) -> np.ndarray:
    """Support-restricted power M^alpha of a PSD matrix (see psd_power_values)."""
    dec = eig_hermitian(mat)
    powered = psd_power_values(dec.eigenvalues, alpha)
    out = (dec.eigenvectors * powered) @ dec.eigenvectors.conj().T
    return (out + out.conj().T) / 2.0


def trace_norm(mat):
    """Sum of singular values (for Hermitian input: sum of |eigenvalues|) of a
    matrix, as a float, or of each matrix of a stack (K, n, n), as a (K,)
    array: one stacked SVD through the gufunc behind np.linalg.svd, each row's
    sum the bits of its own call's."""
    m = _as_square_matrix(mat)
    with np.errstate(**_SVD_ERRSTATE):
        total = _umath_linalg.svd(m).sum(axis=-1)
    return float(total) if m.ndim == 2 else total


# ---------------------------------------------------------------------------
# Log-det barrier: minimize cost.y subject to block-diagonal S(y) > 0.
# ---------------------------------------------------------------------------

def solve_stack(a, b) -> np.ndarray:
    """x with a x = b for a square system a (n, n) and right-hand side b
    (n,), or row by row for stacks (K, n, n) and (K, n), float64 or
    complex128: np.linalg.solve's LAPACK call without its per-call Python
    cost. Raises LinAlgError on a singular system."""
    with np.errstate(**_LAPACK_ERRSTATE):
        return _umath_linalg.solve1(a, b)


# After a damped step that leaves the gap open, t may be raised to at least
# BARRIER_MU * nu / gap, the t whose central point has 1 / BARRIER_MU of the
# certified gap. Chosen by measurement, with raises after near-path steps only:
# a d = 3 C_R solve took 25.0 / 23.0 / 19.9 / 18.9 Newton systems on average
# at mu = 4 / 8 / 16 / 32.
BARRIER_MU = 16.0
# A solve may raise t after at most BARRIER_FAR_PULLS steps taken far from the
# central path (decrement^2 > 1) before a growth of t or a raise after a
# near-path step renews its allowance. Chosen by measurement, mean Newton
# systems per C_R solve (cutting plane):
#   allowance                          0     2     3     4     6    10  no limit
#   random_density d = 3, seeds 0-59  19.9  12.4  12.2  11.2  11.2  10.1  10.1
#   random_density d = 8, seeds 0-59  24.3  18.2  17.2  16.9  16.3  16.5  33.1
#   random_pure d = 16, seeds 0-14    24.5  18.3  18.3  21.2  32.3  92.9  1831
# 4 is the smallest allowance at which d = 3, the monotonicity harness's size,
# takes 11.2, and no set above takes more than with no far raise. Far pulls
# change the path, and near C_R's optimum on low-rank states at d = 64 the
# rounding of S^-1 decides which paths close within 1e-9: with far pulls, 12
# of 40 rank-2 and 6 of 40 rank-3 such states ran out of rounds, against 7
# and 0 without. Those solves all grew t past BARRIER_MU * nu over the target
# gap, where in exact arithmetic the gap has closed, so a solve that does
# restarts from its start with far pulls off (see log_det_barrier).
BARRIER_FAR_PULLS = 4


def log_det_barrier(y, cost, slack, newton, bound, gap: float):
    """Certified damped-Newton log-det barrier for min cost.y s.t. S(y) > 0.

    ``y`` (m,) is a strictly feasible start and ``cost`` (m,) the objective;
    the hooks read the problem's data from their closures. ``slack(y)``
    returns the Hermitian blocks of S(y), each (n, n) and affine in y;
    ``newton(s_inv, t)`` takes the inverses of those blocks and the barrier
    parameter t, a Python float, and returns the gradient of
    f = t cost.y - log det S and the Newton step, -Hessian^-1 gradient, both
    (m,), which each client solves in its own structure; ``bound(y, s_inv)``
    returns, as a float, the objective of the other problem at a feasible
    point built from the iterate, so a certified lower bound on the optimum.

    Each iterate is evaluated once: every block of S(y) is factored by
    Cholesky, which checks that the start is strictly feasible and that
    rounding has not carried a step out of the domain, then inverted and
    bounded, and (y, bound) is final once cost.y - bound <= gap.
    The schedule of t is the kernel's own. It starts at nu / gap_0, where
    nu = sum of the block sizes is the barrier parameter and gap_0 the
    certified gap at the start, because on the central path the gap is nu / t
    (Boyd & Vandenberghe, Convex Optimization, 11.6.2; this start is the one
    11.3.1 proposes, and it is positive because the gap is certified). With
    lambda = sqrt(-grad.step) the Newton decrement, a centered iterate
    (lambda^2 <= 1e-8) makes t grow eightfold and asks ``newton`` again at
    the inverses it already has; any other takes the damped Newton
    step y <- y + step / (1 + lambda). f is self-concordant, so this step
    stays in the domain and lowers f by lambda - ln(1 + lambda) (Nesterov,
    Introductory Lectures on Convex Optimization, Thm 4.1.12); it needs no
    line search. After a step that leaves the gap open, t may follow the
    certified gap just evaluated: t <- max(t, BARRIER_MU * nu / gap), the
    update t = mu m / eta of the primal-dual method of 11.7 with the certified
    gap as eta. A step taken at lambda^2 <= 1 is near enough the central point
    for its gap to measure t, and always pulls t so. Far from the path
    (lambda^2 > 1) the gap says less about t: the solve pulls after at most
    BARRIER_FAR_PULLS far steps, each spending one of its allowance whether
    or not t rises, and a growth of t or a near-path pull renews it (the
    measurements behind the limit are at BARRIER_FAR_PULLS).

    In exact arithmetic t stays below BARRIER_MU * nu / ``gap``, ``gap``
    the target: a pull sets it from a certified gap still above the target,
    and a growth starts from a centered iterate, whose gap nu / t is still
    above it too. A growth past that bound therefore means
    rounding kept the certified gap open, and the path far pulls chose may not
    close at all; the solve then restarts from its start, with the start's
    evaluation and t kept from round 0 and far pulls off for the rest of the
    solve, so it follows, bit for bit, the path it takes when
    BARRIER_FAR_PULLS is 0.

    Returns (y, bound), the final iterate (m,) and its bound, a float.
    Raises ArithmeticError when a block of S is not numerically positive
    definite (as at an infeasible start), S^-1 or a hook's Newton system is
    numerically singular (a LinAlgError raised inside the hook), or 2400
    rounds (Newton systems solved, steps and growths of t alike, restarts
    included) leave the gap open.
    """

    def evaluate(y):
        blocks = slack(y)
        with np.errstate(**_LAPACK_ERRSTATE):
            for block in blocks:
                _umath_linalg.cholesky_lo(block)
            s_inv = tuple(_umath_linalg.inv(block) for block in blocks)
        low = bound(y, s_inv)
        return s_inv, low, float(np.add.reduce(cost * y) - low)

    y = np.array(y, dtype=float)
    try:
        s_inv, low, open_gap = evaluate(y)
        nu = sum(len(block) for block in s_inv)
        t = nu / open_gap if open_gap > gap else 0.0
        start = y, s_inv, low, t
        far = renew = BARRIER_FAR_PULLS  # renew: the allowance growths and near pulls restore
        rounds = 0
        while open_gap > gap:
            if rounds == 2400:
                raise ArithmeticError("barrier solver did not close the duality gap")
            rounds += 1
            grad, step = newton(s_inv, t)
            decrement = -float(np.vecdot(grad, step))
            if decrement <= 1e-8:
                t *= 8.0
                far = renew
                if renew and t > BARRIER_MU * nu / gap:
                    (y, s_inv, low, t), far, renew = start, 0, 0
                continue
            y = y + 1.0 / (1.0 + math.sqrt(decrement)) * step
            s_inv, low, open_gap = evaluate(y)
            if open_gap > gap and (decrement <= 1.0 or far):
                t = max(t, BARRIER_MU * nu / open_gap)
                far = renew if decrement <= 1.0 else far - 1
        return y, low
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"barrier step failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Linear programming: minimize c.d subject to a.d >= b per cut and d >= 0.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearProgram(_ExactEquality):
    """min objective.d  s.t.  a.d >= b for every (a, b) in cuts, d >= 0.

    The arrays are read-only copies: the caller keeps its own."""

    objective: np.ndarray
    cuts: tuple

    def __init__(self, objective, cuts):
        c = np.array(objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be a vector")
        c.setflags(write=False)
        normalized = []
        for a, b in cuts:
            av = np.array(a, dtype=float)
            if av.shape != c.shape:
                raise ValueError("cut coefficient length must match objective length")
            av.setflags(write=False)
            normalized.append((av, float(b)))
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "cuts", tuple(normalized))


_PIVOT_EPS = 1e-11


def _simplex(table: np.ndarray, basis: list, cost: np.ndarray, max_iter: int = 20000):
    """Bland-rule simplex on an equality-form tableau. Mutates table/basis."""
    n = table.shape[1] - 1
    basis_arr = np.asarray(basis)
    for _ in range(max_iter):
        reduced = cost - cost[basis_arr] @ table[:, :n]
        negative = np.nonzero(reduced < -_PIVOT_EPS)[0]
        if negative.size == 0:
            basis[:] = basis_arr.tolist()
            return
        entering = int(negative[0])  # Bland: lowest index enters
        col = table[:, entering]
        eligible = col > _PIVOT_EPS
        if not np.any(eligible):
            raise UnboundedError("objective is unbounded below")
        ratios = np.full(col.shape, np.inf)
        ratios[eligible] = table[eligible, -1] / col[eligible]
        best = np.min(ratios)
        # ties must be (near-)exact for Bland's anti-cycling rule to hold
        ties = np.nonzero(ratios <= best + 1e-15 * max(1.0, abs(best)))[0]
        leaving = int(ties[np.argmin(basis_arr[ties])])  # Bland tie-break
        table[leaving] /= table[leaving, entering]
        factors = col.copy()
        factors[leaving] = 0.0
        table -= np.outer(factors, table[leaving])
        basis_arr[leaving] = entering
    raise ArithmeticError("simplex iteration limit exceeded")


def solve_lp(lp: LinearProgram):
    """Solve the LP with a two-phase dense simplex (Bland's rule).

    Returns (d, value). Raises InfeasibleError / UnboundedError.
    """
    c = lp.objective
    n = c.size
    m = len(lp.cuts)
    if m == 0:
        if np.any(c < -_PIVOT_EPS):
            raise UnboundedError("objective is unbounded below")
        return np.zeros(n), 0.0

    A = np.array([a for a, _ in lp.cuts], dtype=float)
    b = np.array([bv for _, bv in lp.cuts], dtype=float)
    # a.d - s = b with surplus s >= 0, then flip rows to make rhs nonnegative.
    full = np.hstack([A, -np.eye(m)])
    neg = b < 0
    full[neg] *= -1.0
    b = np.abs(b)

    nvars = n + m
    table = np.hstack([full, np.eye(m), b[:, None]])
    basis = list(range(nvars, nvars + m))
    phase1 = np.concatenate([np.zeros(nvars), np.ones(m)])
    _simplex(table, basis, phase1)
    value1 = phase1[basis] @ table[:, -1]
    if value1 > 1e-8:
        raise InfeasibleError(f"phase-1 optimum {value1:.3e} > 0")

    # Drive any residual artificial variables out of the basis.
    keep = np.ones(table.shape[0], dtype=bool)
    for i in range(table.shape[0]):
        if basis[i] >= nvars:
            row = table[i, :nvars]
            j = next((k for k in range(nvars) if abs(row[k]) > 1e-9), None)
            if j is None:
                keep[i] = False
            else:
                pivot = table[i, j]
                table[i] /= pivot
                for r in range(table.shape[0]):
                    if r != i and abs(table[r, j]) > 1e-14:
                        table[r] -= table[r, j] * table[i]
                basis[i] = j
    table = np.hstack([table[keep][:, :nvars], table[keep][:, -1:]])
    basis = [bv for bv, k in zip(basis, keep) if k]

    phase2 = np.concatenate([c, np.zeros(m)])
    _simplex(table, basis, phase2)
    x = np.zeros(nvars)
    for i, bi in enumerate(basis):
        x[bi] = table[i, -1]
    d = x[:n]
    return d, float(c @ d)


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann decomposition of doubly stochastic matrices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BirkhoffDecomposition(_ExactEquality):
    """Convex combination sum_a weight_a * P(perm_a) of permutation matrices.

    ``terms`` is a tuple of (weight, perm) with perm an index map: the
    permutation matrix has a 1 at (i, perm[i]) for every row i.
    """

    dim: int
    terms: tuple

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        rows = np.arange(self.dim)
        for w, perm in self.terms:
            out[rows, perm] += w
        return out


def _augment(adj: np.ndarray, row: int, match_col: list, seen: list) -> bool:
    for col in range(adj.shape[1]):
        if adj[row, col] and not seen[col]:
            seen[col] = True
            if match_col[col] < 0 or _augment(adj, match_col[col], match_col, seen):
                match_col[col] = row
                return True
    return False


def _perfect_matching(adj: np.ndarray):
    """Row->column perfect matching of a boolean adjacency matrix, or None."""
    d = adj.shape[0]
    match_col = [-1] * d
    for row in range(d):
        if not _augment(adj, row, match_col, [False] * d):
            return None
    perm = np.empty(d, dtype=int)
    for col, row in enumerate(match_col):
        perm[row] = col
    return perm


def _bottleneck_matching(mat: np.ndarray):
    """Perfect matching maximizing the minimum selected entry."""
    values = np.unique(mat[mat > 0.0])
    lo, hi = 0, values.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        perm = _perfect_matching(mat >= values[mid])
        if perm is not None:
            best = perm
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def birkhoff_decompose(mat, tol: float = 1e-9) -> BirkhoffDecomposition:
    """Decompose a doubly stochastic matrix into a permutation mixture.

    Extraction removes, at every step, the permutation found by greedy
    maximum-bottleneck matching with weight equal to the minimum selected
    entry. Each step zeroes at least one entry, so the remainder drops to a
    lower-dimensional face of the Birkhoff polytope and the extraction stops
    after at most (d-1)^2 + 1 terms.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be square")
    d = m.shape[0]
    if np.min(m) < -tol:
        raise ValueError("negative entries")
    if np.max(np.abs(m.sum(axis=0) - 1.0)) > tol or np.max(np.abs(m.sum(axis=1) - 1.0)) > tol:
        raise ValueError("rows/columns must sum to 1")

    work = np.clip(m, 0.0, None)
    rows = np.arange(d)
    weights, perms = [], []
    while np.max(work) > 1e-12:
        perm = _bottleneck_matching(work)
        if perm is None:
            raise ArithmeticError("no perfect matching on remaining support")
        w = float(np.min(work[rows, perm]))
        weights.append(w)
        perms.append(perm)
        work[rows, perm] -= w
        np.clip(work, 0.0, None, out=work)

    return BirkhoffDecomposition(d, tuple((float(w), np.array(p)) for w, p in zip(weights, perms)))
