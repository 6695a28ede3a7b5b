"""Dense complex linear algebra, a small simplex LP, and Birkhoff decomposition.

Matrices are plain numpy arrays (complex128, row-major). Everything here is a
pure function of its inputs; nothing mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


class InfeasibleError(ValueError):
    """The linear program has an empty feasible region."""


class UnboundedError(ValueError):
    """The linear program objective is unbounded below."""


def _as_square_matrix(mat, name: str = "matrix") -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending real eigenvalues and column-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(mat) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within ``HERMITIAN_TOL`` (relative to its
    Frobenius norm); it is symmetrized before factorization. Eigenvalues come
    back ascending, eigenvectors as orthonormal columns.
    """
    m = _as_square_matrix(mat)
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(m - m.conj().T) > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    residual = np.linalg.norm(m - (vecs * vals) @ vecs.conj().T)
    if residual > RECONSTRUCTION_TOL * scale:
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    return EigenDecomposition(vals, vecs)


def is_psd(mat, tol: float = 1e-10) -> bool:
    """True iff the Hermitian matrix has minimum eigenvalue >= -tol."""
    dec = eig_hermitian(mat)
    return bool(dec.eigenvalues[0] >= -tol)


def psd_power_values(vals, alpha: float) -> np.ndarray:
    """Elementwise support-restricted power of the values of a PSD operator.

    ``vals`` are eigenvalues or the diagonal of a diagonal matrix. Values below
    1e-12 are treated as exact zeros and mapped to 0 for every alpha (so
    negative powers act as pseudo-inverse powers on the support); values below
    -1e-10 (scaled) are rejected.
    """
    vals = np.asarray(vals, dtype=float)
    low = float(np.min(vals))
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    if low < -1e-10 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {low:.3e}")
    vals = np.clip(vals, 0.0, None)
    return np.where(vals < 1e-12, 0.0, np.power(np.where(vals < 1e-12, 1.0, vals), alpha))


def spectral_power(dec: EigenDecomposition, alpha: float) -> np.ndarray:
    """M^alpha from an eigendecomposition of the PSD matrix M (see psd_power_values)."""
    powered = psd_power_values(dec.eigenvalues, alpha)
    out = (dec.eigenvectors * powered) @ dec.eigenvectors.conj().T
    return (out + out.conj().T) / 2.0


def mat_power_psd(mat, alpha: float) -> np.ndarray:
    """Support-restricted power M^alpha of a PSD matrix.

    Factorizes ``mat`` and applies ``spectral_power``; callers holding a
    decomposition already (``DensityMatrix.spectrum``) call that directly.
    """
    return spectral_power(eig_hermitian(mat), alpha)


def trace_norm(mat) -> float:
    """Sum of singular values (for Hermitian input: sum of |eigenvalues|)."""
    m = _as_square_matrix(mat)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


# ---------------------------------------------------------------------------
# Linear programming: minimize c.d subject to a.d >= b per cut and d >= 0.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearProgram:
    """min objective.d  s.t.  a.d >= b for every (a, b) in cuts, d >= 0."""

    objective: np.ndarray
    cuts: tuple

    def __init__(self, objective, cuts):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be a vector")
        normalized = []
        for a, b in cuts:
            av = np.asarray(a, dtype=float)
            if av.shape != c.shape:
                raise ValueError("cut coefficient length must match objective length")
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


@dataclass(frozen=True)
class BirkhoffDecomposition:
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


def _caratheodory_compress(weights: list, perms: list, d: int):
    """Reduce a permutation mixture to at most (d-1)^2 + 1 terms."""
    limit = (d - 1) ** 2 + 1
    rows = np.arange(d)
    while len(weights) > limit:
        cols = []
        for perm in perms:
            p = np.zeros(d * d + 1)
            flat = np.zeros((d, d))
            flat[rows, perm] = 1.0
            p[: d * d] = flat.ravel()
            p[-1] = 1.0
            cols.append(p)
        mat = np.column_stack(cols)
        _, sing, vt = np.linalg.svd(mat)
        lam = vt[-1]
        if sing[-1] > 1e-9:
            break
        if np.max(lam) < np.max(-lam):
            lam = -lam
        ratios = [w / l for w, l in zip(weights, lam) if l > 1e-12]
        step = min(ratios)
        weights = [w - step * l for w, l in zip(weights, lam)]
        kept = [(w, p) for w, p in zip(weights, perms) if w > 1e-13]
        weights = [w for w, _ in kept]
        perms = [p for _, p in kept]
    return weights, perms


def birkhoff_decompose(mat, tol: float = 1e-9) -> BirkhoffDecomposition:
    """Decompose a doubly stochastic matrix into a permutation mixture.

    Extraction removes, at every step, the permutation found by greedy
    maximum-bottleneck matching with weight equal to the minimum selected
    entry; a Caratheodory pass then compresses to at most (d-1)^2 + 1 terms.
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

    weights, perms = _caratheodory_compress(weights, perms, d)
    return BirkhoffDecomposition(d, tuple((float(w), np.array(p)) for w, p in zip(weights, perms)))
