"""Feasibility and synthesis for channels covariant under all diagonal unitaries.

A channel commuting with every diagonal unitary has only two kinds of Kraus
operators: diagonal matrices and single-entry hops |x><x'|. Whether one state
can reach another under such channels reduces to positivity of a ratio matrix
built from the two states, and a feasible instance yields an explicit channel,
one stack of diagonal and hop operators checked by ``transforms._witness``.
Membership of a given channel is read off its action on matrix units in one
masked reduction (``is_n_covariant``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel
from .numerics import EigenDecomposition, _ExactEquality, eig_hermitian
from .states import DISTRIBUTION_SUM_TOL, DensityMatrix, _freeze, complex_to_json
from .states import probability_vector
from .transforms import InfeasibleTransformError, TransformDecision, _decide, _witness

PSD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class NQMatrix(_ExactEquality):
    """Hermitian ratio matrix with q_xx = min(sigma_xx/rho_xx, 1), q_xx' = sigma_xx'/rho_xx'."""

    q: np.ndarray


@dataclass(frozen=True, eq=False)
class NCovariantSpec(_ExactEquality):
    """Gram matrix H of diagonal-operator columns plus a column-stochastic R.

    R's columns are ``probability_vector``s and its diagonal equals H's;
    off-diagonal entries of R are the squared hop amplitudes. ``h`` and ``r``
    are stored as read-only copies. ``spectrum`` is the eigendecomposition of
    H that checked it PSD, kept for the factorization in
    ``channel_from_n_spec``; it takes no part in equality or the repr.
    """

    h: np.ndarray
    r: np.ndarray
    spectrum: EigenDecomposition = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._store(self.h, self.r, eig_hermitian(self.h))

    @classmethod
    def _from_factorized(cls, h: np.ndarray, r: np.ndarray, dec: EigenDecomposition):
        """The spec for an H the caller has just factorized into ``dec``."""
        spec = object.__new__(cls)
        spec._store(h, r, dec)
        return spec

    def _store(self, h, r, dec: EigenDecomposition):
        """Check h and r, with dec the eigendecomposition of h, and keep
        read-only copies of both and dec."""
        h, r = np.array(h), np.array(r)
        if dec.eigenvalues[0] < -PSD_TOL:
            raise ValueError("Gram matrix must be PSD")
        probability_vector(r.T, "transfer matrix columns", DISTRIBUTION_SUM_TOL)
        if np.max(np.abs(np.diag(r) - np.diag(h).real)) > 1e-10:
            raise ValueError("transfer diagonal must match the Gram diagonal")
        object.__setattr__(self, "h", _freeze(h))
        object.__setattr__(self, "r", _freeze(r))
        spectrum = EigenDecomposition(_freeze(dec.eigenvalues), _freeze(dec.eigenvectors))
        object.__setattr__(self, "spectrum", spectrum)


def n_q_matrix(rho: DensityMatrix, sigma: DensityMatrix) -> NQMatrix:
    """Build the ratio matrix; requires every off-diagonal of rho nonzero."""
    if rho.dim != sigma.dim:
        raise ValueError("states must share a dimension")
    d = rho.dim
    off = np.abs(rho.mat - np.diag(np.diag(rho.mat)))
    if d > 1 and np.min(off + np.eye(d)) <= 1e-12:
        raise ValueError("all off-diagonal entries of the source must be nonzero")
    diag = np.diag(rho.mat).real
    if np.min(diag) <= 0.0:
        raise ValueError("source diagonal entries must be strictly positive")
    q = sigma.mat / rho.mat
    np.fill_diagonal(q, np.minimum(np.diag(sigma.mat).real / diag, 1.0))
    q = (q + q.conj().T) / 2.0
    return NQMatrix(q=q)


def is_n_covariant(ch: KrausChannel, tol: float = PSD_TOL) -> bool:
    """Structural test: E(|x><x'|) sits on entry (x, x') alone for x != x',
    and E(|x><x|) is diagonal.

    One masked max over unit_actions G[y, w, x, z]: the allowed entries are
    x = z with y = w, and x != z with (y, w) = (x, z); they are zeroed and
    everything else must be at most tol.
    """
    if ch.din != ch.dout:
        raise ValueError("covariance test needs a square channel")
    g = ch.unit_actions()
    i = np.arange(ch.din)
    g[i[:, None], i[:, None], i, i] = 0.0
    g[i[:, None], i, i[:, None], i] = 0.0
    return bool(np.all(np.abs(g) <= tol))


def n_feasible(rho: DensityMatrix, sigma: DensityMatrix) -> TransformDecision:
    """Is sigma reachable from rho by a diagonal-unitary-covariant channel?"""
    return _decide(n_construct, rho, sigma)


def _northwest_corner(supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Column-stochastic C with demand = C @ supply, by the greedy corner rule."""
    rows, cols = demand.size, supply.size
    amounts = np.zeros((rows, cols))
    d_rem = demand.astype(float).copy()
    s_rem = supply.astype(float).copy()
    i = j = 0
    while i < rows and j < cols:
        move = min(d_rem[i], s_rem[j])
        amounts[i, j] = move
        d_rem[i] -= move
        s_rem[j] -= move
        if d_rem[i] <= 1e-15:
            i += 1
        if s_rem[j] <= 1e-15:
            j += 1
    return np.divide(amounts, supply, out=np.zeros_like(amounts), where=supply > 1e-15)


def n_covariant_spec(rho: DensityMatrix, sigma: DensityMatrix) -> NCovariantSpec:
    """Gram/transfer pair realizing a feasible transformation.

    Takes the ratio matrix itself as the Gram matrix of the diagonal
    operators, and routes the leftover population flow with a greedy
    transportation plan. Feasible exactly when the ratio matrix is PSD
    (lambda_min >= -PSD_TOL); otherwise the violation's ``certificate`` is the
    unit eigenvector v of lambda_min as [[re, im], ...], with v^H Q v = lhs < 0.

    Such a channel maps |x><x'| to a multiple of itself, so sigma_xx' is a
    multiple of rho_xx'. A target entry |sigma_xx'| > 1e-12 where
    |rho_xx'| <= 1e-12 is infeasible outright, and the violation names the
    first such ``entry`` [x, x'] with lhs = |sigma_xx'|. Where both entries
    are zero the ratio is free, and n_q_matrix raises ValueError.
    """
    d = rho.dim
    if sigma.dim == d:  # else n_q_matrix raises the dimension mismatch
        lost = (np.abs(rho.mat) <= 1e-12) & (np.abs(sigma.mat) > 1e-12)
        np.fill_diagonal(lost, False)
        if lost.any():
            x, z = (int(i) for i in np.argwhere(lost)[0])
            raise InfeasibleTransformError(
                "target coherence on an entry where the source has none",
                {
                    "monotone": "zero_source_entry",
                    "lhs": float(abs(sigma.mat[x, z])),
                    "rhs": 0.0,
                    "entry": [x, z],
                },
            )
    q = n_q_matrix(rho, sigma).q
    dec = eig_hermitian(q)
    lam_min = float(dec.eigenvalues[0])
    if lam_min < -PSD_TOL:
        raise InfeasibleTransformError(
            "ratio matrix is not PSD: transformation infeasible",
            {
                "monotone": "ratio_matrix_psd",
                "lhs": lam_min,
                "rhs": 0.0,
                "certificate": complex_to_json(dec.eigenvectors[:, 0]),
            },
        )

    rho_d = np.diag(rho.mat).real
    sig_d = np.diag(sigma.mat).real
    gains = sig_d >= rho_d - 1e-15
    up, down = np.flatnonzero(gains), np.flatnonzero(~gains)
    ratio = sig_d[down] / rho_d[down]
    r_mat = np.diag(gains.astype(float))
    r_mat[down, down] = ratio
    if down.size:
        c = _northwest_corner(rho_d[down] - sig_d[down], sig_d[up] - rho_d[up])
        r_mat[np.ix_(up, down)] = c * (1.0 - ratio)
    return NCovariantSpec._from_factorized(q, r_mat, dec)


def _n_spec_operators(spec: NCovariantSpec) -> np.ndarray:
    """Kraus stack realizing a Gram/transfer pair: a diagonal per eigenvalue
    of H above 1e-14, then hops per R[x, x'] above 1e-15, column by column."""
    d = spec.h.shape[0]
    dec = spec.spectrum
    vals = np.clip(dec.eigenvalues, 0.0, None)
    # F[k, x] = sqrt(lam_k) V[x, k] makes sum_k F[k,x] conj(F[k,z]) = H[x,z]
    factor = (np.sqrt(vals)[:, None]) * dec.eigenvectors.T
    hop_cols, hop_rows = np.nonzero((spec.r.T > 1e-15) & ~np.eye(d, dtype=bool))
    diagonals = factor[vals > 1e-14]
    n = len(diagonals)
    x = np.arange(d)
    ops = np.zeros((n + hop_rows.size, d, d), dtype=complex)
    ops[:n, x, x] = diagonals
    ops[n + np.arange(hop_rows.size), hop_rows, hop_cols] = np.sqrt(spec.r[hop_rows, hop_cols])
    return ops


def channel_from_n_spec(spec: NCovariantSpec) -> KrausChannel:
    """Kraus operators (diagonals plus hops) realizing a Gram/transfer pair."""
    return KrausChannel(_n_spec_operators(spec))


def n_construct(rho: DensityMatrix, sigma: DensityMatrix) -> KrausChannel:
    """Diagonal-unitary-covariant channel mapping rho to sigma."""
    return _witness(
        _n_spec_operators(n_covariant_spec(rho, sigma)),
        lambda c: is_n_covariant(c, tol=1e-7),
        "diagonal-unitary covariance",
        rho,
        sigma,
    )


def random_n_covariant_channel(d: int, rng: np.random.Generator | int) -> KrausChannel:
    """Random channel in diagonal-plus-hop form.

    Draws a Gram matrix with diagonal entries in [0, 1] for the diagonal
    operators and fills each column's leftover weight with hop operators.
    """
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gram = g.conj().T @ g
    scale = np.diag(gram).real
    lift = 1.0 / np.sqrt(scale)
    gram = gram * np.outer(lift, lift)  # unit diagonal
    shrink = 0.15 + 0.8 * rng.random(d)
    gram = gram * np.outer(np.sqrt(shrink), np.sqrt(shrink))
    r_mat = np.diag(shrink)
    for col in range(d):
        r_mat[np.arange(d) != col, col] = rng.dirichlet(np.ones(d - 1)) * (1.0 - shrink[col])
    return channel_from_n_spec(NCovariantSpec(h=gram, r=r_mat))


# ---------------------------------------------------------------------------
# The family Phi_t(rho) = (1+t) * dephased(rho) - rho and its CP threshold.
# ---------------------------------------------------------------------------


def phi_t(rho: DensityMatrix, t: float) -> np.ndarray:
    """Evaluate (1+t) * dephased(rho) - rho (not a state below threshold)."""
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    return (1.0 + t) * np.diag(np.diag(rho.mat)) - rho.mat


def is_phi_t_cp(d: int, t: float) -> bool:
    """PSD test (to PSD_TOL) of the map's Choi matrix (1+t) sum |jj><jj| - |Omega><Omega|."""
    diag_idx = np.arange(d) * d + np.arange(d)
    omega = np.zeros(d * d)
    omega[diag_idx] = 1.0
    j = -np.outer(omega, omega)
    j[diag_idx, diag_idx] += 1.0 + t
    return bool(eig_hermitian(j).eigenvalues[0] >= -PSD_TOL)


def phi_t_threshold(d: int) -> float:
    """Complete-positivity threshold of the family: d - 1."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return float(d - 1)
