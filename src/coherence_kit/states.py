"""Density matrices, pure states, dephasing maps, and related constructions.

The incoherent basis is always the computational/index basis of the stored
matrix; callers are responsible for any basis change. All values here are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import EigenDecomposition, eig_hermitian

STATE_TOL = 1e-10
INCOHERENT_TOL = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d Hermitian, unit-trace, PSD operator.

    ``spectrum`` is the eigendecomposition that validated PSD-ness, kept so
    that measures need not factorize the state again. ``mat`` is stored
    exactly Hermitian, so ``eig_hermitian(mat)`` returns the same bits.
    ``spectrum`` takes no part in equality or the repr.
    """

    mat: np.ndarray
    spectrum: EigenDecomposition = field(compare=False, repr=False)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        if np.linalg.norm(m - m.conj().T) > STATE_TOL * max(1.0, np.linalg.norm(m)):
            raise ValueError("density matrix is not Hermitian within tolerance")
        m = (m + m.conj().T) / 2.0
        if abs(np.trace(m).real - 1.0) > STATE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(m).real!r}")
        dec = eig_hermitian(m)
        if dec.eigenvalues[0] < -STATE_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        object.__setattr__(self, "mat", _freeze(m))
        spectrum = EigenDecomposition(_freeze(dec.eigenvalues), _freeze(dec.eigenvectors))
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, psi: "PureStateVector") -> "DensityMatrix":
        v = psi.amps
        return cls(np.outer(v, v.conj()))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "mat": [[[float(z.real), float(z.imag)] for z in row] for row in self.mat],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        d = int(payload["dim"])
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in payload["mat"]], dtype=complex
        )
        if mat.shape != (d, d):
            raise ValueError(f"declared dim {d} does not match matrix shape {mat.shape}")
        return cls(mat)


@dataclass(frozen=True)
class PureStateVector:
    """A complex unit vector of amplitudes in the incoherent basis."""

    amps: np.ndarray

    def __init__(self, amps):
        v = np.asarray(amps, dtype=complex).ravel()
        if v.size < 1:
            raise ValueError("state vector must be nonempty")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector has non-finite entries")
        if abs(np.linalg.norm(v) - 1.0) > STATE_TOL:
            raise ValueError(f"state vector norm must be 1, got {np.linalg.norm(v)!r}")
        object.__setattr__(self, "amps", _freeze(v))

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def probs(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def to_density(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "amps": [[float(z.real), float(z.imag)] for z in self.amps]}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PureStateVector":
        d = int(payload["dim"])
        amps = np.array([complex(re, im) for re, im in payload["amps"]], dtype=complex)
        if amps.size != d:
            raise ValueError(f"declared dim {d} does not match amplitude count {amps.size}")
        return cls(amps)


@dataclass(frozen=True)
class SchmidtVector:
    """Descending vector of squared amplitudes in the incoherent basis."""

    probs: np.ndarray

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float).ravel()
        if np.min(p, initial=0.0) < -STATE_TOL:
            raise ValueError("negative entries")
        if abs(p.sum() - 1.0) > STATE_TOL:
            raise ValueError("entries must sum to 1")
        if np.any(np.diff(p) > STATE_TOL):
            raise ValueError("entries must be nonincreasing")
        object.__setattr__(self, "probs", _freeze(np.clip(p, 0.0, None)))

    @property
    def dim(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class QubitStandardForm:
    """(p, r) parameters plus the incoherent gauge reaching them.

    gauge @ rho @ gauge^dagger == [[p, r], [r, 1-p]] with p >= 1/2 and r >= 0.
    """

    p: float
    r: float
    gauge: np.ndarray


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Project the state onto its diagonal in the incoherent basis."""
    return DensityMatrix(np.diag(np.diag(rho.mat)))


def partial_dephase(rho: DensityMatrix, lam: float) -> DensityMatrix:
    """Convex mix (1-lam)*rho + lam*dephase(rho)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return DensityMatrix((1.0 - lam) * rho.mat + lam * np.diag(np.diag(rho.mat)))


def is_incoherent(rho: DensityMatrix, tol: float = INCOHERENT_TOL) -> bool:
    """True iff every off-diagonal modulus is at most tol."""
    off = rho.mat - np.diag(np.diag(rho.mat))
    return bool(np.max(np.abs(off), initial=0.0) <= tol)


def qubit_standard_form(rho: DensityMatrix) -> QubitStandardForm:
    """Bring a qubit state to [[p, r], [r, 1-p]] with p >= 1/2, r >= 0.

    The gauge is a permutation followed by a diagonal phase; for r = 0 the
    phase is the identity.
    """
    if rho.dim != 2:
        raise ValueError(f"qubit standard form needs dim 2, got {rho.dim}")
    gauge = np.eye(2, dtype=complex)
    work = rho.mat
    if work[0, 0].real < 0.5:
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        work = swap @ work @ swap
        gauge = swap @ gauge
    off = work[0, 1]
    if abs(off) > 1e-15:
        phase = np.diag([1.0, np.exp(1j * np.angle(off))]).astype(complex)
        work = phase @ work @ phase.conj().T
        gauge = phase @ gauge
    p = float(work[0, 0].real)
    r = float(work[0, 1].real)
    return QubitStandardForm(p=p, r=max(r, 0.0), gauge=_freeze(gauge))


def mc_embed(rho: DensityMatrix) -> DensityMatrix:
    """Place entry (x, y) of rho at position (xx, yy) of a d^2-level state.

    The embedding is entrywise, so it preserves the trace and all Frobenius
    inner products; diagonal states map to diagonal states.
    """
    d = rho.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d) * d + np.arange(d)
    out[np.ix_(idx, idx)] = rho.mat
    return DensityMatrix(out)


def schmidt_vector(psi: PureStateVector) -> SchmidtVector:
    """Squared amplitudes of the state, sorted descending."""
    return SchmidtVector(np.sort(psi.probs)[::-1])


def random_density(d: int, seed: int) -> DensityMatrix:
    """Ginibre sample: rho = G G^dagger / Tr, deterministic per seed."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(d: int, seed: int) -> PureStateVector:
    """Normalized complex Gaussian vector, deterministic per seed."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureStateVector(v / np.linalg.norm(v))


def state_from_json_dict(payload: dict):
    """Load either a density matrix ("mat") or a pure state ("amps")."""
    if "mat" in payload:
        return DensityMatrix.from_json_dict(payload)
    if "amps" in payload:
        return PureStateVector.from_json_dict(payload)
    raise ValueError("state payload needs a 'mat' or 'amps' field")
