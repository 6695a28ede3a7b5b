"""Density matrices, pure states, dephasing maps, and related constructions.

The incoherent basis is always the computational/index basis of the stored
matrix; callers are responsible for any basis change. All values here are
immutable after construction.

Complex arrays leave and enter the program as JSON nestings of [re, im]
pairs. ``complex_to_json`` and ``complex_from_json`` are the one place that
builds or reads that form, for states, Kraus channels and witnesses alike.
``probability_vector`` is likewise the one test of a probability vector,
and ``_per_dimension`` the one place that groups items by dimension for a
stacked call: states for the monotone kernels and C_R, raw matrices for
``_density_stack``, which validates many states with one eigendecomposition
per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import EigenDecomposition, _ExactEquality, eig_hermitian

STATE_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-9  # sum slack of a distribution a caller types in
INCOHERENT_TOL = 1e-9


def complex_to_json(arr) -> list:
    """``arr`` as [re, im] float pairs, nested the way the array is."""
    a = np.asarray(arr, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def complex_from_json(pairs, shape) -> np.ndarray:
    """The complex array of the declared ``shape`` that ``pairs`` encodes.

    ``pairs`` must be a nesting of [re, im] number pairs whose lengths equal
    ``shape``; the declared lengths are compared, not coerced, so 2.0 matches
    2 but 2.7, "2" and true match nothing (true == 1 in Python, so a boolean
    length is rejected by name). The pairs are read bit for bit, -0.0
    included. Anything else raises ValueError.
    """
    if any(isinstance(n, bool) for n in shape):
        raise ValueError(f"a declared size must be a number, got {tuple(shape)}")
    arr = np.array(pairs)
    if arr.shape != (*shape, 2) or arr.dtype.kind not in "biuf":
        raise ValueError(
            f"expected [re, im] number pairs nested as {tuple(shape)}, "
            f"got an array of shape {arr.shape} and dtype {arr.dtype}"
        )
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def probability_vector(values, what: str, sum_tol: float = STATE_TOL) -> np.ndarray:
    """``values`` clipped at 0 as floats, once every entry is finite and at
    least -STATE_TOL and each row of the last axis sums to 1 within
    ``sum_tol``: STATE_TOL for vectors read off states, DISTRIBUTION_SUM_TOL
    for ones a caller types in. Else ``ValueError("invalid <what>: ...")``;
    both tests fail on NaN, and a NaN or infinite entry fails one of them."""
    p = np.asarray(values, dtype=float)
    low = p.min(initial=0.0)
    if not low >= -STATE_TOL:
        raise ValueError(f"invalid {what}: entries must be finite and nonnegative, got {low}")
    sums = p.sum(axis=-1)
    if not abs(sums - 1.0).max(initial=0.0) <= sum_tol:
        raise ValueError(f"invalid {what}: entries must sum to 1 within {sum_tol:g}, got {sums}")
    return np.maximum(p, 0.0)  # np.clip's bits, -0.0 included


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ExactEquality):
    """A d x d Hermitian, unit-trace, PSD operator.

    ``spectrum`` is the eigendecomposition that validated PSD-ness, kept so
    that measures need not factorize the state again. ``mat`` is stored
    exactly Hermitian, so ``eig_hermitian(mat)`` returns the same bits.
    ``spectrum`` takes no part in equality, which compares ``mat`` exactly,
    or in the repr.

    A state is validated as the one row of a stack (``_validated_stack``), so
    ``DensityMatrix(m)`` and m's row of any stack ``_density_stack`` builds
    carry the same bits and fail with the same error.
    """

    mat: np.ndarray
    spectrum: EigenDecomposition = field(compare=False, repr=False)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        mats, vals, vecs = _validated_stack(m[None])
        self._store(mats[0], vals[0], vecs[0])

    def _store(self, mat, eigenvalues, eigenvectors):
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "spectrum", EigenDecomposition(eigenvalues, eigenvectors))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, psi: "PureStateVector") -> "DensityMatrix":
        v = psi.amps
        return cls(np.outer(v, v.conj()))

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "mat": complex_to_json(self.mat)}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        d = payload["dim"]
        return cls(complex_from_json(payload["mat"], (d, d)))


def _validated_stack(stack: np.ndarray):
    """(mats, eigenvalues, eigenvectors), read-only, of a complex (K, d, d)
    stack of density matrices, from one ``eig_hermitian`` call.

    Each row must have finite entries and be Hermitian (both checked by
    ``eig_hermitian``), then have unit trace and no eigenvalue below
    -STATE_TOL; the real diagonal is summed as ``probability_vector`` sums a
    pure state's squared amplitudes. The first row that fails raises the
    ValueError it raises as the only row of a stack.
    """
    dec = eig_hermitian(stack)
    mats = (stack + stack.conj().swapaxes(1, 2)) / 2.0  # the bits eig_hermitian factorized
    traces = mats.diagonal(axis1=1, axis2=2).real.sum(axis=1)
    for k, (trace, low) in enumerate(zip(traces.tolist(), dec.eigenvalues[:, 0].tolist())):
        if abs(trace - 1.0) > STATE_TOL:
            raise ValueError(f"trace must be 1, got {traces[k]!r}")
        if low < -STATE_TOL:
            raise ValueError("density matrix is not positive semidefinite")
    return _freeze(mats), _freeze(dec.eigenvalues), _freeze(dec.eigenvectors)


def _per_dimension(kernel, items: list, rows, key=lambda item: item.dim) -> dict:
    """{k: the entry kernel gives items[k]} for k in rows, from one kernel
    call on each group of items that share a key: states group by their
    dimension, raw matrices (``key=np.shape``) by their shape. kernel maps
    one group to one entry (a row, a report or a state) per item, in order."""
    groups = {}
    for k in rows:
        groups.setdefault(key(items[k]), []).append(k)
    out = {}
    for ks in groups.values():
        out.update(zip(ks, kernel([items[k] for k in ks])))
    return out


def _density_stack(mats) -> list:
    """The DensityMatrix of each square matrix in ``mats``, validated with one
    ``_validated_stack`` call per dimension; row k carries the bits, and
    fails with the error, of ``DensityMatrix(mats[k])``."""

    def validate(group):
        for row in zip(*_validated_stack(np.array(group, dtype=complex))):
            rho = object.__new__(DensityMatrix)
            rho._store(*row)
            yield rho

    states = _per_dimension(validate, mats, range(len(mats)), np.shape)
    return [states[k] for k in range(len(mats))]


@dataclass(frozen=True, eq=False)
class PureStateVector(_ExactEquality):
    """Amplitudes in the incoherent basis whose squared moduli are a
    ``probability_vector``, so valid exactly when their density matrix is."""

    amps: np.ndarray

    def __init__(self, amps):
        v = np.array(amps, dtype=complex).ravel()  # a copy: the caller keeps amps
        with np.errstate(invalid="ignore", over="ignore"):  # the rule rejects a non-finite square
            probability_vector((v * v.conj()).real, "squared amplitudes of a state vector")
        object.__setattr__(self, "amps", _freeze(v))

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def probs(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    @property
    def mat(self) -> np.ndarray:
        """The density matrix, unvalidated and read-only: (o + o^H) / 2 of
        the outer product o, the bits ``to_density().mat`` holds."""
        o = np.outer(self.amps, self.amps.conj())
        return _freeze((o + o.conj().T) / 2.0)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "amps": complex_to_json(self.amps)}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PureStateVector":
        return cls(complex_from_json(payload["amps"], (payload["dim"],)))


@dataclass(frozen=True, eq=False)
class SchmidtVector(_ExactEquality):
    """Descending ``probability_vector`` (sum within STATE_TOL) of squared
    amplitudes in the incoherent basis, stored clipped at 0."""

    probs: np.ndarray

    def __init__(self, probs):
        p = probability_vector(np.ravel(probs), "Schmidt vector")
        if np.any(np.diff(p) > STATE_TOL):
            raise ValueError("invalid Schmidt vector: entries must be nonincreasing")
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def dim(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class QubitStandardForm(_ExactEquality):
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
    return DensityMatrix(_ginibre(d, seed))


def _ginibre(d: int, seed: int) -> np.ndarray:
    """The unvalidated matrix G G^dagger / Tr of ``random_density(d, seed)``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


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
