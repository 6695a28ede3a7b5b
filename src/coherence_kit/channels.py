"""Kraus/Choi channel representations and incoherent-operation class predicates.

Class predicates for IO/SIO/sIO/PIO test the *given* Kraus representation
(those classes are defined by the existence of a representation, and deciding
existence in general is a search problem): each is an array reduction over
the stacked operators, built on one support pass that finds the row of each
column's single entry. MIO and DIO are properties of the channel itself and
read only the d^3 slices of its action on matrix units that they constrain.
``CLASS_PARENTS`` states the inclusions between the classes once, for
``classify`` and the harness's class suites (through ``class_chain``).
``qubit_mio_to_io`` is the one existence procedure offered, for channels
with a qubit input and any output dimension: a closed-form PSD test that
returns either an incoherent representation or an eigenvector certifying that
none exists. It reads its test matrix off the Choi matrix into one array,
finds the connected blocks of the coherence support by the boolean transitive
closure that ``is_sio_special_rep`` also uses, and writes every operator of
the representation into one stack by fancy indexing, with no loop over
entries. Its eigendecomposition and singular value decompositions, and the
PSD projections of the qubit MIO sampler, are ``numerics.eigh_factors`` and
``numerics.svd_factors``, each caller inside one ``raise_lapack_errors()``.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import EigenDecomposition, eig_hermitian, eigh_factors, raise_lapack_errors
from .numerics import svd_factors, trace_norm
from .states import DensityMatrix, _freeze, complex_from_json, complex_to_json, probability_vector

CPTP_TOL = 1e-9
PREDICATE_TOL = 1e-9
CHOI_ROUNDTRIP_TOL = 1e-8
IO_PSD_TOL = 1e-10


class NoIncoherentRepresentationError(ValueError):
    """The channel admits no Kraus representation made of incoherent operators.

    ``certificate``, when set, is a real vector v with v^T M v < 0 for the
    matrix M that every incoherent representation would make PSD.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class KrausChannel:
    """An ordered list of dout x din Kraus operators, held as ``kraus``, one
    read-only (n, dout, din) array.

    By default the operator sum is required to be trace preserving
    (sum K^dag K = I within CPTP_TOL, for decider witnesses too); pass
    require_tp=False for plain CP maps such as duals of channels.
    """

    def __init__(self, kraus, require_tp: bool = True):
        # a stack is copied as it is, any other iterable of operators stacked;
        # numpy raises ValueError itself on operators of unequal shape
        stack = np.array(kraus if isinstance(kraus, np.ndarray) else [*kraus], dtype=complex)
        if stack.shape[0] == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if stack.ndim != 3:
            raise ValueError("Kraus operators must be matrices")
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operator has non-finite entries")
        stack.setflags(write=False)
        self.kraus = stack
        self.dout, self.din = stack.shape[1:]
        self.require_tp = bool(require_tp)
        if require_tp:
            flat = stack.reshape(-1, self.din)
            defect = flat.conj().T @ flat
            defect.flat[:: self.din + 1] -= 1.0
            worst = np.abs(defect).max()
            if worst > CPTP_TOL:
                raise ValueError(f"Kraus operators are not trace preserving (defect {worst:.3e})")

    def __len__(self) -> int:
        return len(self.kraus)

    def unit_actions(self) -> np.ndarray:
        """Tensor G with G[y, y', x, x'] = <y| E(|x><x'|) |y'>, a view of the
        Choi matrix."""
        blocks = _choi_array(self).reshape(self.din, self.dout, self.din, self.dout)
        return blocks.transpose(1, 3, 0, 2)

    def to_json_dict(self) -> dict:
        return {"din": self.din, "dout": self.dout, "kraus": complex_to_json(self.kraus)}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "KrausChannel":
        kraus = payload["kraus"]
        return cls(complex_from_json(kraus, (len(kraus), payload["dout"], payload["din"])))


class ChoiMatrix:
    """Choi matrix J = sum_{jk} |j><k| (x) E(|j><k|) of a CPTP map.

    ``eig_hermitian`` checks J Hermitian; PSD and the partial trace are
    checked within CPTP_TOL. ``spectrum`` is the read-only eigendecomposition
    that validated complete positivity, kept so that ``channel_from_choi``
    need not factorize J again. ``mat`` is stored exactly Hermitian, so
    ``eig_hermitian(mat)`` returns the same bits.
    """

    def __init__(self, mat, din: int, dout: int):
        m = np.asarray(mat, dtype=complex)
        if m.shape != (din * dout, din * dout):
            raise ValueError(f"Choi matrix shape {m.shape} does not match ({din*dout},)*2")
        dec = eig_hermitian(m)
        if dec.eigenvalues[0] < -CPTP_TOL:
            raise ValueError("Choi matrix is not PSD: the map is not completely positive")
        m = (m + m.conj().T) / 2.0
        blocks = m.reshape(din, dout, din, dout)
        reduced = np.einsum("xyzy->xz", blocks)
        if np.max(np.abs(reduced - np.eye(din))) > CPTP_TOL:
            raise ValueError("partial trace over the output is not the identity")
        self.mat = _freeze(m)
        self.spectrum = EigenDecomposition(_freeze(dec.eigenvalues), _freeze(dec.eigenvectors))
        self.din = din
        self.dout = dout


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Evaluate sum_j K_j rho K_j^dag and validate the output state."""
    return DensityMatrix(_operator_sum(ch, rho))


def _operator_sum(ch: KrausChannel, rho: DensityMatrix) -> np.ndarray:
    """The unvalidated matrix of ``apply(ch, rho)``: sum_j K_j rho K_j^dag,
    symmetrized and, for a channel built with require_tp, scaled to unit
    trace. A map that is not trace preserving keeps the trace it gives."""
    if rho.dim != ch.din:
        raise ValueError(f"state dim {rho.dim} does not match channel input dim {ch.din}")
    s = ch.kraus
    out = np.sum(s @ rho.mat @ s.conj().transpose(0, 2, 1), axis=0)
    out = (out + out.conj().T) / 2.0
    return out / np.trace(out).real if ch.require_tp else out


def _choi_array(ch: KrausChannel) -> np.ndarray:
    """J[(x, y), (x', y')] = <y| E(|x><x'|) |y'> as one product F^T conj(F),
    with row j of F the operator K_j flattened column by column."""
    f = ch.kraus.transpose(0, 2, 1).reshape(len(ch), ch.din * ch.dout)
    return f.T @ f.conj()


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi matrix of a CPTP channel."""
    return ChoiMatrix(_choi_array(ch), ch.din, ch.dout)


def channel_from_choi(j: ChoiMatrix) -> KrausChannel:
    """Kraus operators from the eigendecomposition of a Choi matrix, the one
    that validated it (``j.spectrum``).

    The rank is the number of eigenvalues above 1e-10; each operator's global
    phase is fixed by making its largest-modulus entry real positive.
    """
    dec = j.spectrum
    ops = []
    for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
        if lam <= 1e-10:
            continue
        k = np.sqrt(lam) * vec.reshape(j.din, j.dout).T
        pivot = k.flat[int(np.argmax(np.abs(k)))]
        if abs(pivot) > 0:
            k = k * (pivot.conjugate() / abs(pivot))
        ops.append(k)
    if not ops:
        raise ValueError("Choi matrix has no eigenvalue above threshold")
    return KrausChannel(ops)


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Frobenius distance between the Choi matrices of two maps."""
    if (a.din, a.dout) != (b.din, b.dout):
        raise ValueError("channel dimensions differ")
    return float(np.linalg.norm(_choi_array(a) - _choi_array(b)))


# ---------------------------------------------------------------------------
# Class membership predicates: array reductions over the stacked operators.
# ---------------------------------------------------------------------------

# Incoherent classes, smallest first -> the classes directly containing them
# (PIO in SIO in sIO in IO in MIO, SIO in DIO in MIO); is_<c> tests class c.
CLASS_PARENTS = {
    "pio_rep": ("sio_rep",),
    "sio_rep": ("sio_special_rep", "dio"),
    "sio_special_rep": ("io_rep",),
    "io_rep": ("mio",),
    "dio": ("mio",),
    "mio": (),
}


def _known_class(klass: str) -> str:
    """``klass``, if it names a class of CLASS_PARENTS; ValueError if not."""
    if klass not in CLASS_PARENTS:
        raise ValueError(f"unknown class {klass!r}; the classes are {', '.join(CLASS_PARENTS)}")
    return klass


def class_chain(klass: str) -> tuple:
    """``klass`` and every class that contains it, smallest first."""
    members = {_known_class(klass)}
    for c, parents in CLASS_PARENTS.items():  # children come before parents
        if c in members:
            members.update(parents)
    return tuple(c for c in CLASS_PARENTS if c in members)


def in_class(ch: KrausChannel, klass: str, tol: float = PREDICATE_TOL) -> bool:
    """``is_<klass>(ch, tol)``; ValueError where that test is not defined."""
    return globals()[f"is_{_known_class(klass)}"](ch, tol)


def is_mio(ch: KrausChannel, tol: float = PREDICATE_TOL) -> bool:
    """True iff every incoherent basis state maps to a diagonal state.

    Reads only the d^3 entries <y|E(|x><x|)|w>, not the full unit_actions.
    """
    s = ch.kraus
    images = np.einsum("jyx,jwx->ywx", s, s.conj())
    images[np.arange(ch.dout), np.arange(ch.dout)] = 0.0
    return bool(np.all(np.abs(images) <= tol))


def is_dio(ch: KrausChannel, tol: float = PREDICATE_TOL) -> bool:
    """True iff E(|x><x|) is diagonal and diag(E(|x><x'|)) = 0 for x != x'.

    Besides the MIO slice, reads only the d^3 entries <y|E(|x><x'|)|y>.
    """
    if not is_mio(ch, tol):
        return False
    s = ch.kraus
    diagonals = np.einsum("jyx,jyz->yxz", s, s.conj())
    diagonals[:, np.arange(ch.din), np.arange(ch.din)] = 0.0
    return bool(np.all(np.abs(diagonals) <= tol))


def is_covariant_under_dephasing(ch: KrausChannel, tol: float = PREDICATE_TOL) -> bool:
    """Trace-norm check that the channel commutes with full dephasing.

    Linearity makes matrix units a spanning set, so this agrees with is_dio.
    """
    g = ch.unit_actions()
    for x in range(ch.din):
        for z in range(ch.din):
            block = g[:, :, x, z]
            dephased_in = block if x == z else np.zeros_like(block)
            if trace_norm(np.diag(np.diag(block)) - dephased_in) > tol:
                return False
    return True


def _entry_rows(ch: KrausChannel, tol: float):
    """The support pass: row of the one entry above tol in each column.

    Returns an (operators, din) array with -1 for columns with no entry above
    tol, or None if some column of some operator has two.
    """
    big = np.abs(ch.kraus) > tol
    if np.any(big.sum(axis=1) > 1):
        return None
    return np.where(big.any(axis=1), big.argmax(axis=1), -1)


def is_io_rep(ch: KrausChannel, tol: float = PREDICATE_TOL) -> bool:
    """True iff every operator has at most one entry above tol per column."""
    return _entry_rows(ch, tol) is not None


def is_sio_rep(ch: KrausChannel, tol: float = PREDICATE_TOL) -> bool:
    """True iff every operator is column- and row-wise single-entried.

    Each operator then acts as c_x |pi(x)><x| on its support with pi injective.
    """
    if ch.din != ch.dout:
        raise ValueError("SIO representation test needs a square channel")
    return _single_entried(ch.kraus, tol)


def _single_entried(stack: np.ndarray, tol: float) -> bool:
    """True iff every operator of the stack has at most one entry above tol
    in each row and in each column."""
    big = np.abs(stack) > tol
    return bool(np.all(big.sum(axis=1) <= 1) and np.all(big.sum(axis=2) <= 1))


def is_sio_special_rep(ch: KrausChannel, tol: float = PREDICATE_TOL) -> bool:
    """True iff a single column-collapse function unifies all operators.

    Looks for one f and per-operator permutations Pi_a with every operator of
    the form sum_x c_ax Pi_a |f(x)><x|. Columns sharing an output row inside
    any operator must share f, and so must columns linked through a chain of
    such pairs; an operator sending two linked columns to different rows
    clashes.
    """
    rows = _entry_rows(ch, tol)
    if rows is None:
        return False
    hit = rows >= 0
    both = hit[:, :, None] & hit[:, None, :]
    same_row = rows[:, :, None] == rows[:, None, :]
    linked = _transitive_closure((both & same_row).any(axis=0))
    return not (linked & both & ~same_row).any()


def _transitive_closure(linked: np.ndarray) -> np.ndarray:
    """Transitive closure of a boolean relation, by repeated squaring.

    Every element related to anything must be related to itself (a relation
    of the form S S^T is), so each squaring keeps the paths found so far.
    """
    while True:
        grown = linked @ linked
        if np.count_nonzero(grown) == np.count_nonzero(linked):  # grown holds linked
            return linked
        linked = grown


def _phase_permutation_weights(ch: KrausChannel, tol: float):
    """Weight and column support of every operator with an entry above tol.

    Each such operator must be sqrt(w) times a phase partial permutation: one
    entry above tol per column and per row, all of one modulus within 1e-8.
    Returns (w, support) with support an (operators, din) boolean array, or
    None if some operator is not of that form.
    """
    rows = _entry_rows(ch, tol)
    if rows is None:
        return None
    live = (rows >= 0).any(axis=1)
    rows = rows[live]
    hit = rows >= 0
    if np.any((rows[:, :, None] == np.arange(ch.dout)).sum(axis=1) > 1):
        return None
    picked = np.take_along_axis(ch.kraus[live], np.maximum(rows, 0)[:, None, :], axis=1)[:, 0]
    # Rounded like abs() of one entry and np.mean over the support (np.abs on
    # arrays and masked sums can differ in the last bit), so weights compared
    # at 1e-8 agree with the per-operator form.
    moduli = np.hypot(picked.real, picked.imag)
    spread = np.where(hit, moduli, -np.inf).max(axis=1) - np.where(hit, moduli, np.inf).min(axis=1)
    if np.any(spread > 1e-8):
        return None
    weights = np.array([np.mean(m[h]) for m, h in zip(moduli, hit)]) ** 2
    return weights, hit


def is_pio_rep(ch: KrausChannel, tol: float = PREDICATE_TOL) -> bool:
    """True iff the operators split into groups {sqrt(w) U_j P_j}.

    Within a group all operators share the modulus sqrt(w), each is a
    phase-permutation on its column support, and the supports partition the
    whole basis. The grouping is an exact-cover search over operator
    partitions, capped at 12 operators and d <= 8.
    """
    if ch.din != ch.dout:
        raise ValueError("PIO representation test needs a square channel")
    if ch.din > 8 or len(ch.kraus) > 12:
        raise ValueError("PIO grouping search capped at d <= 8 and 12 operators")
    d = ch.din
    shaped = _phase_permutation_weights(ch, tol)
    if shaped is None:
        return False
    infos = [
        (float(w), frozenset(np.flatnonzero(sup).tolist())) for w, sup in zip(*shaped)
    ]

    full = frozenset(range(d))

    def assign(unused):
        """Group weights for a full partition of ``unused``, or None."""
        if not unused:
            return []
        seed = min(unused)
        w_seed, sup_seed = infos[seed]

        def extend(covered, pool, chosen):
            if covered == full:
                rest = assign(unused - frozenset(chosen) - {seed})
                return None if rest is None else [w_seed] + rest
            missing = min(full - covered)
            for idx in sorted(pool):
                w, sup = infos[idx]
                if missing not in sup or not sup.isdisjoint(covered):
                    continue
                if abs(w - w_seed) > 1e-8:
                    continue
                found = extend(covered | sup, pool - {idx}, chosen + [idx])
                if found is not None:
                    return found
            return None

        return extend(sup_seed, unused - {seed}, [])

    weights = assign(frozenset(range(len(infos))))
    if weights is None:
        return False
    return abs(sum(weights) - 1.0) <= 1e-7


def dual_map(ch: KrausChannel) -> KrausChannel:
    """The adjoint CP map, with Kraus operators {K_j^dag}. Unital iff ch is TP."""
    return KrausChannel(ch.kraus.conj().transpose(0, 2, 1), require_tp=False)


# ---------------------------------------------------------------------------
# The covariant channel family q1*id + q2/(d-1)*(I - Delta) + q3/(d-1)*(d Delta - id).
# ---------------------------------------------------------------------------


class GCovariantParams:
    """Weights (q1, q2, q3), a ``probability_vector``, of the three extremal covariant maps."""

    def __init__(self, q1: float, q2: float, q3: float, d: int):
        qs = probability_vector([q1, q2, q3], "covariant weights")
        if d < 2:
            raise ValueError("dimension must be at least 2")
        self.q1, self.q2, self.q3 = qs.tolist()
        self.d = int(d)

    def as_tuple(self):
        return (self.q1, self.q2, self.q3)


def g_covariant_channel(params: GCovariantParams) -> KrausChannel:
    """Assemble a Kraus representation of the covariant mixture.

    The (d Delta - id)/(d-1) piece is the phase-flip mixture
    sum_{k=1}^{d-1} Z^k rho Z^-k / (d-1) with Z = diag(exp(2 pi i x / d)).
    """
    d, (q1, q2, q3) = params.d, params.as_tuple()
    ops = []
    if q1 > 0:
        ops.append(np.sqrt(q1) * np.eye(d, dtype=complex))
    if q2 > 0:
        x, y = np.nonzero(~np.eye(d, dtype=bool))  # hops |y><x|, x outer
        hops = np.zeros((x.size, d, d), dtype=complex)
        hops[np.arange(x.size), y, x] = np.sqrt(q2 / (d - 1))
        ops.extend(hops)
    if q3 > 0:
        phases = np.exp(2j * np.pi * np.outer(np.arange(1, d), np.arange(d)) / d)
        ops.extend(np.sqrt(q3 / (d - 1)) * np.diag(p) for p in phases)
    return KrausChannel(ops)


def fit_g_covariant(ch: KrausChannel, tol: float = PREDICATE_TOL):
    """Recover covariant-mixture weights, or None if the channel is not one.

    Reads a = <0|E(|0><0|)|0> and c = <0|E(|0><1|)|1> off the channel's
    action, converts to weights, and accepts only if the rebuilt mixture
    matches the channel's Choi matrix within tol.
    """
    if ch.din != ch.dout or ch.din < 2:
        return None
    d = ch.din
    g = ch.unit_actions()
    a = float(np.real(g[0, 0, 0, 0]))
    c = complex(g[0, 1, 0, 1])
    if abs(c.imag) > 1e-7:
        return None
    cr = c.real
    if not (-a / (d - 1) - 1e-7 <= cr <= a + 1e-7):
        return None
    q1 = (a + cr * (d - 1)) / d
    q2 = 1.0 - a
    q3 = (a - cr) * (d - 1) / d
    qs = np.clip([q1, q2, q3], 0.0, None)
    total = qs.sum()
    if abs(total - 1.0) > 1e-6:
        return None
    try:
        params = GCovariantParams(*(qs / total), d)
        rebuilt = g_covariant_channel(params)
    except ValueError:
        return None
    if choi_distance(ch, rebuilt) > tol:
        return None
    return params


# ---------------------------------------------------------------------------
# Qubit canonicalization: incoherent Kraus representation of a MIO channel.
# ---------------------------------------------------------------------------


def _qubit_io_rep_from_choi(j: np.ndarray) -> np.ndarray:
    """Incoherent Kraus operators reproducing a MIO channel with qubit input,
    as one (operators, d, 2) stack, from its Choi array j (``_choi_array``).

    With a = diag E(|0><0|), b = diag E(|1><1|) and C = E(|0><1|), read off
    j, an incoherent representation exists iff
    M = [[diag a, |C|], [|C|^T, diag b]] is PSD; otherwise
    NoIncoherentRepresentationError carries M's lowest eigenvector. On each
    connected block of the support of |C|, the Perron singular pair (p, q) of
    K = diag(a)^-1/2 |C| diag(b)^-1/2 sets the loads X_ij = a_i K_ij q_j / p_i:
    row i then uses s a_i and column j uses s b_j, where s = ||K|| <= 1, and
    diagonal operators take up what is left.

    M is written into one preallocated array. It is factorized, and each
    block's pair found, with np.linalg.eigh's and np.linalg.svd's bits
    (``numerics.eigh_factors``, ``svd_factors``) in one error state. The
    blocks are the classes of the transitive closure of "rows share a column
    of the support". The support entries, ordered by block (its smallest
    row), then row, then column, each give one operator
    sqrt(X_ij) |i><0| + conj(C_ij) / sqrt(X_ij) |j><1|, written by fancy
    indexing, and the slack is reduced in that order. |C_ij|^2 is taken by C
    ``pow`` (np.float_power), as numpy's scalar ``x ** 2`` takes it; the
    array ``x ** 2`` is ``x * x``, which differs in the last bit.
    """
    d = j.shape[0] // 2
    ab = np.maximum(j.diagonal().real, 0.0)  # a then b
    cross = j[:d, d:]
    modulus = np.abs(cross)
    m = np.zeros((2 * d, 2 * d))
    m.flat[:: 2 * d + 1] = ab
    m[:d, d:] = modulus
    m[d:, :d] = modulus.T
    with raise_lapack_errors():
        vals, vecs = eigh_factors(m)
        if vals[0] < -IO_PSD_TOL:
            raise NoIncoherentRepresentationError(
                "this qubit MIO channel has no incoherent Kraus representation",
                certificate=vecs[:, 0],
            )
        support = modulus > 1e-11
        linked = _transitive_closure(support @ support.T)
        rows, cols = support.nonzero()
        heads = linked.argmax(axis=1)[rows]  # each entry's block, named by its first row
        a, b = ab[:d], ab[d:]
        p, q = np.zeros(d), np.zeros(d)
        for first in set(heads.tolist()):
            in_rows = linked[first].nonzero()[0]
            in_cols = (linked[first] @ support).nonzero()[0]
            k = modulus[in_rows[:, None], in_cols] / np.sqrt(a[in_rows][:, None] * b[in_cols])
            u, _, vh = svd_factors(k)
            p[in_rows], q[in_cols] = np.abs(u[:, 0]), np.abs(vh[0])
    order = heads.argsort(kind="stable")
    rows, cols = rows[order], cols[order]
    entries = modulus[rows, cols]
    load = a[rows] * (entries / np.sqrt(a[rows] * b[cols])) * q[cols] / p[rows]
    root = np.sqrt(load)
    slack = ab.reshape(2, d).T.copy()
    np.subtract.at(slack[:, 0], rows, load)
    np.subtract.at(slack[:, 1], cols, np.float_power(entries, 2.0) / load)
    slack_rows, slack_cols = (slack > 1e-15).nonzero()
    n = rows.size
    stack = np.zeros((n + slack_rows.size, d, 2), dtype=complex)
    stack[np.arange(n), rows, 0] = root
    stack[np.arange(n), cols, 1] = cross[rows, cols].conj() / root
    stack[np.arange(n, len(stack)), slack_rows, slack_cols] = np.sqrt(slack[slack_rows, slack_cols])
    return stack


def qubit_mio_to_io(ch: KrausChannel) -> KrausChannel:
    """Re-represent a MIO channel from a qubit to any d with incoherent Kraus
    operators.

    Decides existence in closed form: a representation exists iff the
    2d x 2d matrix M = [[diag a, |C|], [|C|^T, diag b]] has
    lambda_min >= -1e-10, where a = diag E(|0><0|), b = diag E(|1><1|) and
    C = E(|0><1|); neither the test nor the construction needs d = 2. When
    it does, the operators are built from Perron singular pairs and the
    rebuilt channel is checked against the original. When it does not, raises
    NoIncoherentRepresentationError whose ``certificate`` v has v^T M v < 0.
    The test and the round-trip check read one Choi array.
    """
    if ch.din != 2:
        raise ValueError("canonicalization is defined for qubit-input channels only")
    if not is_mio(ch):
        raise ValueError("channel is not MIO")
    j = _choi_array(ch)
    candidate = KrausChannel(_qubit_io_rep_from_choi(j))
    if not is_io_rep(candidate) or np.linalg.norm(j - _choi_array(candidate)) > CHOI_ROUNDTRIP_TOL:
        raise ArithmeticError("incoherent rebuild failed to reproduce the channel")
    return candidate


def _project_mio_affine_qubit(j: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the qubit MIO + trace-preservation affine set."""
    out = (j + j.conj().T) / 2.0
    for x in (0, 1):
        r, c = 2 * x, 2 * x + 1
        out[r, c] = 0.0
        out[c, r] = 0.0
    shift = (out[0, 0] + out[1, 1] - 1.0) / 2.0
    out[0, 0] -= shift
    out[1, 1] -= shift
    shift = (out[2, 2] + out[3, 3] - 1.0) / 2.0
    out[2, 2] -= shift
    out[3, 3] -= shift
    s = (out[0, 2] + out[1, 3]) / 2.0
    out[0, 2] -= s
    out[1, 3] -= s
    out[2, 0] -= s.conjugate()
    out[3, 1] -= s.conjugate()
    return out


def sample_mio_qubit_channel(seed: int) -> KrausChannel:
    """Random qubit MIO channel via alternating projections on Choi matrices.

    Alternates between the affine set (MIO constraints plus trace
    preservation, both linear in the Choi matrix) and the PSD cone until the
    gap is tiny; deterministic per seed. The Choi matrix I/2 of the
    depolarizing channel lies strictly inside the cone and in the affine set,
    so the projections converge from every start.

    The affine projection returns an exactly Hermitian matrix, so each PSD
    projection factorizes it with ``numerics.eigh_factors``, with
    ``eig_hermitian``'s bits and none of its checks, inside one error state
    for the whole loop; the gap is np.linalg.norm's Frobenius sum written
    out. The returned channel is checked in full by ``ChoiMatrix`` and
    ``KrausChannel``.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    j = g @ g.conj().T
    j *= 2.0 / np.trace(j).real
    with raise_lapack_errors():
        for _ in range(10000):
            j = _project_mio_affine_qubit(j)
            vals, vecs = eigh_factors(j)
            j_psd = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
            diff = (j - j_psd).ravel()  # np.linalg.norm's Frobenius sum, inline
            j = j_psd
            if math.sqrt(diff.real @ diff.real + diff.imag @ diff.imag) <= 1e-12:
                break
        else:
            raise ArithmeticError("alternating projections failed to converge")
    return channel_from_choi(ChoiMatrix(_project_mio_affine_qubit(j), 2, 2))


# ---------------------------------------------------------------------------
# Reference channels and samplers.
# ---------------------------------------------------------------------------


def qubit_to_qutrit_mio_example() -> KrausChannel:
    """The 3-operator qubit-to-qutrit MIO channel sending |+> to a rank-3 state.

    Its target is the pure state with probabilities (8/9, 1/18, 1/18); the
    representation is deliberately not incoherent operator-wise, and the
    channel is not dephasing-covariant.
    """
    m1 = (np.sqrt(2.0) / (3.0 * np.sqrt(3.0))) * np.array(
        [[3.0, 1.0], [0.0, 1.0], [0.0, 1.0]], dtype=complex
    )
    m2 = (1.0 / (3.0 * np.sqrt(6.0))) * np.array(
        [[0.0, 4.0], [3.0, -2.0], [0.0, 1.0]], dtype=complex
    )
    m3 = (1.0 / (3.0 * np.sqrt(6.0))) * np.array(
        [[0.0, 4.0], [0.0, 1.0], [3.0, -2.0]], dtype=complex
    )
    return KrausChannel([m1, m2, m3])


def random_channel(din: int, dout: int, n_ops: int, rng: np.random.Generator | int) -> KrausChannel:
    """Generic CPTP sample: Kraus blocks of a random Stinespring isometry."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((dout * n_ops, din)) + 1j * rng.standard_normal((dout * n_ops, din))
    q, _ = np.linalg.qr(g)
    return KrausChannel([q[i * dout : (i + 1) * dout, :] for i in range(n_ops)])


def random_incoherent_unitary(d: int, rng: np.random.Generator | int) -> np.ndarray:
    """Permutation times diagonal phases."""
    rng = np.random.default_rng(rng)
    perm = rng.permutation(d)
    phases = np.exp(2j * np.pi * rng.random(d))
    u = np.zeros((d, d), dtype=complex)
    u[perm, np.arange(d)] = phases
    return u


def incoherent_unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel([u])


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Channel doing ``before`` first, then ``after``."""
    if after.din != before.dout:
        raise ValueError("composition dimension mismatch")
    ops = [a @ b for a in after.kraus for b in before.kraus]
    return KrausChannel(ops, require_tp=after.require_tp and before.require_tp)


def _column_stochastic_amplitudes(d: int, n_ops: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.random((n_ops, d)) + 0.05
    w /= w.sum(axis=0, keepdims=True)
    return np.sqrt(w) * np.exp(2j * np.pi * rng.random((n_ops, d)))


def random_sio_channel(d: int, rng: np.random.Generator | int) -> KrausChannel:
    """Random strictly incoherent representation: three permutation-diagonal operators."""
    rng = np.random.default_rng(rng)
    c = _column_stochastic_amplitudes(d, 3, rng)
    ops = []
    for amps in c:
        perm = rng.permutation(d)
        op = np.zeros((d, d), dtype=complex)
        op[perm, np.arange(d)] = amps
        ops.append(op)
    return KrausChannel(ops)


def random_sio_special_channel(
    d: int, rng: np.random.Generator | int, collapse=None
) -> KrausChannel:
    """Random sIO representation: one shared collapse map f, per-operator permutations."""
    rng = np.random.default_rng(rng)
    if collapse is None:
        collapse = rng.integers(0, d, size=d)
    f = np.asarray(collapse)
    fibers = {}
    for x in range(d):
        fibers.setdefault(int(f[x]), []).append(x)
    n_ops = max(len(v) for v in fibers.values()) + 1
    c = np.zeros((n_ops, d), dtype=complex)
    for members in fibers.values():
        g = rng.standard_normal((n_ops, len(members))) + 1j * rng.standard_normal(
            (n_ops, len(members))
        )
        q, _ = np.linalg.qr(g)
        c[:, members] = q[:, : len(members)]
    ops = []
    for jj in range(n_ops):
        perm = rng.permutation(d)
        op = np.zeros((d, d), dtype=complex)
        for x in range(d):
            op[perm[f[x]], x] += c[jj, x]
        ops.append(op)
    return KrausChannel(ops)


def random_io_channel(d: int, rng: np.random.Generator | int) -> KrausChannel:
    """Random incoherent representation built as a mixture of two sIO pieces.

    The two pieces use different collapse maps, so the result is generally
    not sIO (and not SIO) at the representation level while staying IO.
    """
    rng = np.random.default_rng(rng)
    f1 = rng.integers(0, d, size=d)
    f2 = (f1 + 1 + rng.integers(0, d - 1, size=d)) % d
    lam = 0.2 + 0.6 * rng.random()
    part1 = random_sio_special_channel(d, rng, collapse=f1)
    part2 = random_sio_special_channel(d, rng, collapse=f2)
    ops = [np.sqrt(lam) * k for k in part1.kraus]
    ops += [np.sqrt(1.0 - lam) * k for k in part2.kraus]
    return KrausChannel(ops)


def random_pio_channel(d: int, rng: np.random.Generator | int, n_groups: int = 2) -> KrausChannel:
    """Random physically incoherent representation: weighted projective groups."""
    rng = np.random.default_rng(rng)
    weights = rng.dirichlet(np.ones(n_groups))
    ops = []
    for g in range(n_groups):
        order = rng.permutation(d)
        n_parts = int(rng.integers(1, d + 1))
        bounds = sorted(rng.choice(np.arange(1, d), size=n_parts - 1, replace=False)) if n_parts > 1 else []
        parts = np.split(order, bounds)
        for part in parts:
            perm = rng.permutation(d)
            phases = np.exp(2j * np.pi * rng.random(d))
            op = np.zeros((d, d), dtype=complex)
            for x in part:
                op[perm[x], x] = phases[x] * np.sqrt(weights[g])
            ops.append(op)
    return KrausChannel(ops)
