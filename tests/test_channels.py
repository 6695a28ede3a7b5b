import collections
import hashlib
import math

import numpy as np
import pytest

from coherence_kit import channels as ch
from coherence_kit import covariance as cov
from coherence_kit import harness
from coherence_kit import numerics
from coherence_kit.numerics import HERMITIAN_TOL, eig_hermitian
from coherence_kit.states import (
    DensityMatrix,
    PureStateVector,
    dephase,
    partial_dephase,
    random_density,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def dephasing_channel(d):
    ops = []
    for x in range(d):
        op = np.zeros((d, d), dtype=complex)
        op[x, x] = 1.0
        ops.append(op)
    return ch.KrausChannel(ops)


def partial_dephasing_channel(d, lam):
    ops = [math.sqrt(1.0 - lam) * np.eye(d, dtype=complex)]
    for x in range(d):
        op = np.zeros((d, d), dtype=complex)
        op[x, x] = math.sqrt(lam)
        ops.append(op)
    return ch.KrausChannel(ops)


def plus_density():
    return PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0)).to_density()


class TestKrausChannel:
    def test_rejects_non_tp(self):
        with pytest.raises(ValueError):
            ch.KrausChannel([np.diag([1.0, 0.5])])

    def test_cp_map_allowed_without_tp(self):
        half = ch.KrausChannel([np.diag([1.0, 0.5])], require_tp=False)
        assert half.din == half.dout == 2

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        c = ch.random_channel(2, 3, 2, rng)
        again = ch.KrausChannel.from_json_dict(c.to_json_dict())
        assert ch.choi_distance(c, again) < 1e-12

    @pytest.mark.parametrize(
        "ops, message",
        [
            ([], "at least one"),
            ([np.eye(2), np.eye(3)], None),  # ragged: numpy's own ValueError
            ([np.ones(2), np.ones(2)], "matrices"),
            ([np.diag([1.0, np.nan])], "non-finite"),
            ([np.eye(2), np.diag([np.inf, 0.0])], "non-finite"),
        ],
    )
    def test_rejects_malformed_stacks(self, ops, message):
        with pytest.raises(ValueError, match=message):
            ch.KrausChannel(ops, require_tp=False)

    def test_accepts_any_sequence_of_matrices(self):
        ops = [np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [0.0, 1.0j]])]
        for kraus in (ops, tuple(ops), (k for k in ops), np.stack(ops), [k.tolist() for k in ops]):
            c = ch.KrausChannel(kraus)
            assert (len(c), c.dout, c.din) == (2, 2, 2)
            assert np.array_equal(np.stack(c.kraus), np.stack(ops))

    def test_kraus_is_one_read_only_stack(self):
        ops = [np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [0.0, 1.0j]])]
        c = ch.KrausChannel(ops)
        assert isinstance(c.kraus, np.ndarray) and c.kraus.shape == (2, 2, 2)
        assert c.kraus.dtype == complex and not c.kraus.flags.writeable
        with pytest.raises(ValueError):
            c.kraus[0, 0, 0] = 0.0
        assert len(c) == len(c.kraus) == len(list(c.kraus)) == 2
        for k, op in zip(c.kraus, ops):
            assert k.shape == (2, 2) and np.array_equal(k, op)
        assert np.array_equal(np.array(c.kraus), np.stack(c.kraus))


class TestApply:
    def test_identity(self):
        rho = random_density(3, 1)
        out = ch.apply(ch.KrausChannel([np.eye(3)]), rho)
        assert np.allclose(out.mat, rho.mat)

    def test_dephasing_on_plus(self):
        out = ch.apply(dephasing_channel(2), plus_density())
        assert np.allclose(out.mat, np.eye(2) / 2)

    def test_example_reaches_target(self):
        out = ch.apply(ch.qubit_to_qutrit_mio_example(), plus_density())
        target = np.sqrt(np.array([8 / 9, 1 / 18, 1 / 18]))
        assert np.max(np.abs(out.mat - np.outer(target, target))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ch.apply(ch.KrausChannel([np.eye(3)]), random_density(2, 0))

    def test_a_map_that_is_not_trace_preserving_keeps_its_trace(self):
        half = ch.KrausChannel([np.diag([1.0, 0.5])], require_tp=False)
        mixed = DensityMatrix(np.eye(2) / 2)
        out = ch._operator_sum(half, mixed)
        assert out.tobytes() == np.diag([0.5, 0.125]).astype(complex).tobytes()
        with pytest.raises(ValueError, match="trace must be 1, got np.float64[(]0.625[)]"):
            ch.apply(half, mixed)


class TestChoi:
    def test_identity_is_scaled_entangled_projector(self):
        j = ch.choi(ch.KrausChannel([np.eye(2)])).mat
        omega = np.zeros(4)
        omega[0] = omega[3] = 1.0
        assert np.allclose(j, np.outer(omega, omega))

    def test_dephasing_choi_has_no_cross_terms(self):
        j = ch.choi(dephasing_channel(2)).mat
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        assert np.allclose(j, expected)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = ch.random_channel(3, 3, 3, rng)
            again = ch.channel_from_choi(ch.choi(c))
            assert ch.choi_distance(c, again) <= 1e-8

    def test_rejects_non_cp(self):
        j = np.eye(4)
        j[0, 0] = -0.5
        with pytest.raises(ValueError):
            ch.ChoiMatrix(j, 2, 2)

    def test_hermiticity_is_checked_at_hermitian_tol(self):
        # eig_hermitian's one check: a skew part of Frobenius norm above
        # HERMITIAN_TOL times max(1, ||J||) is refused
        j = ch.choi(ch.random_channel(2, 2, 3, 4)).mat
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        scale = max(1.0, np.linalg.norm(j)) / np.linalg.norm(skew)
        ch.ChoiMatrix(j + 0.5 * HERMITIAN_TOL * scale * skew, 2, 2)
        with pytest.raises(ValueError, match="not Hermitian"):
            ch.ChoiMatrix(j + 2.0 * HERMITIAN_TOL * scale * skew, 2, 2)

    def test_keeps_the_validating_spectrum(self):
        j = ch.choi(ch.random_channel(3, 2, 4, 8))
        dec = eig_hermitian(j.mat)
        assert j.spectrum.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
        assert j.spectrum.eigenvectors.tobytes() == dec.eigenvectors.tobytes()
        for arr in (j.mat, j.spectrum.eigenvalues, j.spectrum.eigenvectors):
            assert not arr.flags.writeable

    def test_channel_from_choi_does_not_factorize_again(self, monkeypatch):
        c = ch.random_channel(2, 3, 2, 9)
        j = ch.choi(c)

        def forbidden(m):
            raise AssertionError("channel_from_choi factorized the Choi matrix again")

        monkeypatch.setattr(ch, "eig_hermitian", forbidden)
        monkeypatch.setattr(numerics, "eig_hermitian", forbidden)
        assert ch.choi_distance(c, ch.channel_from_choi(j)) <= 1e-8

    def test_roundtrip_kraus_bits_are_pinned(self):
        # sha256 of the rebuilt Kraus stacks, as channel_from_choi gave them
        # when it factorized the Choi matrix itself
        rng = np.random.default_rng(2026)
        digest = hashlib.sha256()
        for i in range(20):
            d = 2 + i % 3
            c = ch.random_channel(d, d, 3, rng)
            digest.update(ch.channel_from_choi(ch.choi(c)).kraus.tobytes())
        assert digest.hexdigest() == (
            "c76c99e8bd7ffa720e3aab5adad09fb4d8cef59fe3c6f623025d86ff84174d2e"
        )


class TestMio:
    def test_example_is_mio(self):
        assert ch.is_mio(ch.qubit_to_qutrit_mio_example())

    def test_hadamard_is_not(self):
        assert not ch.is_mio(ch.KrausChannel([HADAMARD]))

    def test_composition_with_dephasing_is_mio(self):
        # E composed after full dephasing stays MIO whenever E is MIO, and
        # dephasing composed after anything is MIO outright.
        example = ch.qubit_to_qutrit_mio_example()
        assert ch.is_mio(ch.compose(example, dephasing_channel(2)))
        rng = np.random.default_rng(9)
        for _ in range(5):
            generic = ch.random_channel(3, 3, 2, rng)
            assert ch.is_mio(ch.compose(dephasing_channel(3), generic))


class TestDio:
    def test_partial_dephasing_family(self):
        for lam in (0.0, 0.3, 1.0):
            assert ch.is_dio(partial_dephasing_channel(3, lam))

    def test_incoherent_unitary(self):
        rng = np.random.default_rng(4)
        u = ch.random_incoherent_unitary(4, rng)
        assert ch.is_dio(ch.incoherent_unitary_channel(u))

    def test_example_is_not_dio(self):
        assert not ch.is_dio(ch.qubit_to_qutrit_mio_example())

    def test_matches_trace_norm_formulation(self):
        rng = np.random.default_rng(6)
        channels = [
            ch.qubit_to_qutrit_mio_example(),
            partial_dephasing_channel(3, 0.4),
            ch.random_sio_channel(3, rng),
            ch.random_channel(3, 3, 2, rng),
        ]
        for c in channels:
            assert ch.is_dio(c) == ch.is_covariant_under_dephasing(c)

    def test_commuting_square_with_partial_dephasing(self):
        rng = np.random.default_rng(12)
        params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), 3)
        dio = ch.g_covariant_channel(params)
        rho = random_density(3, 3)
        for lam in (0.25, 0.8):
            left = ch.apply(dio, partial_dephase(rho, lam))
            right = partial_dephase(ch.apply(dio, rho), lam)
            assert np.max(np.abs(left.mat - right.mat)) < 1e-9


class TestIoRep:
    def test_dephasing_kraus(self):
        assert ch.is_io_rep(dephasing_channel(2))

    def test_example_first_operator_fails(self):
        assert not ch.is_io_rep(ch.qubit_to_qutrit_mio_example())

    def test_sio_reps_are_io(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            assert ch.is_io_rep(ch.random_sio_channel(4, rng))


class TestSioRep:
    def test_dephasing(self):
        assert ch.is_sio_rep(dephasing_channel(2))

    def test_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert ch.is_sio_rep(ch.KrausChannel([swap]))

    def test_row_doubling_fails(self):
        scale = 1.0 / math.sqrt(2.0)
        merge = scale * np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        partner = scale * np.array([[1.0, -1.0], [0.0, 0.0]], dtype=complex)
        c = ch.KrausChannel([merge, partner])
        assert not ch.is_sio_rep(c)
        assert ch.is_io_rep(c)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            ch.is_sio_rep(ch.qubit_to_qutrit_mio_example())


def loop_io_rep(c, tol):
    """Per-operator, per-column loop form of the IO representation test."""
    return all(
        np.count_nonzero(np.abs(k[:, x]) > tol) <= 1 for k in c.kraus for x in range(c.din)
    )


def loop_sio_rep(c, tol):
    """Loop form of the SIO representation test: columns, then rows."""
    return loop_io_rep(c, tol) and all(
        np.count_nonzero(np.abs(k[y, :]) > tol) <= 1 for k in c.kraus for y in range(c.dout)
    )


def random_sparse_stack(rng, n_ops, dout, din, tol, units=0.0):
    """Sparse random operators with entries at exactly +-tol, +-i*tol and the next float.

    A fraction ``units`` of the entries is set to exactly 1 first, so that
    products of two entries can land on tol exactly.
    """
    stack = rng.standard_normal((n_ops, dout, din)) + 1j * rng.standard_normal(
        (n_ops, dout, din)
    )
    if units:
        stack[rng.random(stack.shape) < units] = 1.0
    stack[rng.random(stack.shape) < 0.7] = 0.0
    edge = rng.random(stack.shape) < 0.15
    signs = rng.choice([1.0, -1.0, 1j, -1j], size=stack.shape)
    stack[edge] = tol * signs[edge]
    nudged = rng.random(stack.shape) < 0.05
    stack[nudged] = np.nextafter(tol, 1.0) * signs[nudged]
    return ch.KrausChannel(list(stack), require_tp=False)


class TestVectorizedRepPredicates:
    """The stacked-array predicates agree with the per-operator loop form."""

    def test_random_channels(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            d = 2 + trial % 5
            c = ch.random_channel(d, d, 1 + trial % 3, rng)
            for tol in (ch.PREDICATE_TOL, 0.3):
                assert ch.is_io_rep(c, tol) == loop_io_rep(c, tol)
                assert ch.is_sio_rep(c, tol) == loop_sio_rep(c, tol)

    def test_entries_at_the_tolerance(self):
        rng = np.random.default_rng(32)
        tol = ch.PREDICATE_TOL
        seen = set()
        for trial in range(300):
            d = 2 + trial % 4
            c = random_sparse_stack(rng, 1 + trial % 3, d, d, tol)
            io, sio = ch.is_io_rep(c, tol), ch.is_sio_rep(c, tol)
            assert io == loop_io_rep(c, tol)
            assert sio == loop_sio_rep(c, tol)
            seen.add((io, sio))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_exactly_at_tolerance_is_not_above(self):
        tol = ch.PREDICATE_TOL
        op = np.array([[1.0, tol], [-1j * tol, 0.0]], dtype=complex)
        c = ch.KrausChannel([op], require_tp=False)
        assert ch.is_io_rep(c, tol) and ch.is_sio_rep(c, tol)
        op[0, 1] = np.nextafter(tol, 1.0)
        c = ch.KrausChannel([op], require_tp=False)
        assert ch.is_io_rep(c, tol) and not ch.is_sio_rep(c, tol)

    def test_non_square_io(self):
        rng = np.random.default_rng(33)
        tol = ch.PREDICATE_TOL
        for trial in range(100):
            din, dout = 2 + trial % 3, 3 + trial % 4
            c = random_sparse_stack(rng, 1 + trial % 3, dout, din, tol)
            assert ch.is_io_rep(c, tol) == loop_io_rep(c, tol)
        assert not ch.is_io_rep(ch.qubit_to_qutrit_mio_example())


def loop_offdiag(m):
    return m - np.diag(np.diag(m))


def loop_mio(c, tol):
    """Block-by-block loop form of the MIO test over the full unit_actions."""
    g = c.unit_actions()
    return all(np.max(np.abs(loop_offdiag(g[:, :, x, x]))) <= tol for x in range(c.din))


def loop_dio(c, tol):
    """Block-by-block loop form of the DIO test over the full unit_actions."""
    g = c.unit_actions()
    idx = np.arange(c.dout)
    for x in range(c.din):
        for z in range(c.din):
            block = g[:, :, x, z]
            off = loop_offdiag(block) if x == z else block[idx, idx]
            if np.max(np.abs(off)) > tol:
                return False
    return True


def loop_column_rows(op, tol):
    return [list(np.nonzero(np.abs(op[:, x]) > tol)[0]) for x in range(op.shape[1])]


def loop_sio_special_rep(c, tol):
    """Per-operator loop form of the sIO test, linking columns by union-find."""
    maps = []
    for k in c.kraus:
        rows = loop_column_rows(k, tol)
        if any(len(r) > 1 for r in rows):
            return False
        maps.append({x: r[0] for x, r in enumerate(rows) if r})
    parent = list(range(c.din))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in maps:
        by_row = {}
        for x, row in g.items():
            by_row.setdefault(row, []).append(x)
        for xs in by_row.values():
            for other in xs[1:]:
                parent[find(other)] = find(xs[0])
    return all(
        not (find(x) == find(z) and g[x] != g[z]) for g in maps for x in g for z in g
    )


def union_find_blocks(support):
    """Connected components of the bipartite graph of a boolean matrix, as a
    set of (rows, cols) frozensets, by union-find over rows and columns."""
    n_rows, n_cols = support.shape
    parent = list(range(n_rows + n_cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(support)):
        parent[find(int(i))] = find(n_rows + int(j))
    blocks = collections.defaultdict(lambda: (set(), set()))
    for i, j in zip(*np.nonzero(support)):
        rows, cols = blocks[find(int(i))]
        rows.add(int(i))
        cols.add(int(j))
    return {(frozenset(rows), frozenset(cols)) for rows, cols in blocks.values()}


def closure_blocks(support):
    """The same components read off ``channels._transitive_closure`` of the
    row relation "rows share a column"."""
    linked = ch._transitive_closure(support @ support.T)
    return {
        (frozenset(np.flatnonzero(linked[i]).tolist()),
         frozenset(np.flatnonzero(linked[i] @ support).tolist()))
        for i in np.flatnonzero(support.any(axis=1))
    }


def loop_partial_permutation_weight(op, tol):
    """(weight, column support) if op = sqrt(w) * phase-permutation on support."""
    rows = loop_column_rows(op, tol)
    if any(len(r) > 1 for r in rows) or any(len(r) > 1 for r in loop_column_rows(op.T, tol)):
        return None
    support = [x for x, r in enumerate(rows) if r]
    if not support:
        return None
    moduli = np.array([abs(op[rows[x][0], x]) for x in support])
    if np.max(moduli) - np.min(moduli) > 1e-8:
        return None
    return float(np.mean(moduli) ** 2), frozenset(support)


def loop_pio_rep(c, tol):
    """Per-operator loop form of the PIO test, with the same exact-cover search."""
    infos = []
    for k in c.kraus:
        if np.max(np.abs(k)) <= tol:
            continue
        info = loop_partial_permutation_weight(k, tol)
        if info is None:
            return False
        infos.append(info)
    full = frozenset(range(c.din))

    def assign(unused):
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
                if missing in sup and sup.isdisjoint(covered) and abs(w - w_seed) <= 1e-8:
                    found = extend(covered | sup, pool - {idx}, chosen + [idx])
                    if found is not None:
                        return found
            return None

        return extend(sup_seed, unused - {seed}, [])

    weights = assign(frozenset(range(len(infos))))
    return weights is not None and abs(sum(weights) - 1.0) <= 1e-7


def family_channels(d, rng):
    """One channel from every generator family at dimension d."""
    params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), d)
    return [
        ch.random_channel(d, d, 1 + d % 3, rng),
        ch.random_sio_channel(d, rng),
        ch.random_sio_special_channel(d, rng),
        ch.random_io_channel(d, rng),
        ch.random_pio_channel(d, rng),
        ch.incoherent_unitary_channel(ch.random_incoherent_unitary(d, rng)),
        ch.g_covariant_channel(params),
    ]


def split_or_nudge(c, rng):
    """A PIO stack with one operator split in two, nudged in modulus, or padded."""
    stack = np.array(c.kraus)
    a = rng.integers(len(stack))
    mode = rng.integers(3)
    if mode == 0:
        half = stack[a] / math.sqrt(2.0)
        stack = np.concatenate([stack[:a], [half, half], stack[a + 1 :]])
    elif mode == 1:
        y, x = np.argwhere(np.abs(stack[a]) > 0)[0]
        stack[a, y, x] *= 1.0 + rng.choice([-2e-8, 1e-9, 5e-9, 2e-8])
    else:
        stack = np.concatenate([stack, np.zeros_like(stack[:1])])
    return ch.KrausChannel(list(stack), require_tp=False)


class TestArrayPredicatesMatchLoops:
    """The array-reduction predicates return the loop forms' booleans."""

    TOLS = (ch.PREDICATE_TOL, 1e-3)

    def assert_agree(self, c, seen):
        for tol in self.TOLS:
            pairs = [
                ("mio", ch.is_mio(c, tol), loop_mio(c, tol)),
                ("dio", ch.is_dio(c, tol), loop_dio(c, tol)),
                ("sio_special", ch.is_sio_special_rep(c, tol), loop_sio_special_rep(c, tol)),
            ]
            if c.din == c.dout and c.din <= 8 and len(c) <= 12:
                pairs.append(("pio", ch.is_pio_rep(c, tol), loop_pio_rep(c, tol)))
            for name, fast, loop in pairs:
                assert fast == loop, (name, tol, c.din, len(c))
                seen.add((name, fast))

    def test_generator_families(self):
        rng = np.random.default_rng(41)
        seen = set()
        for d in range(2, 9):
            for c in family_channels(d, rng):
                self.assert_agree(c, seen)
                self.assert_agree(ch.compose(dephasing_channel(d), c), seen)
        assert {(name, v) for name in ("mio", "dio", "sio_special", "pio") for v in (0, 1)} <= seen

    def test_sampled_qubit_mio_channels(self):
        seen = set()
        for seed in range(12):
            self.assert_agree(ch.sample_mio_qubit_channel(seed), seen)
        assert ("mio", True) in seen and ("sio_special", False) in seen

    def test_sparse_stacks_at_the_tolerance(self):
        rng = np.random.default_rng(42)
        seen = set()
        for trial in range(240):
            d, n_ops = 2 + trial % 4, 1 + trial % 3
            tol = self.TOLS[trial % 2]
            c = random_sparse_stack(rng, n_ops, d, d, tol, units=0.5)
            self.assert_agree(c, seen)
        assert len(seen) == 8  # both verdicts of all four predicates

    def test_split_and_nudged_pio_stacks(self):
        rng = np.random.default_rng(43)
        seen = set()
        for trial in range(150):
            d = 2 + trial % 5
            c = split_or_nudge(ch.random_pio_channel(d, rng, n_groups=1 + trial % 3), rng)
            self.assert_agree(c, seen)
        assert {("pio", True), ("pio", False)} <= seen

    def test_non_square_channels(self):
        rng = np.random.default_rng(44)
        seen = set()
        for trial in range(30):
            c = ch.random_channel(2 + trial % 2, 3 + trial % 3, 2, rng)
            self.assert_agree(c, seen)
        self.assert_agree(ch.qubit_to_qutrit_mio_example(), seen)
        assert ("mio", True) in seen


class TestTransitiveClosure:
    def test_blocks_match_union_find(self):
        rng = np.random.default_rng(45)
        shapes = set()
        for trial in range(400):
            n_rows, n_cols = 1 + trial % 8, 1 + (trial // 8) % 8
            support = rng.random((n_rows, n_cols)) < rng.choice([0.1, 0.25, 0.5])
            support[rng.random(n_rows) < 0.2] = False  # empty rows
            support[:, rng.random(n_cols) < 0.2] = False  # empty columns
            assert closure_blocks(support) == union_find_blocks(support), support
            shapes.add((n_rows, n_cols))
        assert len(shapes) == 64

    def test_one_link_per_step_closes(self):
        # a path 0 - 1 - ... - 7 through shared columns is one block
        support = np.eye(8, dtype=bool) | np.eye(8, k=1, dtype=bool)
        assert closure_blocks(support) == {(frozenset(range(8)), frozenset(range(8)))}


class TestSioSpecialRep:
    def test_sio_is_special(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            assert ch.is_sio_special_rep(ch.random_sio_channel(3, rng))

    def test_collapse_with_completion(self):
        scale = 1.0 / math.sqrt(2.0)
        merge = scale * np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        partner = scale * np.array([[1.0, -1.0], [0.0, 0.0]], dtype=complex)
        assert ch.is_sio_special_rep(ch.KrausChannel([merge, partner]))

    def test_conflicting_collapse_patterns(self):
        # two operators merge columns {0,1} (to different rows, with opposite
        # sign products), one splits them: no single collapse map fits.
        merge_top = 0.5 * np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        merge_bot = 0.5 * np.array([[0.0, 0.0], [1.0, -1.0]], dtype=complex)
        split = math.sqrt(0.5) * np.eye(2, dtype=complex)
        c = ch.KrausChannel([merge_top, merge_bot, split])
        assert ch.is_io_rep(c)
        assert not ch.is_sio_special_rep(c)

    def test_links_chain_through_operators(self):
        # op 0 merges columns {0, 1}, op 1 merges {1, 2}, so 0 and 2 must share
        # f; op 2 sends them to different rows
        ops = np.zeros((3, 3, 3), dtype=complex)
        ops[0, 0, [0, 1]] = 1.0
        ops[1, 1, [1, 2]] = 1.0
        ops[2, [0, 1], [0, 2]] = 1.0
        c = ch.KrausChannel(list(ops), require_tp=False)
        assert ch.is_io_rep(c)
        assert not ch.is_sio_special_rep(c)
        assert not loop_sio_special_rep(c, ch.PREDICATE_TOL)
        ops[2, 1, 2], ops[2, 0, 2] = 0.0, 1.0
        c = ch.KrausChannel(list(ops), require_tp=False)
        assert ch.is_sio_special_rep(c) and loop_sio_special_rep(c, ch.PREDICATE_TOL)

    def test_generated_special_channels(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            c = ch.random_sio_special_channel(4, rng)
            assert ch.is_sio_special_rep(c)
            assert ch.is_io_rep(c)

    @pytest.mark.parametrize("seed", range(5))
    def test_inclusions_suite_verdicts_match_union_find(self, monkeypatch, seed):
        # every family channel the inclusions suite samples, tested through
        # the shared closure and through the union-find loop form
        sampled = {}
        in_class = ch.in_class

        def recording(channel, klass, tol=ch.PREDICATE_TOL):
            sampled[id(channel)] = channel
            return in_class(channel, klass, tol)

        monkeypatch.setattr(ch, "in_class", recording)
        assert harness.run_suite("inclusions", 4, seed)["passed"]
        verdicts = [ch.is_sio_special_rep(c) for c in sampled.values()]
        assert verdicts == [loop_sio_special_rep(c, ch.PREDICATE_TOL) for c in sampled.values()]
        assert len(verdicts) == 24 and True in verdicts and False in verdicts


class TestPioRep:
    def test_incoherent_unitary(self):
        rng = np.random.default_rng(2)
        u = ch.random_incoherent_unitary(4, rng)
        assert ch.is_pio_rep(ch.incoherent_unitary_channel(u))

    def test_projective_measurement(self):
        assert ch.is_pio_rep(dephasing_channel(2))

    def test_uneven_moduli_fail(self):
        m1 = np.diag([0.8, 0.6]).astype(complex)
        m2 = np.array([[0.0, 0.8], [0.6, 0.0]], dtype=complex)
        c = ch.KrausChannel([m1, m2])
        assert ch.is_sio_rep(c)
        assert not ch.is_pio_rep(c)

    def test_collapsing_operator_is_not_a_permutation(self):
        # one unit-modulus operator covering the basis, but two columns share a row
        c = ch.KrausChannel([np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)], require_tp=False)
        assert not ch.is_pio_rep(c)
        assert not loop_pio_rep(c, ch.PREDICATE_TOL)

    def test_random_pio_channels(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            c = ch.random_pio_channel(4, rng)
            assert ch.is_pio_rep(c)

    def test_caps(self):
        with pytest.raises(ValueError):
            ch.is_pio_rep(ch.KrausChannel([np.eye(9)]))


class TestClassInclusions:
    def test_chain_on_constructed_instances(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            d = 3 + trial % 2
            pio = ch.random_pio_channel(d, rng)
            assert ch.is_pio_rep(pio)
            assert ch.is_sio_rep(pio)
            assert ch.is_sio_special_rep(pio)
            assert ch.is_io_rep(pio)
            assert ch.is_dio(pio)
            assert ch.is_mio(pio)
            sio = ch.random_sio_channel(d, rng)
            assert ch.is_sio_rep(sio)
            assert ch.is_io_rep(sio)
            assert ch.is_dio(sio)
            assert ch.is_mio(sio)
            io = ch.random_io_channel(d, rng)
            assert ch.is_io_rep(io)
            assert ch.is_mio(io)

    @pytest.mark.parametrize(
        "klass, chain",
        [
            ("pio_rep", ("pio_rep", "sio_rep", "sio_special_rep", "io_rep", "dio", "mio")),
            ("sio_rep", ("sio_rep", "sio_special_rep", "io_rep", "dio", "mio")),
            ("sio_special_rep", ("sio_special_rep", "io_rep", "mio")),
            ("io_rep", ("io_rep", "mio")),
            ("dio", ("dio", "mio")),
            ("mio", ("mio",)),
        ],
    )
    def test_class_chain(self, klass, chain):
        assert ch.class_chain(klass) == chain

    def test_table_lists_classes_smallest_first(self):
        order = list(ch.CLASS_PARENTS)
        for klass, parents in ch.CLASS_PARENTS.items():
            assert all(order.index(p) > order.index(klass) for p in parents)

    def test_in_class_calls_the_predicate_bound_at_call_time(self, monkeypatch):
        c = ch.KrausChannel([np.eye(2)])
        calls = []
        monkeypatch.setattr(ch, "is_dio", lambda channel, tol: calls.append(tol) or False)
        assert ch.in_class(c, "dio", 1e-3) is False
        assert calls == [1e-3]
        assert ch.in_class(c, "mio") is True
        with pytest.raises(ValueError, match="square"):
            ch.in_class(ch.qubit_to_qutrit_mio_example(), "sio_rep")

    @pytest.mark.parametrize("klass", ["pio", "io", "sio_special", "covariant_under_dephasing", ""])
    def test_unknown_class_names_are_rejected(self, klass):
        listed = "pio_rep, sio_rep, sio_special_rep, io_rep, dio, mio"
        with pytest.raises(ValueError, match=f"unknown class {klass!r}; the classes are {listed}$"):
            ch.class_chain(klass)
        with pytest.raises(ValueError, match=f"unknown class {klass!r}"):
            ch.in_class(ch.KrausChannel([np.eye(2)]), klass)


class TestSamplersTakeASeed:
    """Every sampler that takes ``rng`` accepts an int seed and then draws
    exactly what ``default_rng(seed)`` draws; a Generator is used as given."""

    SAMPLERS = [
        lambda rng: ch.random_channel(3, 2, 2, rng),
        lambda rng: ch.KrausChannel([ch.random_incoherent_unitary(4, rng)]),
        lambda rng: ch.random_sio_channel(3, rng),
        lambda rng: ch.random_sio_special_channel(4, rng),
        lambda rng: ch.random_io_channel(3, rng),
        lambda rng: ch.random_pio_channel(4, rng),
        lambda rng: cov.random_n_covariant_channel(3, rng),
    ]

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_int_seed_equals_its_generator(self, sample):
        for seed in (0, 7):
            from_int = np.array(sample(seed).kraus)
            assert np.array_equal(from_int, np.array(sample(np.random.default_rng(seed)).kraus))

    def test_generator_is_used_as_given(self):
        rng = np.random.default_rng(5)
        first, second = ch.random_sio_channel(3, rng), ch.random_sio_channel(3, rng)
        assert not np.array_equal(np.array(first.kraus), np.array(second.kraus))


class TestDual:
    def test_unitary_dual_is_inverse(self):
        rng = np.random.default_rng(3)
        u = ch.random_incoherent_unitary(3, rng)
        dual = ch.dual_map(ch.incoherent_unitary_channel(u))
        inverse = ch.KrausChannel([u.conj().T])
        assert ch.choi_distance(dual, inverse) < 1e-12

    def test_double_dual_is_identity_on_choi(self):
        rng = np.random.default_rng(7)
        c = ch.random_channel(3, 3, 2, rng)
        assert ch.choi_distance(ch.dual_map(ch.dual_map(c)), c) < 1e-12

    def test_dual_choi_is_swap_conjugate(self):
        rng = np.random.default_rng(15)
        c = ch.random_channel(3, 3, 2, rng)
        j = ch._choi_array(c).reshape(3, 3, 3, 3)  # (x, y, x', y')
        j_dual = ch._choi_array(ch.dual_map(c)).reshape(3, 3, 3, 3)
        assert np.max(np.abs(j_dual - j.transpose(1, 0, 3, 2).conj())) < 1e-12

    def test_dual_of_dio_satisfies_dio_conditions(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), 3)
            dual = ch.dual_map(ch.g_covariant_channel(params))
            g = dual.unit_actions()
            d = dual.din
            for x in range(d):
                for z in range(d):
                    block = g[:, :, x, z]
                    if x == z:
                        off = block - np.diag(np.diag(block))
                        assert np.max(np.abs(off)) < 1e-9
                    else:
                        assert np.max(np.abs(np.diag(block))) < 1e-9


class TestGCovariant:
    def test_pure_identity_weights(self):
        c = ch.g_covariant_channel(ch.GCovariantParams(1.0, 0.0, 0.0, 3))
        rho = random_density(3, 2)
        assert np.allclose(ch.apply(c, rho).mat, rho.mat)

    def test_qubit_dephasing_complement(self):
        c = ch.g_covariant_channel(ch.GCovariantParams(0.0, 0.0, 1.0, 2))
        rho = random_density(2, 5)
        expected = 2.0 * np.diag(np.diag(rho.mat)) - rho.mat
        assert np.max(np.abs(ch.apply(c, rho).mat - expected)) < 1e-12

    def test_depolarizing_combination(self):
        d = 3
        params = ch.GCovariantParams(1.0 / d**2, (d - 1.0) / d, (d - 1.0) / d**2, d)
        c = ch.g_covariant_channel(params)
        rho = random_density(d, 6)
        assert np.max(np.abs(ch.apply(c, rho).mat - np.eye(d) / d)) < 1e-12

    def test_commutes_with_incoherent_unitaries(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), 3)
            c = ch.g_covariant_channel(params)
            u = ch.random_incoherent_unitary(3, rng)
            uc = ch.incoherent_unitary_channel(u)
            assert ch.choi_distance(ch.compose(c, uc), ch.compose(uc, c)) < 1e-9

    def test_fit_roundtrip(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), 4)
            fitted = ch.fit_g_covariant(ch.g_covariant_channel(params))
            assert fitted is not None
            assert max(
                abs(a - b) for a, b in zip(fitted.as_tuple(), params.as_tuple())
            ) < 1e-9

    def test_hadamard_fails_fit(self):
        assert ch.fit_g_covariant(ch.KrausChannel([HADAMARD])) is None

    def test_dephasing_map_weights(self):
        d = 3
        fitted = ch.fit_g_covariant(dephasing_channel(d))
        assert fitted is not None
        assert fitted.q1 == pytest.approx(1.0 / d, abs=1e-12)
        assert fitted.q2 == pytest.approx(0.0, abs=1e-12)
        assert fitted.q3 == pytest.approx((d - 1.0) / d, abs=1e-12)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ch.GCovariantParams(0.5, -0.1, 0.6, 3)

    def test_rank_raising_piece_in_closed_form(self):
        # Choi of (d Delta - id)/(d-1): (d sum |xx><xx| - |Omega><Omega|)/(d-1)
        for d in (2, 3, 5, 8, 16):
            c = ch.g_covariant_channel(ch.GCovariantParams(0.0, 0.0, 1.0, d))
            assert len(c) == d - 1
            diag_idx = np.arange(d) * (d + 1)
            omega = np.zeros(d * d)
            omega[diag_idx] = 1.0
            expected = -np.outer(omega, omega)
            expected[diag_idx, diag_idx] += d
            assert np.max(np.abs(ch._choi_array(c) - expected / (d - 1))) < 1e-13

    def test_phase_flip_piece_is_pio(self):
        # equal-modulus diagonal operators: a mixture of diagonal unitaries
        c = ch.g_covariant_channel(ch.GCovariantParams(0.2, 0.0, 0.8, 3))
        assert ch.is_pio_rep(c)


class TestQubitMioToIo:
    def test_already_io_unchanged(self):
        c = dephasing_channel(2)
        out = ch.qubit_mio_to_io(c)
        assert len(out.kraus) == len(c.kraus)
        assert ch.choi_distance(c, out) < 1e-12

    def test_incoherent_unitary_unchanged(self):
        rng = np.random.default_rng(19)
        u = ch.random_incoherent_unitary(2, rng)
        c = ch.incoherent_unitary_channel(u)
        out = ch.qubit_mio_to_io(c)
        assert len(out.kraus) == 1
        assert ch.choi_distance(c, out) < 1e-12

    def test_sampled_channels_canonicalize_when_possible(self):
        done = 0
        seed = 0
        while done < 20:
            c = ch.sample_mio_qubit_channel(seed)
            seed += 1
            try:
                out = ch.qubit_mio_to_io(c)
            except ch.NoIncoherentRepresentationError:
                continue
            assert ch.is_io_rep(out)
            assert ch.choi_distance(c, out) <= 1e-8
            done += 1

    def test_counterexample_has_no_io_representation(self):
        # the Kraus span of this MIO channel contains no nonzero operator
        # with single-entry columns, so no representation of any size is IO
        m_a = np.array([[1 / math.sqrt(2), 0.5], [0.0, 0.5]], dtype=complex)
        m_b = np.array([[0.0, 0.5], [1 / math.sqrt(2), -0.5]], dtype=complex)
        c = ch.KrausChannel([m_a, m_b])
        assert ch.is_mio(c)
        with pytest.raises(ch.NoIncoherentRepresentationError) as exc:
            ch.qubit_mio_to_io(c)
        g = c.unit_actions()
        a = np.diag(np.diag(g[:, :, 0, 0]).real)
        b = np.diag(np.diag(g[:, :, 1, 1]).real)
        cross = np.abs(g[:, :, 0, 1])
        m = np.block([[a, cross], [cross.T, b]])
        v = exc.value.certificate
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert v @ m @ v == pytest.approx((1.0 - math.sqrt(2.0)) / 2.0, abs=1e-9)

    @staticmethod
    def reducible():
        """C = E(|0><1|) = diag(.433, -.433): |C| splits into two blocks, so a
        single Perron pair of the whole matrix has zero entries."""
        k1 = np.array([[math.sqrt(0.5), math.sqrt(0.375)], [0.0, 0.0]])
        k2 = np.array([[0.0, 0.0], [math.sqrt(0.3), -math.sqrt(0.625)]])
        k3 = np.array([[0.0, 0.0], [math.sqrt(0.2), 0.0]])
        return ch.KrausChannel([k1, k2, k3])

    def test_reducible_cross_block_canonicalizes_exactly(self):
        c = self.reducible()
        out = ch.qubit_mio_to_io(c)
        assert ch.is_io_rep(out)
        assert ch.choi_distance(c, out) <= 1e-8

    @staticmethod
    def io_matrix(c):
        """M = [[diag a, |C|], [|C|^T, diag b]] read off the Kraus operators:
        a and b are the squared column norms, C = sum_j K_j|0><1|K_j^dag."""
        s = c.kraus
        a = np.sum(np.abs(s[:, :, 0]) ** 2, axis=0)
        b = np.sum(np.abs(s[:, :, 1]) ** 2, axis=0)
        cross = np.abs(np.einsum("jy,jw->yw", s[:, :, 0], s[:, :, 1].conj()))
        return np.block([[np.diag(a), cross], [cross.T, np.diag(b)]])

    @staticmethod
    def widened(seed):
        """The sampled channel of ``seed`` and its composite with an incoherent
        isometry V into d = 3-6."""
        c = ch.sample_mio_qubit_channel(seed)
        rng = np.random.default_rng(1000 + seed)
        d = 3 + seed % 4
        v = np.zeros((d, 2), dtype=complex)
        v[rng.permutation(d)[:2], [0, 1]] = np.exp(2j * np.pi * rng.random(2))
        return c, ch.KrausChannel([v @ k for k in c.kraus])

    def test_qubit_to_d_channels_keep_the_qubit_verdict(self):
        # composing with V keeps the verdict: V K is incoherent when K is, and
        # V^dag undoes V on any incoherent representation of the composite
        verdicts = []
        for seed in range(40):
            c, wide = self.widened(seed)
            d = wide.dout
            feasible = np.linalg.eigvalsh(self.io_matrix(c))[0] >= -1e-10
            verdicts.append(feasible)
            if feasible:
                out = ch.qubit_mio_to_io(wide)
                assert (out.din, out.dout) == (2, d)
                assert ch.is_io_rep(out)
                assert ch.choi_distance(wide, out) <= 1e-8
            else:
                with pytest.raises(ch.NoIncoherentRepresentationError) as exc:
                    ch.qubit_mio_to_io(wide)
                w = exc.value.certificate
                assert w @ self.io_matrix(wide) @ w < -1e-10
        assert any(verdicts) and not all(verdicts)

    def test_verdicts_certificates_and_stacks_are_pinned(self):
        # the sampled channels of seeds 0-499 and the qubit -> d composites
        # above: each verdict with its certificate or its rebuilt Kraus stack
        digest = hashlib.sha256()
        no_representation = 0
        channels = [ch.sample_mio_qubit_channel(seed) for seed in range(500)]
        channels += [self.widened(seed)[1] for seed in range(40)]
        for index, c in enumerate(channels):
            try:
                out = ch.qubit_mio_to_io(c)
            except ch.NoIncoherentRepresentationError as exc:
                no_representation += index < 500
                digest.update(b"none" + exc.certificate.tobytes())
            else:
                digest.update(b"rep" + out.kraus.tobytes())
        assert no_representation == 121
        assert digest.hexdigest() == (
            "e63f58a2ba892f326155a4179eec8a94255ae90395dc9bc22fcbbf2b52fe59f5"
        )

    def test_one_eigh_and_one_svd_per_block(self, monkeypatch):
        channels = [ch.sample_mio_qubit_channel(seed) for seed in range(20)] + [self.reducible()]
        calls = collections.Counter()
        lapack = ch._umath_linalg

        class Counting:
            def __getattr__(self, name):
                def counted(*args, **kwargs):
                    calls[name] += 1
                    return getattr(lapack, name)(*args, **kwargs)

                return counted

        def no_block(*args, **kwargs):
            raise AssertionError("np.block called")

        monkeypatch.setattr(ch, "_umath_linalg", Counting())
        monkeypatch.setattr(np, "block", no_block)
        seen = set()
        for c in channels:
            calls.clear()
            try:
                ch.qubit_mio_to_io(c)
            except ch.NoIncoherentRepresentationError:
                assert calls == {"eigh_lo": 1}
                seen.add("none")
                continue
            n_blocks = len(union_find_blocks(np.abs(c.unit_actions()[:, :, 0, 1]) > 1e-11))
            assert calls == {"eigh_lo": 1, "svd_f": n_blocks}
            seen.add(n_blocks)
        assert seen == {"none", 1, 2}

    def test_qubit_to_qutrit_example_has_no_io_representation(self):
        # no IO map takes |+> to the example's target (8/9, 1/18, 1/18):
        # its partial sums do not dominate those of (1/2, 1/2, 0)
        c = ch.qubit_to_qutrit_mio_example()
        with pytest.raises(ch.NoIncoherentRepresentationError) as exc:
            ch.qubit_mio_to_io(c)
        m = self.io_matrix(c)
        v = exc.value.certificate
        assert v.shape == (6,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert v @ m @ v == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-12)
        assert v @ m @ v == pytest.approx(-0.16268, abs=1e-5)

    def test_rejects_non_mio(self):
        with pytest.raises(ValueError):
            ch.qubit_mio_to_io(ch.KrausChannel([HADAMARD]))

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError):
            ch.qubit_mio_to_io(dephasing_channel(3))


class TestMioSampler:
    def test_deterministic(self):
        a = ch.sample_mio_qubit_channel(123)
        b = ch.sample_mio_qubit_channel(123)
        assert ch.choi_distance(a, b) == 0.0

    def test_samples_are_mio_cptp(self):
        for seed in range(20):
            c = ch.sample_mio_qubit_channel(seed)
            assert c.din == c.dout == 2
            assert ch.is_mio(c)

    def test_raw_representations_usually_not_io(self):
        fails = sum(
            0 if ch.is_io_rep(ch.sample_mio_qubit_channel(seed)) else 1
            for seed in range(30)
        )
        assert fails >= 9  # >= 30%

    def test_kraus_stacks_are_pinned(self):
        # criterion 11 reads the channels of seeds 0-499, so their bits are fixed
        digest = hashlib.sha256()
        for seed in range(500):
            digest.update(ch.sample_mio_qubit_channel(seed).kraus.tobytes())
        assert digest.hexdigest() == (
            "4aeac926bf700fc749b764bf9b0ec3b5e54fc09f5c6d665e76b3282276814103"
        )
