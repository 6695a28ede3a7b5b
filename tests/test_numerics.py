import hashlib
import itertools
import warnings

import numpy as np
import pytest

from coherence_kit import monotones as mo
from coherence_kit import numerics
from coherence_kit.numerics import (
    BARRIER_FAR_PULLS,
    BARRIER_MU,
    BirkhoffDecomposition,
    InfeasibleError,
    LinearProgram,
    UnboundedError,
    birkhoff_decompose,
    eig_hermitian,
    log_det_barrier,
    mat_power_psd,
    solve_lp,
    trace_norm,
)
from coherence_kit.states import random_density, random_pure
from linalg_checks import is_psd, rank_k_state


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def char_poly_roots(mat):
    """Independent oracle: roots of the characteristic polynomial via the
    companion matrix built by np.roots."""
    coeffs = np.poly(mat)
    return np.sort(np.roots(coeffs).real)


class TestEigHermitian:
    def test_identity(self):
        dec = eig_hermitian(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])

    def test_diagonal(self):
        dec = eig_hermitian(np.diag([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 2.0])

    def test_matches_companion_matrix_oracle(self):
        m = random_hermitian(4, 7)
        dec = eig_hermitian(m)
        assert np.allclose(dec.eigenvalues, char_poly_roots(m), atol=1e-8)

    def test_orthonormality_and_reconstruction(self):
        for seed in range(20):
            m = random_hermitian(2 + seed % 5, seed)
            dec = eig_hermitian(m)
            v = dec.eigenvectors
            assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[0])) <= 1e-9
            rebuilt = (v * dec.eigenvalues) @ v.conj().T
            assert np.linalg.norm(m - rebuilt) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStackedEigHermitian:
    """A stack (K, n, n) is one LAPACK call whose rows carry np.linalg.eigh's
    bits, and whose checks hold row by row."""

    @staticmethod
    def stack(d, k=5):
        return np.stack([random_hermitian(d, 100 * d + j) for j in range(k)])

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 64])
    def test_rows_are_numpy_eigh_bit_for_bit(self, d):
        mats = self.stack(d)
        dec = eig_hermitian(mats)
        assert dec.eigenvalues.shape == (5, d) and dec.eigenvectors.shape == (5, d, d)
        for k, m in enumerate(mats):
            vals, vecs = np.linalg.eigh(m)
            alone = eig_hermitian(m)
            for got in (dec.eigenvalues[k], alone.eigenvalues):
                assert got.tobytes() == vals.tobytes()
            for got in (dec.eigenvectors[k], alone.eigenvectors):
                assert got.tobytes() == vecs.tobytes()

    def test_one_non_hermitian_row_fails_the_stack(self):
        mats = self.stack(3)
        mats[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(mats)
        eig_hermitian(np.delete(mats, 2, axis=0))

    def test_a_row_over_the_residual_tolerance_fails_the_stack(self, monkeypatch):
        class OffByOneRow:
            @staticmethod
            def eigh_lo(a):
                vals, vecs = np.linalg.eigh(a)
                vals[3:4, -1] += 1e-6  # row 3, where the stack has one
                return vals, vecs

        mats = self.stack(4)
        monkeypatch.setattr(numerics, "_umath_linalg", OffByOneRow)
        with pytest.raises(ArithmeticError, match="residual"):
            eig_hermitian(mats)
        eig_hermitian(mats[:3])

    def test_rejects_a_stack_of_non_square_matrices(self):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.ones((2, 2, 3)))


class TestIsPsd:
    def test_zero_matrix(self):
        assert is_psd(np.zeros((2, 2)), 1e-10)

    def test_indefinite_2x2(self):
        # eigenvalues 1 +- 2 by the closed form for [[a, b], [b, a]]
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-10)

    def test_rank_one_gram(self):
        # all-ones 3x3 has eigenvalues {3, 0, 0}
        assert is_psd(np.ones((3, 3)), 1e-10)


class TestMatPowerPsd:
    def test_identity_sqrt(self):
        assert np.allclose(mat_power_psd(np.eye(3), 0.5), np.eye(3))

    def test_diagonal_sqrt(self):
        assert np.allclose(mat_power_psd(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        left = mat_power_psd(rho, 0.3) @ mat_power_psd(rho, 0.7)
        assert np.allclose(left, rho, atol=1e-9)

    def test_integer_power_matches_repeated_multiplication(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3))
        m = g @ g.T
        assert np.allclose(mat_power_psd(m, 3.0), m @ m @ m, atol=1e-9 * np.linalg.norm(m) ** 3)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            mat_power_psd(np.diag([1.0, -0.5]), 0.5)


def lp_vertex_oracle(lp: LinearProgram):
    """Enumerate candidate vertices from all n-subsets of tight constraints."""
    n = lp.objective.size
    rows = [(np.asarray(a, float), float(b)) for a, b in lp.cuts]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, 0.0))
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in subset])
        b = np.array([rows[i][1] for i in subset])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(x) < -1e-9:
            continue
        if all(av @ x >= bv - 1e-9 for av, bv in rows):
            val = lp.objective @ x
            if best is None or val < best:
                best = val
    return best


class TestSolveLp:
    def test_separable_bounds(self):
        lp = LinearProgram([1.0, 1.0], [([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0)])
        d, value = solve_lp(lp)
        assert abs(value - 3.0) < 1e-9
        assert np.all(d >= -1e-12)

    def test_slack_absorbs(self):
        lp = LinearProgram([1.0, 0.0], [([1.0, 1.0], 4.0)])
        d, value = solve_lp(lp)
        assert abs(value) < 1e-9
        assert abs(d[0]) < 1e-9 and d[1] >= 4.0 - 1e-9

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n, m = 5, 8
            c = rng.random(n) + 0.1
            cuts = [(rng.random(n) + 0.05, rng.random()) for _ in range(m)]
            lp = LinearProgram(c, cuts)
            d, value = solve_lp(lp)
            oracle = lp_vertex_oracle(lp)
            assert oracle is not None
            assert abs(value - oracle) < 1e-8, trial
            for a, b in cuts:
                assert a @ d >= b - 1e-9

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_lp(LinearProgram([1.0], [([-1.0], 1.0)]))

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            solve_lp(LinearProgram([-1.0], [([1.0], 0.0)]))

    def test_cut_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, 1.0], [([1.0], 1.0)])

    def test_keeps_its_own_read_only_arrays(self):
        c, a = np.array([1.0, 2.0]), np.array([1.0, 1.0])
        lp = LinearProgram(c, [(a, 1.0)])
        c[0], a[1] = 9.0, 7.0
        assert lp.objective.tolist() == [1.0, 2.0]
        assert lp.cuts[0][0].tolist() == [1.0, 1.0]
        assert not lp.objective.flags.writeable and not lp.cuts[0][0].flags.writeable
        assert solve_lp(lp)[1] == pytest.approx(1.0, abs=1e-12)


class TestBirkhoff:
    def test_permutation_is_single_term(self):
        p = np.zeros((3, 3))
        p[[0, 1, 2], [2, 0, 1]] = 1.0
        dec = birkhoff_decompose(p)
        assert len(dec.terms) == 1
        w, perm = dec.terms[0]
        assert abs(w - 1.0) < 1e-12
        assert list(perm) == [2, 0, 1]

    def test_half_half(self):
        dec = birkhoff_decompose(np.full((2, 2), 0.5))
        weights = sorted(w for w, _ in dec.terms)
        assert len(dec.terms) == 2
        assert np.allclose(weights, [0.5, 0.5])

    def test_random_mix_roundtrip(self):
        rng = np.random.default_rng(2)
        for trial in range(15):
            d = 4
            target = np.zeros((d, d))
            for w in rng.dirichlet(np.ones(6)):
                perm = rng.permutation(d)
                mat = np.zeros((d, d))
                mat[np.arange(d), perm] = 1.0
                target += w * mat
            dec = birkhoff_decompose(target)
            assert np.max(np.abs(dec.matrix() - target)) <= 1e-8, trial
            assert len(dec.terms) <= (d - 1) ** 2 + 1
            assert abs(sum(w for w, _ in dec.terms) - 1.0) <= 1e-9

    def test_dense_balanced_matrices_stay_within_the_term_bound(self):
        # every extraction zeroes an entry, so no compression pass is needed
        rng = np.random.default_rng(3)
        for d in range(2, 9):
            m = rng.random((d, d)) + 1e-3
            for _ in range(500):
                m = m / m.sum(axis=1, keepdims=True)
                m = m / m.sum(axis=0, keepdims=True)
            dec = birkhoff_decompose(m)
            assert np.max(np.abs(dec.matrix() - m)) <= 1e-8, d
            assert len(dec.terms) <= (d - 1) ** 2 + 1, d

    def test_rejects_bad_sums(self):
        with pytest.raises(ValueError):
            birkhoff_decompose(np.array([[0.6, 0.6], [0.4, 0.4]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            birkhoff_decompose(np.array([[1.2, -0.2], [-0.2, 1.2]]))


class TestTraceNorm:
    def test_diagonal(self):
        assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-12

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_matches_eigenvalues(self):
        m = random_hermitian(5, 9)
        expected = np.sum(np.abs(eig_hermitian(m).eigenvalues))
        assert abs(trace_norm(m) - expected) < 1e-9


def c_r(rho):
    """C_R through the barrier, the route these tests watch (the default
    route certifies most states without it)."""
    return mo.c_r(rho, method="cutting_plane")


def lambda_max_hooks(a):
    """min s s.t. s I - A > 0 for a d x d matrix A, whose optimum is
    lambda_max(A); the dual point Z = S^-1 / Tr S^-1 is a density matrix, so
    Tr(A Z) bounds it from below."""
    eye = np.eye(len(a))

    def slack(y):
        return (y[0] * eye - a,)

    def newton(s_inv, t):
        (z,) = s_inv
        grad = np.array([t - np.trace(z).real])
        return grad, -grad / (np.abs(z) ** 2).sum()

    def bound(y, s_inv):
        (z,) = s_inv
        return float((z * a.T).sum().real / np.trace(z).real)

    return slack, newton, bound


def lambda_max(start, slack, newton, bound):
    """(s, bound) of min s s.t. s I - A > 0 from ``start``, A in the hooks."""
    y, low = log_det_barrier(np.array([start]), np.ones(1), slack, newton, bound, gap=1e-9)
    assert y.shape == (1,) and isinstance(low, float)
    return y[0], low


def barrier_digest() -> str:
    """sha256 over the value, bound and witness bytes of C_R forced through
    the barrier on random_density(d, s), d = 2..8 and s = 0..19, and on two
    d = 64 low-rank states whose solves restart, then over the value, bound
    and q bytes of the trace distance at random_density(d, 1000 + s), d = 3..5
    and s = 0..3."""
    digest = hashlib.sha256()
    rhos = [random_density(d, s) for d in range(2, 9) for s in range(20)]
    for rho in rhos + [rank_k_state(64, 2, 11), rank_k_state(64, 3, 0)]:
        report = c_r(rho)
        digest.update(np.array([report.value, report.bound]).tobytes() + report.witness.tobytes())
    for d in range(3, 6):
        for s in range(4):
            value, bound, q = mo._incoherent_trace_distance(random_density(d, 1000 + s))
            digest.update(np.array([value, bound]).tobytes() + q.tobytes())
    return digest.hexdigest()


# taken while the kernel still solved a batch of problems in lockstep
BARRIER_PIN = "94fbbed50e27f1fc83c2fe5c8c79268290aad676cc7cb438e587ad71f7f6263f"


class TestLogDetBarrier:
    def test_outputs_are_pinned(self):
        assert barrier_digest() == BARRIER_PIN

    def test_lambda_max_is_bracketed(self):
        # twelve sizes and seeds from just outside the spectrum, and five d = 4
        # problems started ever farther from the optimum, up to 1e8 away
        problems = [(random_hermitian(2 + seed % 5, 40 + seed), 1.0) for seed in range(12)]
        problems += [(random_hermitian(4, 70 + k), 100.0**k) for k in range(5)]
        for a, offset in problems:
            start = np.linalg.norm(a) + offset
            y, low = lambda_max(start, *lambda_max_hooks(a))
            top = np.linalg.eigvalsh(a)[-1]
            assert low <= top + 1e-12 and top <= y + 1e-12
            assert y - low <= 1e-9

    def test_rows_closing_at_different_rounds_match_their_single_solves(self):
        # five d = 4 problems started ever farther from the optimum, so their
        # gaps close after different numbers of Newton systems; solved one
        # after another, forwards and backwards, each gives the bits of its
        # solve alone, so no solve carries state into the next
        problems = [random_hermitian(4, 70 + k) for k in range(5)]
        starts = [np.linalg.norm(a) + 100.0**k for k, a in enumerate(problems)]
        rounds = []

        def solve(k):
            slack, newton, bound = lambda_max_hooks(problems[k])
            systems = []

            def counted(s_inv, t):
                systems.append(t)
                return newton(s_inv, t)

            result = lambda_max(starts[k], slack, counted, bound)
            rounds.append(len(systems))
            return result

        alone = [solve(k) for k in range(5)]
        assert len(set(rounds)) == 5
        backwards = [solve(k) for k in reversed(range(5))][::-1]
        assert rounds[5:] == rounds[:5][::-1]
        for k, a in enumerate(problems):
            assert backwards[k] == alone[k]
            y, low = alone[k]
            top = np.linalg.eigvalsh(a)[-1]
            assert low <= top + 1e-12 and top <= y + 1e-12
            assert y - low <= 1e-9

    def test_one_infeasible_row_raises_for_the_batch(self):
        # three d = 3 problems solved one after another, the middle one from
        # below lambda_max: that one raises, and its neighbours give the bits
        # they give alone
        problems = [random_hermitian(3, 80 + k) for k in range(3)]
        starts = [np.linalg.norm(a) + 1.0 for a in problems]
        starts[1] = np.linalg.eigvalsh(problems[1])[-1] - 0.5
        alone = [lambda_max(starts[k], *lambda_max_hooks(problems[k])) for k in (0, 2)]
        run = []
        for k in range(3):
            try:
                run.append(lambda_max(starts[k], *lambda_max_hooks(problems[k])))
            except ArithmeticError:
                run.append(None)
        assert run == [alone[0], None, alone[1]]

    def test_singular_newton_system_raises(self):
        a = random_hermitian(3, 5)
        slack, _, bound = lambda_max_hooks(a)

        def singular(s_inv, t):
            return np.zeros(1), -np.linalg.solve(np.zeros((1, 1)), np.zeros(1))

        # not LinAlgError: that is a ValueError, which the CLI reports as an
        # invalid input
        with pytest.raises(ArithmeticError):
            lambda_max(np.linalg.norm(a) + 1.0, slack, singular, bound)

    def test_open_gap_raises_after_the_step_cap(self):
        # a Newton system pinned at t = 1 keeps the iterate centered there, so
        # t never effectively grows and the gap stays open until the cap
        a = random_hermitian(4, 6)
        slack, newton, bound = lambda_max_hooks(a)
        bounds, decrements = [], []

        def pinned(s_inv, t):
            grad, step = newton(s_inv, 1.0)
            decrements.append(float(-grad @ step))
            return grad, step

        def counted(y, s_inv):
            bounds.append(y)
            return bound(y, s_inv)

        with pytest.raises(ArithmeticError):
            lambda_max(np.linalg.norm(a) + 1.0, slack, pinned, counted)
        assert len(decrements) == 2400
        steps = sum(dec > 1e-8 for dec in decrements)
        assert 0 < steps < 2400 and len(bounds) == 1 + steps

    def test_cap_counts_growths_of_t(self):
        # a zero gradient centers every iterate, so each of the 2400 iterations
        # grows t and none moves y; t overflows to inf as a Python float,
        # without a numpy warning
        a = random_hermitian(3, 10)
        slack, _, bound = lambda_max_hooks(a)
        bounds, ts = [], []

        def flat(s_inv, t):
            ts.append(t)
            return np.zeros(1), np.zeros(1)

        def counted(y, s_inv):
            bounds.append(y)
            return bound(y, s_inv)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                lambda_max(np.linalg.norm(a) + 1.0, slack, flat, counted)
        assert len(ts) == 2400 and len(bounds) == 1
        assert ts[1] == 8.0 * ts[0] and ts[-1] == np.inf

    def test_start_t_is_nu_over_the_start_gap(self):
        # on the central path the gap is nu / t, with nu = d for one d x d
        # block; gap_0 = y_0 - Tr(A Z_0), Z_0 = S_0^-1 / Tr S_0^-1, is read
        # here off the eigenvalues of A
        for seed in range(6):
            d = 2 + seed
            a = random_hermitian(d, 60 + seed)
            slack, newton, bound = lambda_max_hooks(a)
            seen = []

            def recorded(s_inv, t):
                seen.append(t)
                return newton(s_inv, t)

            y0 = float(np.linalg.norm(a) + 1.0)
            lam = np.linalg.eigvalsh(a)
            weights = 1.0 / (y0 - lam)
            gap0 = y0 - float(lam @ weights / weights.sum())
            lambda_max(y0, slack, recorded, bound)
            assert type(seen[0]) is float
            assert seen[0] == pytest.approx(d / gap0, rel=1e-12)

    @pytest.mark.parametrize(
        "solve, d, seed", [(c_r, 3, 0), (mo._incoherent_trace_distance, 4, 1042)]
    )
    def test_each_iterate_is_evaluated_once(self, monkeypatch, solve, d, seed):
        # every Newton system is either a step, which the next evaluation
        # follows, or a growth of t by 8 at the same iterate, which another
        # Newton system follows; the start is evaluated before either
        slacks, bounds, events = [], [], []

        def recording(y, cost, slack, newton, bound, gap):
            def slack_hook(y):
                slacks.append(y.tobytes())
                return slack(y)

            def bound_hook(y, s_inv):
                bounds.append(y.tobytes())
                events.append(None)
                return bound(y, s_inv)

            def newton_hook(s_inv, t):
                events.append(t)
                return newton(s_inv, t)

            return log_det_barrier(y, cost, slack_hook, newton_hook, bound_hook, gap)

        monkeypatch.setattr(mo, "log_det_barrier", recording)
        solve(random_density(d, seed))
        assert slacks == bounds and len(set(bounds)) == len(bounds)
        ts = [t for t in events if t is not None]
        growths = [(a, b) for a, b in zip(events, events[1:]) if a is not None and b is not None]
        assert all(b == 8.0 * a for a, b in growths)
        assert len(ts) == len(bounds) - 1 + len(growths)
        assert len(set(ts)) > 2

    def test_centered_round_takes_no_step_and_moves_on(self):
        # a zero gradient at 8 t_0 makes that round centered, so it takes no
        # step; the solve goes on to 64 t_0 and closes the gap there
        a = random_hermitian(4, 7)
        slack, newton, bound = lambda_max_hooks(a)
        seen = []

        def centered_at_8(s_inv, t):
            seen.append(t)
            grad, step = newton(s_inv, t)
            return (0.0 * grad, 0.0 * step) if seen[-1] == 8.0 * seen[0] else (grad, step)

        y, low = lambda_max(np.linalg.norm(a) + 1.0, slack, centered_at_8, bound)
        assert seen.count(8.0 * seen[0]) == 1 and max(seen) > 8.0 * seen[0]
        top = np.linalg.eigvalsh(a)[-1]
        assert low <= top + 1e-12 and top <= y + 1e-12
        assert y - low <= 1e-9

    def test_step_out_of_the_domain_raises(self):
        # a step 1e6 times too long (a Hessian 1e6 times too small) makes the
        # damped step overshoot lambda_max, so the next Cholesky factorization
        # fails
        a = random_hermitian(4, 8)
        slack, newton, bound = lambda_max_hooks(a)

        def flat(s_inv, t):
            grad, step = newton(s_inv, t)
            return grad, 1e6 * step

        with pytest.raises(ArithmeticError):
            lambda_max(np.linalg.norm(a) + 1.0, slack, flat, bound)

    def test_infeasible_start_raises(self):
        for seed in (9, 81):
            a = random_hermitian(3, seed)
            with pytest.raises(ArithmeticError):
                lambda_max(np.linalg.eigvalsh(a)[-1] - 0.5, *lambda_max_hooks(a))


class TestSolveStack:
    """The barrier's LAPACK path gives np.linalg.solve's bits and its error."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_np_linalg_solve(self, dtype):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 4, 4)).astype(dtype)
        b = rng.standard_normal((6, 4)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((6, 4, 4))
        x = numerics.solve_stack(a, b)
        assert x.shape == (6, 4) and x.dtype == a.dtype
        for k in range(6):
            assert np.array_equal(x[k], np.linalg.solve(a[k], b[k]))

    def test_singular_system_raises(self):
        a = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                numerics.solve_stack(a, np.ones((2, 2)))


class TestSvdGufunc:
    """The gufunc the qubit IO rebuild calls for each block's Perron pair
    gives np.linalg.svd's bits."""

    @pytest.mark.parametrize("rows, cols", itertools.product(range(1, 7), repeat=2))
    def test_matches_np_linalg_svd_on_real_blocks(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        k = np.abs(rng.standard_normal((rows, cols)))
        with np.errstate(**numerics._SVD_ERRSTATE):
            got = numerics._umath_linalg.svd_f(k)
        for mine, theirs in zip(got, np.linalg.svd(k)):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def c_r_gap(rho):
    """C_R's certified gap at rho, through the barrier, and its target."""
    report = mo.c_r(rho, method="cutting_plane")
    return report.value - report.bound, mo.C_R_GAP


def trace_distance_gap(rho):
    """The trace distance's certified gap at rho and its target."""
    value, bound, _ = mo._incoherent_trace_distance(rho)
    return value - bound, mo.TRACE_DISTANCE_GAP


def newton_systems(monkeypatch, rhos, solve=c_r_gap) -> list:
    """Newton systems solved by each barrier solve of ``rhos``, counted
    through a recording ``newton`` hook; every gap must close."""
    counts = []

    def recording(y, cost, slack, newton, bound, gap):
        counts.append(0)

        def newton_hook(s_inv, t):
            counts[-1] += 1
            return newton(s_inv, t)

        return log_det_barrier(y, cost, slack, newton_hook, bound, gap)

    monkeypatch.setattr(mo, "log_det_barrier", recording)
    for rho in rhos:
        gap, target = solve(rho)
        assert gap <= target
    return counts


def schedule_moves(monkeypatch, rho) -> list:
    """The move of t after each Newton system of rho's C_R solve, checked
    against the schedule: "growth" (t <- 8 t at a centered iterate), "near"
    and "far" (t <- max(t, BARRIER_MU * d / gap) after a step taken at
    decrement^2 <= 1 or above it), or "held" (t kept after a far step with
    no allowance left, where the pull would have raised it) or "kept" (where
    it would not). The last Newton system, whose step closed the gap, has no
    move."""
    events = []  # ("t", t, decrement) per Newton system, ("gap", gap) per evaluation

    def recording(y, cost, slack, newton, bound, gap):
        def bound_hook(y, s_inv):
            low = bound(y, s_inv)
            events.append(("gap", float(np.sum(y)) - low))  # C_R's cost is all ones
            return low

        def newton_hook(s_inv, t):
            grad, step = newton(s_inv, t)
            events.append(("t", t, float(-grad @ step)))
            return grad, step

        return log_det_barrier(y, cost, slack, newton_hook, bound_hook, gap)

    with monkeypatch.context() as patch:
        patch.setattr(mo, "log_det_barrier", recording)
        mo.c_r(rho, method="cutting_plane")
    moves, allowance = [], BARRIER_FAR_PULLS
    for i, event in enumerate(events[:-2]):
        if event[0] != "t":
            continue
        _, t, decrement = event
        if decrement <= 1e-8:
            assert events[i + 1] == ("t", 8.0 * t, events[i + 1][2])
            moves.append("growth")
            allowance = BARRIER_FAR_PULLS
            continue
        # a step: one evaluation, then the next Newton system
        (_, gap), (_, next_t, _) = events[i + 1], events[i + 2]
        pulled = max(t, BARRIER_MU * rho.dim / gap)
        if decrement <= 1.0:
            assert next_t == pulled
            moves.append("near")
            allowance = BARRIER_FAR_PULLS
        elif allowance:
            assert next_t == pulled
            moves.append("far")
            allowance -= 1
        else:
            assert next_t == t
            moves.append("held" if pulled > t else "kept")
    return moves


class TestGapDrivenSchedule:
    """After a damped step that leaves the gap open, t follows the certified
    gap, t <- max(t, BARRIER_MU * nu / gap): always after a step taken at
    decrement^2 <= 1, and after at most BARRIER_FAR_PULLS far steps in a row.
    The budgets are mean Newton systems per solve. For C_R, the schedule
    without far pulls took 19.9 and 24.5, and with far pulls unlimited 10.1
    and 1831, on the d = 3 and rank-1 d = 16 sets; on the trace-distance set
    the schedule without far pulls took 41.63."""

    # (rank, seed) of rank_k_state(64, rank, seed) states whose C_R solves
    # with far pulls, and no restart, ran out of rounds, while the schedule
    # without far pulls closes them
    STALLING = [(2, 3), (2, 11), (2, 24), (2, 26), (2, 31), (2, 35), (2, 39)]
    STALLING += [(3, 12), (3, 19), (3, 20), (3, 25), (3, 28), (3, 36)]

    def test_budget_on_random_d3_states(self, monkeypatch):
        counts = newton_systems(monkeypatch, [random_density(3, seed) for seed in range(60)])
        assert np.mean(counts) <= 13.0

    def test_budget_on_rank_one_d16_states(self, monkeypatch):
        rhos = [random_pure(16, seed).to_density() for seed in range(15)]
        assert np.mean(newton_systems(monkeypatch, rhos)) <= 24.5

    def test_budget_on_trace_distance_d4_states(self, monkeypatch):
        rhos = [random_density(4, seed) for seed in range(1000, 1030)]
        assert np.mean(newton_systems(monkeypatch, rhos, trace_distance_gap)) <= 41.6

    def test_budget_on_the_rank_three_d64_state(self, monkeypatch):
        # 41 Newton systems without far pulls; with them the solve grows t past
        # BARRIER_MU * nu / gap at the 52nd and restarts (2120 without restart)
        (count,) = newton_systems(monkeypatch, [rank_k_state(64, 3, 0)])
        assert count <= 100

    def test_a_row_that_grows_t_past_the_bound_restarts_without_far_pulls(
        self, monkeypatch
    ):
        # every state closes, and each report is, bit for bit, the one the
        # schedule without far pulls gives, through c_r_many and alone
        rhos = [rank_k_state(64, rank, seed) for rank, seed in self.STALLING]
        batch = mo.c_r_many(rhos, method="cutting_plane")
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "BARRIER_FAR_PULLS", 0)
            without = mo.c_r_many(rhos, method="cutting_plane")
        for k, (report, safe) in enumerate(zip(batch, without)):
            assert report.method == safe.method == "barrier"
            assert report.value - report.bound <= mo.C_R_GAP
            assert (report.value, report.bound) == (safe.value, safe.bound)
            assert report.witness.tobytes() == safe.witness.tobytes()
        for k in (0, 7):
            alone = c_r(rhos[k])
            assert (alone.value, alone.bound) == (batch[k].value, batch[k].bound)

    def test_t_moves_only_by_the_three_rules(self, monkeypatch):
        # schedule_moves checks every move; here the far pulls happen, the
        # allowance runs out and holds t, and both a growth and a near-path
        # pull renew an allowance that had run out
        renewed_by = set()
        for rho in (random_density(5, 3), random_density(3, 0)):
            moves = schedule_moves(monkeypatch, rho)
            assert "far" in moves and "held" in moves
            for i, move in enumerate(moves):
                if move in ("growth", "near") and "held" in moves[:i] and "far" in moves[i:]:
                    renewed_by.add(move)
        assert renewed_by == {"growth", "near"}

    def test_rows_spending_their_far_pulls_at_different_rounds_match_their_single_solves(
        self, monkeypatch
    ):
        # the round of each state's last far pull before a hold, read off its
        # single solve, differs from state to state; through one c_r_many call
        # every state still gets its single solve's report, bit for bit
        rhos = [
            random_density(8, 1),
            random_pure(8, 0).to_density(),
            random_pure(8, 2).to_density(),
            random_density(8, 5),
        ]
        spent = []
        for rho in rhos:
            moves = schedule_moves(monkeypatch, rho)
            spent.append(
                tuple(i for i, (a, b) in enumerate(zip(moves, moves[1:])) if (a, b) == ("far", "held"))
            )
        assert all(spent) and len(set(spent)) == len(rhos)
        batch = mo.c_r_many(rhos, method="cutting_plane")
        for rho, report in zip(rhos, batch):
            alone = mo.c_r(rho, method="cutting_plane")
            assert report.method == alone.method == "barrier"
            assert (report.value, report.bound) == (alone.value, alone.bound)
            assert report.witness.tobytes() == alone.witness.tobytes()


def _log_det_barrier(blocks) -> float:
    """-log det S summed over the blocks, or +inf when one is not positive definite."""
    total = 0.0
    for block in blocks:
        try:
            chol = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return np.inf
        total += -2.0 * float(np.sum(np.log(chol.diagonal().real)))
    return total


class TestDampedNewtonDecrease:
    """Every damped step lowers f = t c.y - log det S by at least
    omega(lambda) = lambda - ln(1 + lambda) (Nesterov, Thm 4.1.12), which is
    why the kernel needs no line search. Checked on the steps of both
    clients' solves, with -log det S evaluated apart from the kernel."""

    @staticmethod
    def recorded_steps(monkeypatch, solve, rho):
        """(t, cost, slack, y, grad, step, next y) for every step the solve takes."""
        calls, problem = [], {}

        def recording(y, cost, slack, newton, bound, gap):
            def bound_hook(y, s_inv):
                calls.append({"y": y})
                return bound(y, s_inv)

            def newton_hook(s_inv, t):
                grad, step = newton(s_inv, t)
                calls[-1].update(t=t, grad=grad, step=step)
                return grad, step

            problem.update(cost=cost, slack=slack)
            return log_det_barrier(y, cost, slack, newton_hook, bound_hook, gap)

        monkeypatch.setattr(mo, "log_det_barrier", recording)
        solve(rho)
        return [
            (a["t"], problem["cost"], problem["slack"], a["y"], a["grad"], a["step"], b["y"])
            for a, b in zip(calls, calls[1:])
            if "grad" in a and not np.array_equal(a["y"], b["y"])
        ]

    # a d = 3 C_R solve takes about 11 Newton systems, too few steps below
    # t = 1e8 for ten checks, so that case checks three states
    @pytest.mark.parametrize(
        "solve, d, seeds",
        [
            (c_r, 3, (0, 1, 2)),
            (c_r, 8, (1,)),
            (c_r, 16, (2,)),
            (mo._incoherent_trace_distance, 3, (0,)),
            (mo._incoherent_trace_distance, 4, (1042,)),
            (mo._incoherent_trace_distance, 8, (2,)),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_every_step_lowers_f_by_omega(self, monkeypatch, solve, d, seeds):
        checked = 0
        for seed in seeds:
            for t, cost, slack, y, grad, step, y_next in self.recorded_steps(
                monkeypatch, solve, random_density(d, seed)
            ):
                if t > 1e8:
                    continue
                lam = np.sqrt(float(-grad @ step))
                before = t * float(cost @ y) + _log_det_barrier(slack(y))
                after = t * float(cost @ y_next) + _log_det_barrier(slack(y_next))
                rounding = 1e-9 * max(1.0, abs(t * float(cost @ y)))
                assert after <= before - (lam - np.log1p(lam)) + rounding
                checked += 1
        assert checked >= 10


def hermitian_basis(d):
    """An orthonormal basis of the d x d Hermitian matrices: the d diagonal
    units, then (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2 for each i < j."""
    units = []
    for i in range(d):
        unit = np.zeros((d, d), dtype=complex)
        unit[i, i] = 1.0
        units.append(unit)
    for i, j in zip(*np.triu_indices(d, 1)):
        for c in (1.0, 1j):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j], unit[j, i] = c / np.sqrt(2.0), np.conj(c) / np.sqrt(2.0)
            units.append(unit)
    return np.array(units)


def dense_trace_distance_step(mat, s_inv, t):
    """The trace distance's Newton step (dW, ds) and decrement^2 from the dense
    Hessian of order d^2 + 1 in an orthonormal Hermitian basis B_k of W:
    Tr(A B_k A B_l) for A = (I -+ W)^-1, plus r^2 (B_k,ii - ds)^2 terms."""
    a1, a2, a3 = s_inv
    r = a3.diagonal().real
    basis = hermitian_basis(len(mat))
    n = len(basis)
    hess = np.zeros((n + 1, n + 1))
    for a in (a1, a2):
        ab = a @ basis
        hess[:n, :n] += np.einsum("kij,lji->kl", ab, ab).real
    jac = np.vstack([basis.diagonal(axis1=1, axis2=2).real, -np.ones(len(mat))])
    hess += (jac * r**2) @ jac.T
    grad = np.append(np.einsum("ij,kji->k", a1 - a2 - t * mat, basis).real, t) + jac @ r
    x = -np.linalg.solve(hess, grad)
    return np.tensordot(x[:n], basis, 1), x[n], float(-grad @ x)


class TestStructuredTraceDistanceStep:
    """The trace distance's O(d^4) Newton step agrees with the dense solve in
    a Hermitian basis on every damped step the kernel takes (a centered
    iterate's step is rounding of a vanishing gradient). Past t ~ 1e4 the
    system's conditioning, not the structure, sets how far the two roundings
    drift apart."""

    @pytest.mark.parametrize("d, seed", [(3, 0), (3, 1), (4, 1042), (4, 1044)])
    def test_matches_the_dense_hessian(self, monkeypatch, d, seed):
        rho = random_density(d, seed)
        steps = []

        def recording(y, cost, slack, newton, bound, gap):
            def newton_hook(s_inv, t):
                grad, step = newton(s_inv, t)
                steps.append((s_inv, t, grad, step))
                return grad, step

            return log_det_barrier(y, cost, slack, newton_hook, bound, gap)

        monkeypatch.setattr(mo, "log_det_barrier", recording)
        mo._incoherent_trace_distance(rho)
        checked = 0
        for s_inv, t, grad, step in steps:
            if t >= 1e4 or -grad @ step <= 1e-8:
                continue
            dense_w, dense_s, decrement = dense_trace_distance_step(rho.mat, s_inv, t)
            step_w = step[:-1].view(complex).reshape(d, d)
            assert np.array_equal(step_w, step_w.conj().T)
            dense = np.append(dense_w.ravel(), dense_s)
            assert np.linalg.norm(np.append(step_w.ravel(), step[-1]) - dense) <= 1e-9 * (
                np.linalg.norm(dense)
            )
            assert float(-grad @ step) == pytest.approx(decrement, rel=1e-9)
            checked += 1
        assert checked >= 10
