import itertools
import warnings

import numpy as np
import pytest

from coherence_kit import monotones as mo
from coherence_kit.numerics import (
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
from linalg_checks import is_psd


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


def lambda_max_hooks(a):
    """min s s.t. s I - A > 0, whose optimum is lambda_max(A); the dual point
    Z = S^-1 / Tr S^-1 is a density matrix, so Tr(A Z) bounds it from below."""
    eye = np.eye(a.shape[0])

    def slack(y):
        return (y[0] * eye - a,)

    def newton(s_inv, t):
        (z,) = s_inv
        grad = np.array([t - np.trace(z).real])
        return grad, -grad / np.vdot(z, z).real

    def bound(y, s_inv):
        (z,) = s_inv
        return float(np.vdot(z / np.trace(z).real, a).real)

    return slack, newton, bound


class TestLogDetBarrier:
    def test_lambda_max_is_bracketed(self):
        for seed in range(12):
            a = random_hermitian(2 + seed % 5, 40 + seed)
            start = np.array([np.linalg.norm(a) + 1.0])
            y, low = log_det_barrier(start, np.ones(1), *lambda_max_hooks(a), gap=1e-9)
            top = np.linalg.eigvalsh(a)[-1]
            assert low <= top + 1e-12 and top <= y[0] + 1e-12
            assert y[0] - low <= 1e-9

    def test_singular_newton_system_raises(self):
        a = random_hermitian(3, 5)
        slack, _, bound = lambda_max_hooks(a)

        def singular(s_inv, t):
            return np.zeros(1), -np.linalg.solve(np.zeros((1, 1)), np.zeros(1))

        start = np.array([np.linalg.norm(a) + 1.0])
        # not LinAlgError: that is a ValueError, which the CLI reports as an
        # invalid input
        with pytest.raises(ArithmeticError):
            log_det_barrier(start, np.ones(1), slack, singular, bound, gap=1e-9)

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

        start = np.array([np.linalg.norm(a) + 1.0])
        with pytest.raises(ArithmeticError):
            log_det_barrier(start, np.ones(1), slack, pinned, counted, gap=1e-9)
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

        start = np.array([np.linalg.norm(a) + 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                log_det_barrier(start, np.ones(1), slack, flat, counted, gap=1e-9)
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
            log_det_barrier(np.array([y0]), np.ones(1), slack, recorded, bound, gap=1e-9)
            assert type(seen[0]) is float
            assert seen[0] == pytest.approx(d / gap0, rel=1e-12)

    @pytest.mark.parametrize(
        "solve, d, seed", [(mo.c_r, 3, 0), (mo._incoherent_trace_distance, 4, 1042)]
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
            return (0.0 * grad, 0.0 * step) if t == 8.0 * seen[0] else (grad, step)

        start = np.array([np.linalg.norm(a) + 1.0])
        y, low = log_det_barrier(start, np.ones(1), slack, centered_at_8, bound, gap=1e-9)
        assert seen.count(8.0 * seen[0]) == 1 and max(seen) > 8.0 * seen[0]
        top = np.linalg.eigvalsh(a)[-1]
        assert low <= top + 1e-12 and top <= y[0] + 1e-12
        assert y[0] - low <= 1e-9

    def test_step_out_of_the_domain_raises(self):
        # a step 1e6 times too long (a Hessian 1e6 times too small) makes the
        # damped step overshoot lambda_max, so the next Cholesky factorization
        # fails
        a = random_hermitian(4, 8)
        slack, newton, bound = lambda_max_hooks(a)

        def flat(s_inv, t):
            grad, step = newton(s_inv, t)
            return grad, 1e6 * step

        start = np.array([np.linalg.norm(a) + 1.0])
        with pytest.raises(ArithmeticError):
            log_det_barrier(start, np.ones(1), slack, flat, bound, gap=1e-9)

    def test_infeasible_start_raises(self):
        a = random_hermitian(3, 9)
        start = np.array([np.linalg.eigvalsh(a)[-1] - 0.5])
        with pytest.raises(ArithmeticError):
            log_det_barrier(start, np.ones(1), *lambda_max_hooks(a), gap=1e-9)


def newton_systems(monkeypatch, rhos) -> list:
    """Newton systems solved by each C_R barrier solve of ``rhos``, counted
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
        report = mo.c_r(rho, method="cutting_plane")
        assert report.value - report.bound <= mo.C_R_GAP
    return counts


class TestGapDrivenSchedule:
    """After a damped step taken at decrement^2 <= 1, t follows the certified
    gap: t <- max(t, BARRIER_MU * nu / gap). The budgets are mean Newton
    systems per C_R solve; the schedule without the rule took 31.6 and 41.5,
    and the rule applied after every step, unguarded, took 86.5 (mu = 4) and
    699 (mu = 8) on the rank-1 set."""

    def test_budget_on_random_d3_states(self, monkeypatch):
        counts = newton_systems(monkeypatch, [random_density(3, seed) for seed in range(60)])
        assert np.mean(counts) <= 22.0

    def test_budget_on_rank_one_d16_states(self, monkeypatch):
        rhos = [random_pure(16, seed).to_density() for seed in range(15)]
        assert np.mean(newton_systems(monkeypatch, rhos)) <= 41.5

    def test_t_moves_only_by_the_two_rules(self, monkeypatch):
        # events in order: ("t", t, decrement) per Newton system, ("gap", gap)
        # per evaluation; C_R's cost is all ones, so gap = sum(y) - bound
        events = []

        def recording(y, cost, slack, newton, bound, gap):
            def bound_hook(y, s_inv):
                low = bound(y, s_inv)
                events.append(("gap", float(np.sum(y)) - low))
                return low

            def newton_hook(s_inv, t):
                grad, step = newton(s_inv, t)
                events.append(("t", t, float(-grad @ step)))
                return grad, step

            return log_det_barrier(y, cost, slack, newton_hook, bound_hook, gap)

        monkeypatch.setattr(mo, "log_det_barrier", recording)
        d = 5
        mo.c_r(random_density(d, 3), method="cutting_plane")
        pulled = kept = 0
        for i, event in enumerate(events[:-1]):
            if event[0] != "t":
                continue
            _, t, decrement = event
            following = events[i + 1]
            if decrement <= 1e-8:
                assert following == ("t", 8.0 * t, following[2])
                continue
            # a step: one evaluation, then the next Newton system unless the
            # gap closed there
            if i + 2 == len(events):
                break
            gap = following[1]
            next_t = events[i + 2][1]
            if decrement <= 1.0:
                assert next_t == max(t, BARRIER_MU * d / gap)
                pulled += next_t > t
            else:
                assert next_t == t
                kept += 1
        assert pulled > 2 and kept > 0


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

    @pytest.mark.parametrize(
        "solve, d, seed",
        [
            (mo.c_r, 3, 0),
            (mo.c_r, 8, 1),
            (mo.c_r, 16, 2),
            (mo._incoherent_trace_distance, 3, 0),
            (mo._incoherent_trace_distance, 4, 1042),
            (mo._incoherent_trace_distance, 8, 2),
        ],
    )
    def test_every_step_lowers_f_by_omega(self, monkeypatch, solve, d, seed):
        checked = 0
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
