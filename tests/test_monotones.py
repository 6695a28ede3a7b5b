import math

import numpy as np
import pytest

from coherence_kit import channels as ch
from coherence_kit import harness, numerics, states
from coherence_kit import monotones as mo
from coherence_kit.numerics import eig_hermitian, is_psd, mat_power_psd
from coherence_kit.states import (
    DensityMatrix,
    PureStateVector,
    dephase,
    is_incoherent,
    partial_dephase,
    qubit_standard_form,
    random_density,
    random_pure,
)

CROSSING_Q = np.array([8.0 / 9.0, 1.0 / 18.0, 1.0 / 18.0])


def plus_density():
    return PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0)).to_density()


def uniform_pure(n, d=None):
    d = d or n
    amps = np.zeros(d, dtype=complex)
    amps[:n] = 1.0 / math.sqrt(n)
    return PureStateVector(amps)


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


class TestRenyi:
    def test_uniform_two(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert mo.renyi([0.5, 0.5], alpha) == pytest.approx(1.0)

    def test_crossing_point(self):
        assert mo.renyi(CROSSING_Q, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_support_size(self):
        assert mo.renyi(CROSSING_Q, 0.0) == pytest.approx(math.log2(3.0))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            mo.renyi([0.5, 0.5], -0.1)

    def test_non_monotone_witness_profile(self):
        for alpha in np.linspace(0.0, 4.0, 50):
            gap = mo.renyi(CROSSING_Q, alpha) - 1.0
            if alpha < 0.5 - 1e-9:
                assert gap > 0.0
            elif alpha > 0.5 + 1e-9:
                assert gap < 0.0


class TestCAlpha:
    def test_incoherent_vanishes(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        for alpha in (0.0, 0.4, 1.0, 1.6, 2.0):
            assert mo.c_alpha(rho, alpha).value == pytest.approx(0.0, abs=1e-9)

    def test_plus_alpha_two(self):
        assert mo.c_alpha(plus_density(), 2.0).value == pytest.approx(1.0, abs=1e-12)

    def test_qubit_closed_form(self):
        p, r = 0.5, 0.3
        rho = DensityMatrix([[p, r], [r, 1 - p]])
        expected = 2 * math.log2(
            math.sqrt(p**2 + r**2) + math.sqrt((1 - p) ** 2 + r**2)
        )
        assert mo.c_alpha(rho, 2.0).value == pytest.approx(expected, abs=1e-12)

    def test_pure_reduces_to_renyi(self):
        psi = random_pure(4, 3)
        for alpha in (0.4, 0.8, 1.5, 2.0):
            assert mo.c_alpha(psi.to_density(), alpha).value == pytest.approx(
                mo.renyi(psi.probs, 1.0 / alpha), abs=1e-9
            )

    def test_alpha_one_dispatches_to_relative_entropy(self):
        rho = random_density(3, 2)
        assert mo.c_alpha(rho, 1.0).value == pytest.approx(mo.c_rel(rho).value)

    def test_range_check(self):
        with pytest.raises(ValueError):
            mo.c_alpha(plus_density(), 2.5)


class TestCRel:
    def test_plus(self):
        assert mo.c_rel(plus_density()).value == pytest.approx(1.0, abs=1e-12)

    def test_incoherent(self):
        assert mo.c_rel(DensityMatrix(np.diag([0.4, 0.6]))).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_qubit_robustness_expression(self):
        # entropy difference must agree with the f/h combination of the two
        # robustness measures on qubits
        def f(x):
            return binary_entropy(0.5 * (1.0 - math.sqrt(max(1.0 - x * x, 0.0))))

        for seed in range(40):
            rho = random_density(2, seed)
            sf = qubit_standard_form(rho)
            if sf.r < 1e-6 or sf.p > 1.0 - 1e-9:
                continue
            c_r_val = 2.0 * sf.r
            c_dr_val = sf.r / math.sqrt(sf.p * (1.0 - sf.p))
            ratio = c_r_val / c_dr_val
            expected = f(ratio) - f(ratio * math.sqrt(1.0 - c_dr_val**2))
            assert mo.c_rel(rho).value == pytest.approx(expected, abs=1e-9)


class TestCL1:
    def test_plus(self):
        assert mo.c_l1(plus_density()).value == pytest.approx(1.0, abs=1e-12)

    def test_qubit_standard_form(self):
        rho = DensityMatrix([[0.7, 0.2], [0.2, 0.3]])
        assert mo.c_l1(rho).value == pytest.approx(0.4, abs=1e-12)

    def test_incoherent(self):
        assert mo.c_l1(DensityMatrix(np.diag([1.0, 0.0]))).value == 0.0


class TestCQAlphaPure:
    def test_plus_any_alpha(self):
        psi = PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
        for alpha in (0.5, 1.0, 2.0, math.inf):
            assert mo.c_q_alpha_pure(psi, alpha).value == pytest.approx(1.0)

    def test_infinity_matches_log_robustness(self):
        psi = PureStateVector(np.sqrt(CROSSING_Q))
        val = mo.c_q_alpha_pure(psi, math.inf).value
        assert val == pytest.approx(1.0, abs=1e-12)
        c_r_val = mo.c_r(psi.to_density()).value
        assert val == pytest.approx(math.log2(1.0 + c_r_val), abs=1e-9)

    def test_alpha_one_is_shannon(self):
        psi = random_pure(4, 9)
        assert mo.c_q_alpha_pure(psi, 1.0).value == pytest.approx(
            mo.renyi(psi.probs, 1.0)
        )

    def test_range_check(self):
        with pytest.raises(ValueError):
            mo.c_q_alpha_pure(random_pure(2, 0), 0.4)


class TestCDeltaAlpha:
    def test_incoherent_vanishes(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        for side in ("right", "left"):
            for alpha in (0.3, 1.0, 1.7):
                assert mo.c_delta_alpha(rho, alpha, side).value == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_pure_right_side_is_shifted_renyi(self):
        psi = random_pure(5, 21)
        for alpha in (0.2, 0.6, 1.4, 2.0):
            assert mo.c_delta_alpha(psi.to_density(), alpha, "right").value == pytest.approx(
                mo.renyi(psi.probs, 2.0 - alpha), abs=1e-9
            )

    def test_alpha_one_numeric_limit(self):
        rho = random_density(3, 4)
        at_one = mo.c_delta_alpha(rho, 1.0, "right").value
        assert at_one == pytest.approx(mo.c_rel(rho).value, abs=1e-12)
        below = mo.c_delta_alpha(rho, 1.0 - 1e-4, "right").value
        above = mo.c_delta_alpha(rho, 1.0 + 1e-4, "right").value
        assert at_one == pytest.approx(below, abs=1e-3)
        assert at_one == pytest.approx(above, abs=1e-3)

    def test_left_side_full_rank_limit(self):
        rho = random_density(3, 6)
        at_one = mo.c_delta_alpha(rho, 1.0, "left").value
        below = mo.c_delta_alpha(rho, 1.0 - 1e-4, "left").value
        assert at_one == pytest.approx(below, abs=1e-3)

    def test_left_side_rank_deficient_is_infinite(self):
        assert math.isinf(mo.c_delta_alpha(plus_density(), 1.5, "left").value)


class TestTraceNormCoherence:
    def test_plus(self):
        assert mo.trace_norm_coherence(plus_density()).value == pytest.approx(1.0)

    def test_incoherent(self):
        assert mo.trace_norm_coherence(DensityMatrix(np.eye(3) / 3)).value == 0.0

    def test_invariant_under_incoherent_unitaries(self):
        rng = np.random.default_rng(30)
        rho = random_density(3, 12)
        for _ in range(5):
            u = ch.random_incoherent_unitary(3, rng)
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
            assert mo.trace_norm_coherence(rotated).value == pytest.approx(
                mo.trace_norm_coherence(rho).value, abs=1e-9
            )


class TestCR:
    def test_qubit_closed_form_vs_solver(self):
        for seed in range(60):
            rho = random_density(2, seed)
            closed = mo.c_r(rho).value
            solver = mo.c_r(rho, method="cutting_plane").value
            assert solver == pytest.approx(closed, abs=1e-8)
            assert closed == pytest.approx(2.0 * abs(rho.mat[0, 1]), abs=1e-12)

    def test_uniform_pure_reaches_dimension_bound(self):
        for n in (2, 3, 5, 16, 64):
            rho = uniform_pure(n).to_density()
            assert mo.c_r(rho).value == pytest.approx(n - 1.0, abs=1e-9)
            assert mo.c_r(rho, method="cutting_plane").value == pytest.approx(
                n - 1.0, abs=1e-6
            )

    def test_real_nonnegative_equals_l1(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            g = rng.standard_normal((4, 6))
            m = np.abs(g @ g.T)
            rho = DensityMatrix(m / np.trace(m))
            fast = mo.c_r(rho)
            assert fast.method == "closed_form"
            solver = mo.c_r(rho, method="cutting_plane").value
            assert solver == pytest.approx(mo.c_l1(rho).value, abs=1e-6)

    def test_solver_witness_is_feasible(self):
        for d in (4, 12, 32, 64):
            rho = random_density(d, 17)
            report = mo.c_r(rho, method="cutting_plane")
            assert report.value == pytest.approx(np.sum(report.witness) - 1.0, abs=1e-12)
            gap = np.diag(report.witness).astype(complex) - rho.mat
            assert np.linalg.eigvalsh(gap)[0] >= -1e-9

    @staticmethod
    def mixing_dual_bound(rho):
        """max Tr(rho Y) - 1 over Y = V^H V with unit columns, by coordinate
        ascent v_i <- g/|g|, g = sum_{j != i} rho_ji v_j (Wang, Chang & Kolter,
        arXiv:1706.00476); every iterate is dual feasible, so this is a lower
        bound on C_R whether or not it has converged."""
        d = rho.shape[0]
        rng = np.random.default_rng(0)
        v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        v /= np.linalg.norm(v, axis=0)
        previous = -math.inf
        for _ in range(5000):
            for i in range(d):
                g = v @ rho[:, i] - rho[i, i] * v[:, i]
                v[:, i] = g / np.linalg.norm(g)
            value = float(np.vdot(v.conj().T @ v, rho).real)
            if value - previous <= 1e-13:
                break
            previous = value
        return value - 1.0

    def test_solver_matches_mixing_dual_bound(self):
        for d in (12, 32):
            rho = random_density(d, d)
            value = mo.c_r(rho).value
            bound = self.mixing_dual_bound(rho.mat)
            assert bound - 1e-12 <= value <= bound + 1e-7

    def test_report_carries_its_dual_bound(self):
        for d in (3, 12, 32):
            rho = random_density(d, d)
            report = mo.c_r(rho)
            mixing = self.mixing_dual_bound(rho.mat)
            assert report.method == "barrier"
            assert mixing - 1e-9 <= report.bound <= report.value <= report.bound + 1e-9
            assert "bound" not in report.to_json_dict()
            assert report.to_json_dict(include_witness=True)["bound"] == report.bound

    def test_closed_forms_carry_no_bound(self):
        for rho in (plus_density(), random_density(2, 1), uniform_pure(3).to_density()):
            report = mo.c_r(rho)
            assert report.method == "closed_form"
            assert report.bound is None
            assert "bound" not in report.to_json_dict(include_witness=True)


class TestCDeltaR:
    def test_qubit_closed_form(self):
        for seed in range(40):
            rho = random_density(2, seed)
            sf = qubit_standard_form(rho)
            expected = sf.r / math.sqrt(sf.p * (1.0 - sf.p)) if sf.p < 1 - 1e-12 else 0.0
            assert mo.c_delta_r(rho).value == pytest.approx(expected, abs=1e-9)

    def test_pure_full_support(self):
        for n in (2, 4):
            psi = random_pure(n, n + 50)
            assert mo.c_delta_r(psi.to_density()).value == pytest.approx(
                n - 1.0, abs=1e-8
            )

    def test_incoherent(self):
        assert mo.c_delta_r(DensityMatrix(np.diag([0.1, 0.9]))).value == 0.0

    def test_matches_psd_bisection_oracle(self):
        for seed in range(40):
            d = 2 + seed % 5
            rho = random_density(d, seed + 300)
            value = mo.c_delta_r(rho).value
            lo, hi = 0.0, d + 1.0
            delta = np.diag(np.diag(rho.mat))
            for _ in range(50):
                mid = (lo + hi) / 2.0
                if is_psd((1.0 + mid) * delta - rho.mat, 1e-12):
                    hi = mid
                else:
                    lo = mid
            assert value == pytest.approx(hi, abs=1e-8)

    def test_witness_attains_the_ratio(self):
        rho = random_density(4, 77)
        report = mo.c_delta_r(rho)
        phi = report.witness
        num = (phi.conj() @ rho.mat @ phi).real
        den = (phi.conj() @ np.diag(np.diag(rho.mat)) @ phi).real
        assert num / den - 1.0 == pytest.approx(report.value, abs=1e-9)


class TestLogRobustnessDephasing:
    def test_incoherent(self):
        assert mo.log_robustness_dephasing(DensityMatrix(np.eye(2) / 2)).value == 0.0

    def test_maximally_coherent(self):
        for d in (2, 3, 4):
            rho = uniform_pure(d).to_density()
            assert mo.log_robustness_dephasing(rho).value == pytest.approx(
                math.log2(d), abs=1e-9
            )

    def test_additive_on_pure_products(self):
        psi = random_pure(2, 5)
        phi = random_pure(3, 6)
        joint = PureStateVector(np.kron(psi.amps, phi.amps))
        total = mo.log_robustness_dephasing(joint.to_density()).value
        parts = (
            mo.log_robustness_dephasing(psi.to_density()).value
            + mo.log_robustness_dephasing(phi.to_density()).value
        )
        assert total == pytest.approx(parts, abs=1e-8)
        assert total == pytest.approx(math.log2(6.0), abs=1e-8)

    def test_bounded_by_log_dimension(self):
        for seed in range(10):
            rho = random_density(4, seed)
            val = mo.log_robustness_dephasing(rho).value
            assert -1e-9 <= val <= math.log2(4.0) + 1e-9


class TestDivergenceMonotone:
    def test_singleton_matches_trace_norm(self):
        rho = random_density(3, 8)
        assert mo.monotone_from_divergence(rho).value == pytest.approx(
            mo.trace_norm_coherence(rho).value
        )

    def test_incoherent_vanishes(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        for ref in ("dephased_singleton", "incoherent_set"):
            assert mo.monotone_from_divergence(rho, reference_set=ref).value == pytest.approx(
                0.0, abs=1e-9
            )

    def test_plus_bounds_and_grid_oracle(self):
        rho = plus_density()
        val = mo.monotone_from_divergence(rho, reference_set="incoherent_set").value
        assert 0.5 - 1e-9 <= val <= 1.0 + 1e-9
        grid_best = min(
            mo.trace_norm(rho.mat - np.diag([q, 1.0 - q]))
            for q in np.linspace(0.0, 1.0, 201)
        )
        assert val <= grid_best + 1e-6

    def test_unsupported_pair(self):
        with pytest.raises(ValueError):
            mo.monotone_from_divergence(plus_density(), divergence="fidelity")


class TestRates:
    def test_plus_rate(self):
        psi = PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert mo.distillation_rate_pure(psi) == pytest.approx(1.0)

    def test_crossing_state_rate(self):
        psi = PureStateVector(np.sqrt(CROSSING_Q))
        expected = -np.sum(CROSSING_Q * np.log2(CROSSING_Q))
        assert mo.distillation_rate_pure(psi) == pytest.approx(expected, abs=1e-12)

    def test_self_ratio(self):
        psi = random_pure(3, 4)
        assert mo.dilution_ratio(psi, psi) == pytest.approx(1.0)

    def test_incoherent_target_rejected(self):
        with pytest.raises(ValueError):
            mo.dilution_ratio(random_pure(2, 1), PureStateVector([1.0, 0.0]))


class TestFaithfulness:
    MEASURES = (
        lambda rho: mo.c_rel(rho).value,
        lambda rho: mo.c_l1(rho).value,
        lambda rho: mo.c_r(rho).value,
        lambda rho: mo.c_delta_r(rho).value,
        lambda rho: mo.trace_norm_coherence(rho).value,
        lambda rho: mo.c_alpha(rho, 1.7).value,
        lambda rho: mo.c_delta_alpha(rho, 1.7, "right").value,
    )

    def test_vanish_iff_incoherent_on_dephasing_boundary(self):
        rho = random_density(3, 55)
        for lam in (0.9, 0.999, 1.0):
            state = partial_dephase(rho, lam)
            tiny = is_incoherent(state, 1e-8)
            for measure in self.MEASURES:
                value = measure(state)
                if tiny:
                    assert value <= 1e-7
                else:
                    assert value > 1e-7

    def test_invariance_under_incoherent_unitaries(self):
        rng = np.random.default_rng(60)
        rho = random_density(3, 9)
        base = [measure(rho) for measure in self.MEASURES]
        for _ in range(5):
            u = ch.random_incoherent_unitary(3, rng)
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
            rotated_vals = [measure(rotated) for measure in self.MEASURES]
            assert np.allclose(base, rotated_vals, atol=1e-9)


def _full_matrix_c_rel(rho):
    diag = np.diag(rho.mat).real
    diag = diag[diag > 1e-15]
    vals = eig_hermitian(rho.mat).eigenvalues
    vals = vals[vals > 1e-15]
    return float(-np.sum(diag * np.log2(diag))) - float(-np.sum(vals * np.log2(vals)))


def _full_matrix_c_alpha(rho, alpha):
    if alpha == 1.0:
        return _full_matrix_c_rel(rho)
    if alpha == 0.0:
        return -math.log2(float(np.max(np.diag(mat_power_psd(rho.mat, 0.0)).real)))
    diag = np.clip(np.diag(mat_power_psd(rho.mat, alpha)).real, 0.0, None)
    return (alpha / (alpha - 1.0)) * math.log2(float(np.sum(diag ** (1.0 / alpha))))


def _full_matrix_c_delta_alpha(rho, alpha, side):
    delta = np.diag(np.diag(rho.mat))
    rank = int(np.sum(eig_hermitian(rho.mat).eigenvalues > 1e-12))
    support = int(np.sum(np.abs(np.diag(rho.mat)) > 1e-12))
    if alpha == 1.0:
        if side == "right":
            return _full_matrix_c_rel(rho)
        if support > rank:
            return math.inf
        dec = eig_hermitian(rho.mat)
        log_rho = (
            dec.eigenvectors * np.log2(np.clip(dec.eigenvalues, 1e-300, None))
        ) @ dec.eigenvectors.conj().T
        p = np.clip(np.diag(delta).real, 0.0, None)
        mask = p > 1e-15
        return float(np.sum(p[mask] * np.log2(p[mask])) - np.trace(delta @ log_rho).real)
    if alpha > 1.0 and side == "left" and support > rank:
        return math.inf
    first, second = (rho.mat, delta) if side == "right" else (delta, rho.mat)
    val = np.trace(mat_power_psd(first, alpha) @ mat_power_psd(second, 1.0 - alpha)).real
    return math.log2(max(val, 1e-300)) / (alpha - 1.0)


def _rank3_zero_diagonal_state():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_([0, 1, 3], [0, 1, 3])] = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestCachedSpectrum:
    """The Renyi panel read from rho.spectrum equals, bit for bit, the panel
    computed by factorizing the full matrices (rho and its dephased state)."""

    def test_panel_is_bit_identical_to_full_matrix_powers(self):
        rhos = [random_density(d, 70 + d) for d in (2, 3, 5, 8, 16, 64)]
        rhos += [random_pure(5, 8).to_density(), _rank3_zero_diagonal_state()]
        assert np.linalg.matrix_rank(rhos[-1].mat) == 3
        infinite = 0
        for rho in rhos:
            assert mo.c_rel(rho).value == _full_matrix_c_rel(rho)
            for alpha in harness.ALPHA_GRID:
                assert mo.c_alpha(rho, alpha).value == _full_matrix_c_alpha(rho, alpha)
                for side in ("right", "left"):
                    value = mo.c_delta_alpha(rho, alpha, side).value
                    assert value == _full_matrix_c_delta_alpha(rho, alpha, side)
                    infinite += math.isinf(value)
        assert infinite > 0

    def test_harness_measures_factorize_once_more(self, monkeypatch):
        mat = random_density(3, 5).mat
        calls = []

        def counted(m):
            calls.append(m)
            return eig_hermitian(m)

        for module in (numerics, states, mo):
            monkeypatch.setattr(module, "eig_hermitian", counted)
        rho = DensityMatrix(mat)
        assert len(calls) == 1
        harness._mio_measures(rho)
        harness._dio_measures(rho)
        # the second call is c_delta_r's rescaled core D^-1/2 rho D^-1/2
        assert len(calls) == 2
        assert mo.c_r(rho).method == "barrier"
