import math

import numpy as np
import pytest

from coherence_kit import channels as ch
from coherence_kit import cli, harness, numerics, states
from coherence_kit import monotones as mo
from coherence_kit.numerics import eig_hermitian, mat_power_psd
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
from linalg_checks import is_psd

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

    def test_rejects_nan_alpha(self):
        with pytest.raises(ValueError):
            mo.renyi([0.5, 0.5], math.nan)

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

    def test_alpha_zero_of_a_unit_support_diagonal_is_positive_zero(self):
        # -log2(1) is -0.0, which the CLI would print as "-0.0"
        for rho in (DensityMatrix(np.diag([0.5, 0.5, 0.0])), DensityMatrix(np.eye(3) / 3)):
            value = mo.c_alpha(rho, 0.0).value
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


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

    def test_rejects_nan_alpha(self):
        with pytest.raises(ValueError):
            mo.c_q_alpha_pure(random_pure(2, 0), math.nan)


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

    def test_unreachable_gap_raises(self, monkeypatch):
        monkeypatch.setattr(mo, "C_R_GAP", -1.0)
        with pytest.raises(ArithmeticError):
            mo.c_r(random_density(3, 0))

    def test_closed_forms_carry_no_bound(self):
        for rho in (plus_density(), random_density(2, 1), uniform_pure(3).to_density()):
            report = mo.c_r(rho)
            assert report.method == "closed_form"
            assert report.bound is None
            assert "bound" not in report.to_json_dict(include_witness=True)

    @staticmethod
    def mixed_states():
        rng = np.random.default_rng(41)
        g = rng.standard_normal((4, 6))
        m = np.abs(g @ g.T)
        return [
            random_density(3, 0),
            uniform_pure(3).to_density(),
            random_density(5, 1),
            random_density(2, 2),
            DensityMatrix(m / np.trace(m)),
            random_density(4, 3),
            random_pure(5, 4).to_density(),
            _rank_k_state(4, 1, 5),
            random_density(3, 6),
            _rank_k_state(5, 2, 7),
            random_density(4, 8),
            _rank_k_state(3, 2, 9),
            random_density(3, 10),
        ]

    @pytest.mark.parametrize("method", ["auto", "cutting_plane"])
    def test_c_r_many_matches_per_state_c_r(self, method):
        # each dimension's barrier states are one batch, but a row's iterates
        # do not depend on its batch, so every number agrees bit for bit
        rhos = self.mixed_states()
        many = mo.c_r_many(rhos, method)
        assert len(many) == len(rhos)
        barrier = 0
        for rho, report in zip(rhos, many):
            single = mo.c_r(rho, method)
            assert (report.name, report.method) == (single.name, single.method)
            assert report.value == single.value and report.bound == single.bound
            if report.method == "barrier":
                barrier += 1
                assert np.array_equal(report.witness, single.witness)
                assert report.witness.shape == (rho.dim,)
                assert report.value - report.bound <= mo.C_R_GAP
            else:
                assert report.witness is None and single.witness is None
        assert barrier == (8 if method == "auto" else len(rhos))

    def test_c_r_many_makes_one_batch_per_dimension(self, monkeypatch):
        batches = []

        def recording(y, data, cost, slack, newton, bound, gap):
            batches.append(data.shape)
            return numerics.log_det_barrier(y, data, cost, slack, newton, bound, gap)

        monkeypatch.setattr(mo, "log_det_barrier", recording)
        mo.c_r_many(self.mixed_states())
        # four d = 3 states, two d = 4 and two d = 5; the rest take closed forms
        assert sorted(batches) == [(2, 4, 4), (2, 5, 5), (4, 3, 3)]
        assert mo.c_r_many([]) == []
        with pytest.raises(ValueError, match="method"):
            mo.c_r_many([random_density(3, 0)], "simplex")


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

    def test_tiny_diagonal_row_with_weight_keeps_its_core(self):
        # lambda_min = 7.9e-14, and |rho_01| = 1e-7 <= sqrt(rho_00 rho_11)
        mat = np.array([[1e-13, 1e-7, 0.0], [1e-7, 0.5, 0.1], [0.0, 0.1, 0.5 - 1e-13]])
        report = mo.c_delta_r(DensityMatrix(mat))
        # the core is [[1, a, 0], [a, 1, b], [0, b, 1]], a^2 = 0.2, b^2 = 0.04
        assert report.value == pytest.approx(math.sqrt(0.24), rel=0, abs=1e-12)
        assert report.witness[0] != 0.0

    def test_weight_on_a_zero_diagonal_row_is_rejected(self):
        # t is unbounded: (1 + t) * dephased - rho has a zero diagonal entry
        # whose row carries weight
        rho = DensityMatrix(np.array([[0.0, 1e-9], [1e-9, 1.0]]))
        with pytest.raises(ValueError, match="zero-diagonal row"):
            mo.c_delta_r(rho)


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
        report = mo.monotone_from_divergence(rho, reference_set="incoherent_set")
        assert report.method == "closed_form"
        assert report.bound == report.value
        assert 0.5 - 1e-9 <= report.value <= 1.0 + 1e-9
        assert report.value == pytest.approx(1.0, abs=1e-12)
        grid_best = min(
            mo.trace_norm(rho.mat - np.diag([q, 1.0 - q]))
            for q in np.linspace(0.0, 1.0, 201)
        )
        assert report.value <= grid_best + 1e-12

    @staticmethod
    def check_certified(rho):
        report = mo.monotone_from_divergence(rho, reference_set="incoherent_set")
        q = np.asarray(report.witness)
        assert report.method == "barrier"
        assert report.bound <= report.value <= report.bound + 1e-6
        assert report.value == mo.trace_norm(rho.mat - np.diag(q))
        assert np.min(q) >= 0.0 and abs(q.sum() - 1.0) <= 1e-12
        return report

    @staticmethod
    def simplex_grid_minimum(rho, steps=120):
        """min ||rho - Diag q||_1 over the q in the simplex with entries in multiples of 1/steps."""
        i, j = np.triu_indices(steps + 1)
        q = np.stack([i, j - i, steps - j], axis=1) / steps
        diffs = rho.mat[None, :, :] - q[:, :, None] * np.eye(3)[None, :, :]
        return float(np.min(np.sum(np.abs(np.linalg.eigvalsh(diffs)), axis=1)))

    def test_qutrits_against_a_simplex_grid(self):
        for seed in range(40):
            rho = random_density(3, seed)
            report = self.check_certified(rho)
            grid_best = self.simplex_grid_minimum(rho)
            assert report.value <= grid_best + 1e-6
            assert report.bound <= grid_best

    # the three d = 4 states stopped at gaps of 5.9e-6 to 1.5e-5 while the
    # kernel had an Armijo line search, which rejected steps once t c.y
    # rounded, at t ~ 1e9; (8, 2) stopped at 7.95e-6 while the bound was
    # repaired from a primal iterate, before the dual form; (3, 92) and
    # (4, 129) step out of the domain near t ~ 1e9 if the Newton step's
    # diagonal is taken from L^-1 in place of its exact value w / D + ds
    @pytest.mark.parametrize(
        "d, seed",
        [(5, seed) for seed in range(10)]
        + [(3, 92), (4, 129), (4, 1037), (4, 1042), (4, 1044)]
        + [(8, seed) for seed in range(8)]
        + [(16, 0), (32, 0)],
    )
    def test_gap_closes(self, d, seed):
        self.check_certified(random_density(d, seed))

    def test_unreachable_gap_raises(self, monkeypatch):
        monkeypatch.setattr(mo, "TRACE_DISTANCE_GAP", -1.0)
        with pytest.raises(ArithmeticError):
            mo.monotone_from_divergence(random_density(3, 0), reference_set="incoherent_set")

    def test_dephased_state_is_not_optimal_above_qubits(self):
        rho = random_density(3, 2)
        report = mo.monotone_from_divergence(rho, reference_set="incoherent_set")
        assert report.value < mo.trace_norm_coherence(rho).value - 1e-3

    def test_unsupported_pair(self):
        with pytest.raises(ValueError, match="reference set"):
            mo.monotone_from_divergence(plus_density(), reference_set="pure_states")


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


def _same_panel_value(value, reference):
    """Infinities match exactly; finite values to 1e-13, since the diagonal
    |V|^2 f(lambda) rounds differently from the full matrix power."""
    if math.isinf(reference):
        return value == reference
    return value == pytest.approx(reference, rel=0, abs=1e-13)


class TestCachedSpectrum:
    """The Renyi panel read as diagonals of the cached rho.spectrum matches the
    panel computed from full matrix powers of rho and its dephased state; c_rel
    matches bit for bit."""

    def test_panel_matches_full_matrix_powers(self):
        rhos = [random_density(d, 70 + d) for d in (2, 3, 5, 8, 16, 64)]
        rhos += [random_pure(5, 8).to_density(), _rank3_zero_diagonal_state()]
        assert np.linalg.matrix_rank(rhos[-1].mat) == 3
        infinite = 0
        grid = harness.ALPHA_GRID
        for rho in rhos:
            assert mo.c_rel(rho).value == _full_matrix_c_rel(rho)
            (c_alphas,) = mo.c_alpha_values((rho,), grid).tolist()
            for alpha, column in zip(grid, c_alphas):
                reference = _full_matrix_c_alpha(rho, alpha)
                assert _same_panel_value(mo.c_alpha(rho, alpha).value, reference)
                assert _same_panel_value(column, reference)
            for side in ("right", "left"):
                (c_deltas,) = mo.c_delta_alpha_values((rho,), grid, side).tolist()
                for alpha, column in zip(grid, c_deltas):
                    reference = _full_matrix_c_delta_alpha(rho, alpha, side)
                    value = mo.c_delta_alpha(rho, alpha, side).value
                    assert _same_panel_value(value, reference)
                    assert _same_panel_value(column, reference)
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
        harness._measure_states([("dio", rho)])
        mo.c_delta_alpha_values((rho,), harness.ALPHA_GRID, "left")
        # the second call is c_delta_r's rescaled core D^-1/2 rho D^-1/2; the
        # alpha grids read the cached spectrum
        assert len(calls) == 2
        assert mo.c_r(rho).method == "barrier"


class TestHarnessBatching:
    """The monotonicity suite builds every sample before it measures any, so
    C_R runs as one barrier batch per dimension and each spectral monotone as
    one stacked call per dimension, and its failure records come out as a
    state-by-state loop over ``_measure_states`` gives them, bit for bit."""

    def test_one_barrier_batch_per_dimension(self, monkeypatch):
        batches = []

        def recording(y, data, cost, slack, newton, bound, gap):
            batches.append(data.shape)
            return numerics.log_det_barrier(y, data, cost, slack, newton, bound, gap)

        monkeypatch.setattr(mo, "log_det_barrier", recording)
        summary = harness.run_suite("monotonicity", 5, seed=4)
        assert summary["passed"]
        # g-covariant and SIO inputs and outputs at d = 3, 4 states a sample;
        # the qubit family takes C_R's closed form
        assert batches == [(20, 3, 3)]

    def test_one_core_eigendecomposition_per_dimension_and_core_size(self, monkeypatch):
        shapes = []

        def recording(m):
            shapes.append(np.shape(m))
            return numerics.eig_hermitian(m)

        monkeypatch.setattr(mo, "eig_hermitian", recording)
        assert harness.run_suite("monotonicity", 5, seed=4)["passed"]
        # c_delta_r is a DIO monotone, so the qubit MIO family takes none; the
        # 20 d = 3 states all have a full diagonal, so one core size
        assert shapes == [(20, 3, 3)]

    def test_failures_match_a_state_by_state_loop(self, monkeypatch):
        monkeypatch.setenv("COHERENCE_KIT_HARNESS_INJECT", "2")
        hook = cli._injection_hook()
        seed, samples = 6, 4
        reference = []
        for index in range(samples):
            for tag, klass, before, after in harness._monotonicity_families(index, seed, hook):
                (lhs,) = harness._measure_states([(klass, before)])
                (rhs,) = harness._measure_states([(klass, after)])
                for name in lhs:
                    if lhs[name] - rhs[name] < -harness.MONOTONE_SLACK:
                        check = f"monotonicity/{tag}/{name}"
                        reference.append((index, check, rhs[name] - lhs[name]))
        failures = harness.run_suite("monotonicity", samples, seed, corrupt_hook=hook)["failures"]
        assert [(f["index"], f["check"]) for f in failures] == [r[:2] for r in reference]
        assert {f["index"] for f in failures} == {2} and len(failures) > 10
        for f, (_, _, magnitude) in zip(failures, reference):
            assert f["magnitude"] == magnitude


def _scalar_c_alpha(rho, alpha):
    """c_alpha by the per-alpha path the grid replaced: one |V|^2 product per alpha."""
    if alpha == 1.0:
        return mo.c_rel(rho).value
    abs2 = np.abs(rho.spectrum.eigenvectors) ** 2
    diag = np.clip(abs2 @ numerics.psd_power_values(rho.spectrum.eigenvalues, alpha), 0.0, None)
    if alpha == 0.0:
        return -math.log2(float(np.max(diag)))
    return (alpha / (alpha - 1.0)) * math.log2(float(np.sum(diag ** (1.0 / alpha))))


def _scalar_c_delta_alpha_right(rho, alpha):
    """Right-hand c_delta_alpha by the per-alpha path the grid replaced."""
    if alpha == 1.0:
        return mo.c_rel(rho).value
    abs2 = np.abs(rho.spectrum.eigenvectors) ** 2
    powers = numerics.psd_power_values(rho.spectrum.eigenvalues, alpha)
    delta = numerics.psd_power_values(np.diag(rho.mat).real, 1.0 - alpha)
    return math.log2(max(float(abs2 @ powers @ delta), 1e-300)) / (alpha - 1.0)


def _rank_k_state(d, k, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2)


def _zero_diagonal_state(d, seed):
    """Full rank on every index but 1, whose row and column are zero."""
    keep = [i for i in range(d) if i != 1]
    m = np.zeros((d, d), dtype=complex)
    m[np.ix_(keep, keep)] = _rank_k_state(d - 1, d - 1, seed).mat
    return DensityMatrix(m)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestRenyiGrid:
    """The alpha grid from one d x n product agrees with the per-alpha path
    within 1e-13, and the one-alpha reports are its columns, on full-rank,
    rank-1 and rank-2 states and on a zero diagonal entry (where
    dephased^(1 - alpha) is a pseudo-inverse power for alpha > 1)."""

    SIDES = ("right", "left")
    STATES = [
        (kind, d)
        for d in (2, 3, 8, 64)
        for kind in ("full", "rank1", "rank2", "zero_diagonal")
    ]

    @staticmethod
    def state(kind, d):
        if kind == "full":
            return random_density(d, 90 + d)
        if kind == "rank1":
            return random_pure(d, 90 + d).to_density()
        if kind == "rank2":
            return _rank_k_state(d, 2, 90 + d)
        return _zero_diagonal_state(d, 90 + d)

    @pytest.mark.parametrize("kind, d", STATES)
    def test_grid_matches_the_per_alpha_path(self, kind, d):
        rho = self.state(kind, d)
        grid = harness.ALPHA_GRID
        (c_alphas,) = mo.c_alpha_values((rho,), grid)
        (c_deltas,) = mo.c_delta_alpha_values((rho,), grid, "right")
        # the harness reads both from one product; the same rows, bit for bit
        both_alphas, both_deltas = mo.renyi_grid_values((rho,), grid)
        assert _bits(both_alphas) == _bits([c_alphas])
        assert _bits(both_deltas) == _bits([c_deltas])
        for alpha, c_a, c_d in zip(grid, c_alphas.tolist(), c_deltas.tolist()):
            assert c_a == pytest.approx(_scalar_c_alpha(rho, alpha), rel=0, abs=1e-13)
            assert c_d == pytest.approx(_scalar_c_delta_alpha_right(rho, alpha), rel=0, abs=1e-13)

    @pytest.mark.parametrize("kind, d", STATES)
    def test_one_alpha_reports_are_kernel_columns(self, kind, d):
        rho = self.state(kind, d)
        grid = harness.ALPHA_GRID
        (c_alphas,) = mo.c_alpha_values((rho,), grid).tolist()
        sides = {
            side: mo.c_delta_alpha_values((rho,), grid, side)[0].tolist() for side in self.SIDES
        }
        for j, alpha in enumerate(grid):
            # a one-alpha call is its kernel's column bit for bit; the n-column
            # grid product rounds differently, within 1e-13
            report = mo.c_alpha(rho, alpha)
            assert (report.name, report.method) == (f"c_alpha[{alpha:g}]", "closed_form")
            assert _bits(report.value) == _bits(mo.c_alpha_values((rho,), (alpha,)))
            assert _same_panel_value(report.value, c_alphas[j])
            for side, c_deltas in sides.items():
                report = mo.c_delta_alpha(rho, alpha, side)
                assert report.name == f"c_delta_alpha[{alpha:g},{side}]"
                assert report.method == "closed_form"
                column = mo.c_delta_alpha_values((rho,), (alpha,), side)
                assert _bits(report.value) == _bits(column)
                assert _same_panel_value(report.value, c_deltas[j])
        for alpha in (2.5, -0.1, math.nan):
            for call in (
                lambda: mo.c_alpha(rho, alpha),
                lambda: mo.c_alpha_values((rho,), (alpha,)),
                lambda: mo.c_delta_alpha(rho, alpha),
                lambda: mo.c_delta_alpha_values((rho,), (alpha,)),
            ):
                with pytest.raises(ValueError, match="alpha must lie"):
                    call()
        with pytest.raises(ValueError, match="side"):
            mo.c_delta_alpha(rho, 0.5, "middle")
        with pytest.raises(ValueError, match="side"):
            mo.c_delta_alpha_values((rho,), (0.5,), "middle")

    def test_zero_diagonal_entry_takes_the_pseudo_inverse_power(self):
        rho = _zero_diagonal_state(3, 4)
        assert rho.mat[1, 1] == 0.0
        ((value,),) = mo.c_delta_alpha_values((rho,), (2.0,)).tolist()
        diag_rho2 = np.diag(rho.mat @ rho.mat).real
        keep = np.diag(rho.mat).real > 0.0
        expected = math.log2(float(np.sum(diag_rho2[keep] / np.diag(rho.mat).real[keep])))
        assert value == pytest.approx(expected, rel=0, abs=1e-13)

    def test_rejects_alpha_outside_0_2_and_a_bad_side(self):
        rho = random_density(3, 1)
        for alphas in ((0.5, 2.5), (-0.1,), (math.nan,)):
            with pytest.raises(ValueError, match="alpha must lie"):
                mo.c_alpha_values((rho,), alphas)
            with pytest.raises(ValueError, match="alpha must lie"):
                mo.c_delta_alpha_values((rho,), alphas)
        with pytest.raises(ValueError, match="side"):
            mo.c_delta_alpha_values((rho,), (0.5,), "middle")
        assert mo.c_alpha_values((rho,), ()).shape == (1, 0)


class TestStackedMeasures:
    """Each spectral monotone is one stacked kernel over the states of one
    dimension; every row of a mixed stack (full rank, rank 1, rank 2, a zero
    diagonal entry) equals the state's one-state call bit for bit."""

    @staticmethod
    def states(d):
        mixed = [random_density(d, 110 + d), random_pure(d, 111 + d).to_density()]
        if d >= 3:
            mixed.append(_zero_diagonal_state(d, 112 + d))
        mixed += [_rank_k_state(d, 2, 113 + d), random_density(d, 114 + d)]
        if d >= 3:
            mixed.append(_zero_diagonal_state(d, 115 + d))
        return mixed

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 64])
    def test_rows_match_their_one_state_calls(self, d):
        rhos = self.states(d)
        grid = harness.ALPHA_GRID
        c_alphas = mo.c_alpha_values(rhos, grid)
        rights = mo.c_delta_alpha_values(rhos, grid)
        lefts = mo.c_delta_alpha_values(rhos, grid, "left")
        grid_alphas, grid_rights = mo.renyi_grid_values(rhos, grid)
        rels, l1s = mo.c_rel_values(rhos), mo.c_l1_values(rhos)
        norms = mo.trace_norm_coherence_values(rhos)
        c_delta_rs, witnesses = mo.c_delta_r_values(rhos)
        assert c_alphas.shape == lefts.shape == (len(rhos), len(grid))
        assert _bits(grid_alphas) == _bits(c_alphas) and _bits(grid_rights) == _bits(rights)
        for k, rho in enumerate(rhos):
            assert _bits(c_alphas[k]) == _bits(mo.c_alpha_values((rho,), grid))
            assert _bits(rights[k]) == _bits(mo.c_delta_alpha_values((rho,), grid))
            assert _bits(lefts[k]) == _bits(mo.c_delta_alpha_values((rho,), grid, "left"))
            assert _bits(rels[k]) == _bits(mo.c_rel(rho).value)
            assert _bits(l1s[k]) == _bits(mo.c_l1(rho).value)
            assert _bits(norms[k]) == _bits(mo.trace_norm_coherence(rho).value)
            report = mo.c_delta_r(rho)
            assert _bits(c_delta_rs[k]) == _bits(report.value)
            assert witnesses[k].tobytes() == report.witness.tobytes()
            for j, alpha in enumerate(grid):
                reference = _scalar_c_alpha(rho, alpha)
                assert c_alphas[k, j] == pytest.approx(reference, rel=0, abs=1e-13)
                reference = _scalar_c_delta_alpha_right(rho, alpha)
                assert rights[k, j] == pytest.approx(reference, rel=0, abs=1e-13)

    def test_one_core_eigendecomposition_per_core_size(self, monkeypatch):
        rhos = self.states(5)
        shapes = []

        def recording(m):
            shapes.append(np.shape(m))
            return numerics.eig_hermitian(m)

        monkeypatch.setattr(mo, "eig_hermitian", recording)
        values, witnesses = mo.c_delta_r_values(rhos)
        # the two zero-diagonal states keep their 4 x 4 cores
        assert sorted(shapes) == [(2, 4, 4), (4, 5, 5)]
        for k in (2, 5):
            assert witnesses[k, 1] == 0.0
            assert values[k] == mo.c_delta_r(rhos[k]).value

    def test_rejects_states_of_two_dimensions(self):
        with pytest.raises(ValueError):
            mo.c_rel_values([random_density(2, 1), random_density(3, 1)])
