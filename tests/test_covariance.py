import math

import numpy as np
import pytest

from coherence_kit import channels as ch
from coherence_kit import covariance as cov
from coherence_kit import numerics, states
from coherence_kit.numerics import eig_hermitian
from coherence_kit.states import DensityMatrix, PureStateVector, dephase, random_density
from linalg_checks import is_psd


def dense_state(d, seed):
    """Random state with every off-diagonal entry nonzero."""
    rho = random_density(d, seed)
    assert np.min(np.abs(rho.mat + np.eye(d))) > 1e-9
    return rho


def commutes_with_diagonal_unitaries(c, samples=20, seed=0, tol=1e-8):
    """Monte-Carlo cross-check of diagonal-unitary covariance."""
    rng = np.random.default_rng(seed)
    d = c.din
    g = c.unit_actions()
    for _ in range(samples):
        phases = np.exp(2j * np.pi * rng.random(d))
        u = np.diag(phases)
        for x in range(d):
            for z in range(d):
                lhs = phases[x] * np.conj(phases[z]) * g[:, :, x, z]
                lhs = u.conj().T @ lhs @ u
                if np.max(np.abs(lhs - g[:, :, x, z])) > tol:
                    return False
    return True


def loop_n_covariant(c, tol):
    """Block-by-block loop form of the structural covariance test."""
    g = c.unit_actions()
    d = c.din
    for x in range(d):
        for z in range(d):
            block = g[:, :, x, z].copy()
            if x == z:
                block[np.arange(d), np.arange(d)] = 0.0
            else:
                block[x, z] = 0.0
            if np.max(np.abs(block)) > tol:
                return False
    return True


class TestQMatrix:
    def test_identity_transformation(self):
        rho = dense_state(3, 1)
        q = cov.n_q_matrix(rho, rho).q
        assert np.allclose(q, np.ones((3, 3)))
        assert is_psd(q, 1e-12)

    def test_full_dephasing(self):
        rho = dense_state(3, 2)
        q = cov.n_q_matrix(rho, dephase(rho)).q
        assert np.allclose(q, np.eye(3))

    def test_rejects_structured_zeros(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError):
            cov.n_q_matrix(rho, rho)

    def test_forward_samples_are_psd(self):
        for trial in range(40):
            d = 3 + trial % 2
            rng = np.random.default_rng(trial)
            rho = dense_state(d, trial + 100)
            channel = cov.random_n_covariant_channel(d, rng)
            sigma = ch.apply(channel, rho)
            q = cov.n_q_matrix(rho, sigma).q
            assert eig_hermitian(q).eigenvalues[0] >= -1e-9, trial


class TestFeasibility:
    def test_identity_and_dephasing(self):
        rho = dense_state(3, 5)
        assert cov.n_feasible(rho, rho).verdict
        assert cov.n_feasible(rho, dephase(rho)).verdict

    def test_qubit_counterexample(self):
        rho = DensityMatrix([[0.5, 0.4], [0.4, 0.5]])
        sigma = DensityMatrix([[0.5, 0.45], [0.45, 0.5]])
        dec = cov.n_feasible(rho, sigma)
        assert not dec.verdict
        assert dec.violation["monotone"] == "ratio_matrix_psd"
        # 2x2 closed form: eigenvalues 1 +- 1.125
        q = cov.n_q_matrix(rho, sigma).q
        assert np.allclose(sorted(np.linalg.eigvalsh(q)), [-0.125, 2.125])

    def test_target_coherence_on_a_zero_source_entry_is_infeasible(self):
        # sigma_02 would have to be a multiple of rho_02 = 0; checked from the
        # record alone, with no ratio matrix
        rho = DensityMatrix([[0.5, 0.2, 0.0], [0.2, 0.3, 0.1], [0.0, 0.1, 0.2]])
        sigma = random_density(3, 0)
        dec = cov.n_feasible(rho, sigma)
        assert not dec.verdict
        v = dec.violation
        assert v["monotone"] == "zero_source_entry" and v["entry"] == [0, 2]
        x, z = v["entry"]
        assert abs(rho.mat[x, z]) <= 1e-12 < abs(sigma.mat[x, z]) == v["lhs"]
        assert v["rhs"] == 0.0
        # where the target entry is zero too, the ratio is free: still unsupported
        with pytest.raises(ValueError):
            cov.n_feasible(rho, DensityMatrix(np.diag([0.2, 0.3, 0.5])))
        with pytest.raises(ValueError):
            cov.n_feasible(rho, dephase(rho))

    def test_violation_certificate_is_a_negative_direction_of_q(self):
        # Q = [[1, c], [c, 1]] has lambda_min = 1 - c, here 0.5e-12 past -PSD_TOL
        c = 0.25 * (1.0 + cov.PSD_TOL + 0.5e-12)
        pairs = [
            (DensityMatrix([[0.5, 0.4], [0.4, 0.5]]), DensityMatrix([[0.5, 0.45], [0.45, 0.5]])),
            (DensityMatrix([[0.5, 0.25], [0.25, 0.5]]), DensityMatrix([[0.5, c], [c, 0.5]])),
        ]
        for t in range(30):
            d = 2 + t % 5
            pairs.append((dense_state(d, 800 + t), random_density(d, 900 + t)))
        infeasible = 0
        for rho, sigma in pairs:
            dec = cov.n_feasible(rho, sigma)
            if dec.verdict:
                continue
            infeasible += 1
            v = np.array([complex(re, im) for re, im in dec.violation["certificate"]])
            quad = float(np.real(v.conj() @ cov.n_q_matrix(rho, sigma).q @ v))
            assert abs(quad - dec.violation["lhs"]) <= 1e-12
            assert quad < -1e-9
        assert infeasible >= 20

    def test_feasible_pairs_yield_verified_witnesses(self):
        for trial in range(30):
            d = 3
            rng = np.random.default_rng(trial + 50)
            rho = dense_state(d, trial + 500)
            sigma = ch.apply(cov.random_n_covariant_channel(d, rng), rho)
            dec = cov.n_feasible(rho, sigma)
            assert dec.verdict, trial
            assert cov.is_n_covariant(dec.witness)
            out = ch.apply(dec.witness, rho)
            assert np.max(np.abs(out.mat - sigma.mat)) < 1e-8


class TestConstruct:
    def test_identity_channel_shape(self):
        rho = dense_state(3, 9)
        witness = cov.n_construct(rho, rho)
        out = ch.apply(witness, rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-10

    def test_dephasing_realization_uses_projectors(self):
        rho = dense_state(3, 10)
        witness = cov.n_construct(rho, dephase(rho))
        assert len(witness.kraus) == 3
        for k in witness.kraus:
            assert np.count_nonzero(np.abs(k) > 1e-12) == 1

    def test_infeasible_rejected(self):
        rho = DensityMatrix([[0.5, 0.4], [0.4, 0.5]])
        sigma = DensityMatrix([[0.5, 0.45], [0.45, 0.5]])
        with pytest.raises(ValueError):
            cov.n_construct(rho, sigma)


class TestSpecPair:
    def test_spec_of_feasible_pair_validates(self):
        rho = dense_state(3, 30)
        rng = np.random.default_rng(31)
        sigma = ch.apply(cov.random_n_covariant_channel(3, rng), rho)
        spec = cov.n_covariant_spec(rho, sigma)
        assert is_psd(spec.h, 1e-9)
        assert np.max(np.abs(spec.r.sum(axis=0) - 1.0)) < 1e-10
        assert np.allclose(np.diag(spec.r), np.diag(spec.h).real, atol=1e-10)
        channel = cov.channel_from_n_spec(spec)
        out = ch.apply(channel, rho)
        assert np.max(np.abs(out.mat - sigma.mat)) < 1e-8

    def test_gram_matrix_is_factorized_once(self, monkeypatch):
        rho = random_density(3, 1)
        sigma = ch.apply(cov.random_n_covariant_channel(3, np.random.default_rng(2)), rho)
        calls = []

        def counted(m):
            calls.append(m)
            return eig_hermitian(m)

        for module in (numerics, states, ch, cov):
            monkeypatch.setattr(module, "eig_hermitian", counted)
        assert cov.n_feasible(rho, sigma).verdict
        # Q once (its lambda_min, the spec's PSD check and the factorization
        # in channel_from_n_spec all read it), and the output state
        assert len(calls) == 2
        calls.clear()
        cov.random_n_covariant_channel(3, np.random.default_rng(2))
        assert len(calls) == 1

    def test_stores_read_only_copies(self):
        h = np.eye(2, dtype=complex)
        r = np.eye(2)
        spec = cov.NCovariantSpec(h=h, r=r)
        h[0, 1] = h[1, 0] = 0.5
        r[0, 0] = 0.0
        assert spec.h.tobytes() == np.eye(2, dtype=complex).tobytes()
        assert spec.r.tobytes() == np.eye(2).tobytes()
        assert not spec.h.flags.writeable and not spec.r.flags.writeable
        assert not spec.spectrum.eigenvalues.flags.writeable
        assert not spec.spectrum.eigenvectors.flags.writeable

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            cov.NCovariantSpec(h=np.diag([1.0, -0.5]), r=np.eye(2))
        with pytest.raises(ValueError):
            cov.NCovariantSpec(h=np.eye(2), r=np.array([[0.5, 0.0], [0.0, 1.0]]))


class TestIsNCovariant:
    def test_dephasing_is_covariant(self):
        ops = [np.diag([1.0 if i == x else 0.0 for i in range(3)]).astype(complex) for x in range(3)]
        assert cov.is_n_covariant(ch.KrausChannel(ops))

    def test_permutations_are_not_free(self):
        perm = np.zeros((3, 3), dtype=complex)
        perm[[0, 1, 2], [1, 2, 0]] = 1.0
        assert not cov.is_n_covariant(ch.KrausChannel([perm]))

    def test_sampled_channels_are_covariant(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            channel = cov.random_n_covariant_channel(4, rng)
            assert cov.is_n_covariant(channel)
            assert commutes_with_diagonal_unitaries(channel)

    def test_structural_and_sampled_checks_agree(self):
        rng = np.random.default_rng(4)
        channels = [
            cov.random_n_covariant_channel(3, rng),
            ch.random_sio_channel(3, rng),
            ch.random_channel(3, 3, 2, rng),
            ch.incoherent_unitary_channel(ch.random_incoherent_unitary(3, rng)),
        ]
        for c in channels:
            assert cov.is_n_covariant(c) == commutes_with_diagonal_unitaries(c)

    def test_masked_reduction_matches_loop_form(self):
        rng = np.random.default_rng(5)
        seen = set()
        for d in range(2, 9):
            dephasing = ch.KrausChannel([np.diag(np.eye(d)[x]).astype(complex) for x in range(d)])
            params = ch.GCovariantParams(*rng.dirichlet(np.ones(3)), d)
            channels = [
                cov.random_n_covariant_channel(d, rng),
                ch.random_channel(d, d, 2, rng),
                ch.random_sio_channel(d, rng),
                ch.random_sio_special_channel(d, rng),
                ch.random_io_channel(d, rng),
                ch.random_pio_channel(d, rng),
                ch.incoherent_unitary_channel(ch.random_incoherent_unitary(d, rng)),
                ch.g_covariant_channel(params),
            ]
            channels += [ch.compose(dephasing, c) for c in channels]
            for c in channels:
                for tol in (cov.PSD_TOL, 1e-3):
                    verdict = cov.is_n_covariant(c, tol)
                    assert verdict == loop_n_covariant(c, tol), (d, tol)
                    seen.add(verdict)
        for seed in range(6):
            c = ch.sample_mio_qubit_channel(seed)
            for tol in (cov.PSD_TOL, 1e-3):
                assert cov.is_n_covariant(c, tol) == loop_n_covariant(c, tol)
        assert seen == {True, False}

    def test_sparse_stacks_at_the_tolerance(self):
        rng = np.random.default_rng(6)
        seen = set()
        for trial in range(300):
            d, tol = 2 + trial % 3, (cov.PSD_TOL, 1e-3)[trial % 2]
            stack = np.zeros((1 + trial % 3, d, d), dtype=complex)
            # diagonal operators and single hops with unit or random entries,
            # then some entries moved to +-tol, so products land on tol exactly
            for op in stack:
                values = np.where(rng.random(d) < 0.5, 1.0, rng.standard_normal(d))
                if rng.random() < 0.5:
                    op[np.arange(d), np.arange(d)] = values
                else:
                    op[rng.integers(d), rng.integers(d)] = values[0]
            signs = rng.choice([1.0, -1.0, 1j, -1j], size=stack.shape)
            edge = rng.random(stack.shape) < 0.1
            stack[edge] = tol * signs[edge]
            nudged = rng.random(stack.shape) < 0.05
            stack[nudged] = np.nextafter(tol, 1.0) * signs[nudged]
            c = ch.KrausChannel(list(stack), require_tp=False)
            verdict = cov.is_n_covariant(c, tol)
            assert verdict == loop_n_covariant(c, tol), trial
            seen.add(verdict)
        assert seen == {True, False}


class TestPhiT:
    def test_qubit_boundary(self):
        assert cov.is_phi_t_cp(2, 1.0)
        assert not cov.is_phi_t_cp(2, 0.99)

    def test_bisection_matches_threshold(self):
        for d in range(2, 9):
            lo, hi = 0.0, 10.0
            for _ in range(40):
                mid = (lo + hi) / 2.0
                if cov.is_phi_t_cp(d, mid):
                    hi = mid
                else:
                    lo = mid
            assert hi == pytest.approx(cov.phi_t_threshold(d), abs=1e-6)

    def test_action_on_maximally_coherent_state(self):
        d = 4
        amps = np.ones(d) / math.sqrt(d)
        rho = PureStateVector(amps).to_density()
        out = cov.phi_t(rho, float(d - 1))
        vals = np.linalg.eigvalsh(out)
        assert vals[0] >= -1e-12
        assert np.min(np.abs(vals)) < 1e-12  # one vanishing eigenvalue

    def test_positivity_fails_below_threshold(self):
        d = 4
        amps = np.ones(d) / math.sqrt(d)
        rho = PureStateVector(amps).to_density()
        out = cov.phi_t(rho, float(d - 1) - 0.05)
        assert np.linalg.eigvalsh(out)[0] < -1e-6

    def test_trace_preservation_of_witnesses(self):
        # column sums of the transfer weights are 1: the constructed channel
        # is trace preserving by construction, which KrausChannel verifies
        rho = dense_state(4, 20)
        rng = np.random.default_rng(21)
        sigma = ch.apply(cov.random_n_covariant_channel(4, rng), rho)
        witness = cov.n_construct(rho, sigma)
        stack = np.stack(witness.kraus)
        defect = np.einsum("jyx,jyz->xz", stack.conj(), stack) - np.eye(4)
        assert np.max(np.abs(defect)) < 1e-10
