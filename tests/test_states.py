import dataclasses

import numpy as np
import pytest

from coherence_kit.numerics import eig_hermitian
from coherence_kit.states import (
    DensityMatrix,
    PureStateVector,
    SchmidtVector,
    dephase,
    is_incoherent,
    mc_embed,
    partial_dephase,
    qubit_standard_form,
    random_density,
    random_pure,
    schmidt_vector,
    state_from_json_dict,
)


def plus_state():
    return PureStateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestValidation:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.2, 0.5], [0.5, 0.8]]))

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError):
            PureStateVector([1.0, 1.0])

    def test_schmidt_vector_must_be_sorted(self):
        with pytest.raises(ValueError):
            SchmidtVector([0.3, 0.7])


class TestSpectrum:
    def test_is_the_validating_decomposition(self):
        rho = random_density(5, 2)
        dec = eig_hermitian(rho.mat)
        assert np.array_equal(rho.spectrum.eigenvalues, dec.eigenvalues)
        assert np.array_equal(rho.spectrum.eigenvectors, dec.eigenvectors)
        assert not rho.spectrum.eigenvalues.flags.writeable
        assert not rho.spectrum.eigenvectors.flags.writeable

    def test_left_out_of_equality_and_repr(self):
        field = {f.name: f for f in dataclasses.fields(DensityMatrix)}["spectrum"]
        assert not field.compare
        assert "spectrum" not in repr(random_density(3, 4))


class TestDephase:
    def test_diagonal_fixed_point(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert np.allclose(dephase(rho).mat, rho.mat)

    def test_plus_goes_uniform(self):
        assert np.allclose(dephase(plus_state().to_density()).mat, np.eye(2) / 2)

    def test_idempotent_and_trace_preserving(self):
        for seed in range(10):
            rho = random_density(4, seed)
            once = dephase(rho)
            assert np.allclose(dephase(once).mat, once.mat)
            assert abs(np.trace(once.mat).real - 1.0) < 1e-12


class TestPartialDephase:
    def test_endpoints(self):
        rho = random_density(3, 1)
        assert np.allclose(partial_dephase(rho, 0.0).mat, rho.mat)
        assert np.allclose(partial_dephase(rho, 1.0).mat, dephase(rho).mat)

    def test_half_on_plus(self):
        out = partial_dephase(plus_state().to_density(), 0.5)
        assert np.allclose(out.mat, np.array([[0.5, 0.25], [0.25, 0.5]]))

    def test_composition_commutes(self):
        rho = random_density(3, 5)
        ab = partial_dephase(partial_dephase(rho, 0.3), 0.6)
        ba = partial_dephase(partial_dephase(rho, 0.6), 0.3)
        assert np.max(np.abs(ab.mat - ba.mat)) < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            partial_dephase(random_density(2, 0), 1.5)


class TestIsIncoherent:
    def test_diagonal_true(self):
        assert is_incoherent(DensityMatrix(np.diag([0.3, 0.7])), 1e-9)

    def test_plus_false(self):
        assert not is_incoherent(plus_state().to_density(), 1e-9)

    def test_dephased_always_true(self):
        for seed in range(5):
            assert is_incoherent(dephase(random_density(4, seed)), 1e-9)


class TestQubitStandardForm:
    def test_already_standard(self):
        sf = qubit_standard_form(DensityMatrix([[0.5, 0.5], [0.5, 0.5]]))
        assert sf.p == pytest.approx(0.5) and sf.r == pytest.approx(0.5)
        assert np.allclose(sf.gauge, np.eye(2))

    def test_swap_and_phase(self):
        rho = DensityMatrix(np.array([[0.3, 0.1j], [-0.1j, 0.7]]))
        sf = qubit_standard_form(rho)
        assert sf.p == pytest.approx(0.7) and sf.r == pytest.approx(0.1)
        std = sf.gauge @ rho.mat @ sf.gauge.conj().T
        assert np.allclose(std, [[0.7, 0.1], [0.1, 0.3]])

    def test_maximally_mixed(self):
        sf = qubit_standard_form(DensityMatrix(np.eye(2) / 2))
        assert sf.p == pytest.approx(0.5) and sf.r == pytest.approx(0.0)

    def test_gauge_is_incoherent(self):
        for seed in range(20):
            sf = qubit_standard_form(random_density(2, seed))
            diag = np.diag([0.25, 0.75]).astype(complex)
            image = sf.gauge @ diag @ sf.gauge.conj().T
            assert np.max(np.abs(image - np.diag(np.diag(image)))) < 1e-12


class TestMcEmbed:
    def test_diagonal_case(self):
        rho = DensityMatrix(np.diag([0.4, 0.6]))
        out = mc_embed(rho)
        assert np.allclose(np.diag(out.mat), [0.4, 0, 0, 0.6])
        assert np.allclose(out.mat, np.diag(np.diag(out.mat)))

    def test_plus_becomes_maximally_entangled(self):
        out = mc_embed(plus_state().to_density())
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        assert np.allclose(out.mat, np.outer(bell, bell.conj()))

    def test_purity_preserved(self):
        for seed in range(5):
            rho = random_density(3, seed)
            out = mc_embed(rho)
            assert np.trace(out.mat @ out.mat).real == pytest.approx(
                np.trace(rho.mat @ rho.mat).real, abs=1e-12
            )

    def test_incoherent_maps_to_diagonal(self):
        rho = dephase(random_density(3, 8))
        out = mc_embed(rho)
        assert np.allclose(out.mat, np.diag(np.diag(out.mat)))


class TestSchmidtVector:
    def test_basis_state(self):
        assert np.allclose(schmidt_vector(PureStateVector([1.0, 0.0])).probs, [1.0, 0.0])

    def test_plus(self):
        assert np.allclose(schmidt_vector(plus_state()).probs, [0.5, 0.5])

    def test_sorting(self):
        psi = PureStateVector(np.sqrt([0.2, 0.3, 0.5]))
        assert np.allclose(schmidt_vector(psi).probs, [0.5, 0.3, 0.2])


class TestRandomStates:
    def test_determinism(self):
        assert np.array_equal(random_density(3, 42).mat, random_density(3, 42).mat)
        assert np.array_equal(random_pure(3, 42).amps, random_pure(3, 42).amps)

    def test_normalization_and_psd(self):
        for seed in range(50):
            rho = random_density(2, seed)
            assert abs(np.trace(rho.mat).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho.mat)) >= -1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            random_density(0, 1)


class TestJson:
    def test_density_roundtrip(self):
        rho = random_density(3, 4)
        again = DensityMatrix.from_json_dict(rho.to_json_dict())
        assert np.allclose(rho.mat, again.mat)

    def test_pure_roundtrip(self):
        psi = random_pure(4, 4)
        again = PureStateVector.from_json_dict(psi.to_json_dict())
        assert np.allclose(psi.amps, again.amps)

    def test_dispatch(self):
        rho = random_density(2, 1)
        assert isinstance(state_from_json_dict(rho.to_json_dict()), DensityMatrix)
        psi = random_pure(2, 1)
        assert isinstance(state_from_json_dict(psi.to_json_dict()), PureStateVector)
        with pytest.raises(ValueError):
            state_from_json_dict({"dim": 2})

    def test_dimension_mismatch(self):
        payload = random_density(2, 1).to_json_dict()
        payload["dim"] = 3
        with pytest.raises(ValueError):
            DensityMatrix.from_json_dict(payload)
