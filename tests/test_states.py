import dataclasses
import json

import numpy as np
import pytest

from coherence_kit.channels import KrausChannel, qubit_to_qutrit_mio_example
from coherence_kit import states
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
        rho = random_density(3, 4)
        other = DensityMatrix(rho.mat)
        object.__setattr__(other, "spectrum", eig_hermitian(np.eye(3) / 3))
        assert other == rho
        assert "spectrum" not in repr(rho)


class TestDensityStack:
    """A stack validated in one call gives each row the bits, and the error,
    of DensityMatrix(row) alone."""

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_rows_are_the_one_state_bits(self, d):
        # unvalidated Ginibre matrices are Hermitian only up to rounding
        mats = [states._ginibre(d, 10 * d + k) for k in range(4)]
        for m, rho in zip(mats, states._density_stack(mats)):
            alone = DensityMatrix(m)
            assert rho.mat.tobytes() == alone.mat.tobytes()
            assert rho.spectrum.eigenvalues.tobytes() == alone.spectrum.eigenvalues.tobytes()
            assert rho.spectrum.eigenvectors.tobytes() == alone.spectrum.eigenvectors.tobytes()
            for arr in (rho.mat, rho.spectrum.eigenvalues, rho.spectrum.eigenvectors):
                assert not arr.flags.writeable

    def test_mixed_dimensions_keep_their_order(self):
        mats = [states._ginibre(d, d) for d in (3, 2, 8, 3)]
        stacked = states._density_stack(mats)
        assert [rho.dim for rho in stacked] == [3, 2, 8, 3]
        assert stacked == [DensityMatrix(m) for m in mats]

    @staticmethod
    def _bad_rows():
        good = states._ginibre(3, 1)
        non_hermitian = good.copy()
        non_hermitian[0, 1] += 1e-3
        nan = good.copy()
        nan[0, 0] = np.nan
        return {
            "trace": 1.2 * good,
            "psd": np.diag([0.6, 0.5, -0.1]).astype(complex),
            "hermitian": non_hermitian,
            "nan": nan,
        }

    @pytest.mark.parametrize("kind", ["trace", "psd", "hermitian", "nan"])
    def test_one_bad_row_raises_its_own_error(self, kind):
        bad = self._bad_rows()[kind]
        with pytest.raises(ValueError) as alone:
            DensityMatrix(bad)
        mats = [states._ginibre(3, 2), bad, states._ginibre(3, 3)]
        with pytest.raises(ValueError) as stacked:
            states._density_stack(mats)
        assert str(stacked.value) == str(alone.value)
        if kind == "trace":
            assert "got np.float64(1.19999" in str(alone.value)


class TestEquality:
    """States compare their stored array exactly; they are unhashable."""

    KINDS = ["density", "pure", "schmidt"]
    CASES = [
        (lambda: random_density(3, 1), lambda: random_density(3, 2), lambda: random_density(4, 1)),
        (lambda: random_pure(3, 1), lambda: random_pure(3, 2), lambda: random_pure(4, 1)),
        (
            lambda: schmidt_vector(random_pure(3, 1)),
            lambda: schmidt_vector(random_pure(3, 2)),
            lambda: schmidt_vector(random_pure(4, 1)),
        ),
    ]

    @staticmethod
    def copy(state):
        if isinstance(state, DensityMatrix):
            return DensityMatrix(state.mat.copy())
        if isinstance(state, PureStateVector):
            return PureStateVector(state.amps.copy())
        return SchmidtVector(state.probs.copy())

    @pytest.mark.parametrize("make, make_other, make_bigger", CASES, ids=KINDS)
    def test_equal_distinct_objects(self, make, make_other, make_bigger):
        state = make()
        twin = self.copy(state)
        assert twin is not state
        assert twin == state and not (twin != state)

    @pytest.mark.parametrize("make, make_other, make_bigger", CASES, ids=KINDS)
    def test_unequal_objects(self, make, make_other, make_bigger):
        assert make() != make_other()
        assert not (make() == make_other())

    @pytest.mark.parametrize("make, make_other, make_bigger", CASES, ids=KINDS)
    def test_different_dimension(self, make, make_other, make_bigger):
        assert make() != make_bigger()

    @pytest.mark.parametrize("make, make_other, make_bigger", CASES, ids=KINDS)
    def test_non_state(self, make, make_other, make_bigger):
        state = make()
        assert state.__eq__(object()) is NotImplemented
        assert state != "state" and state != 1.0
        with pytest.raises(TypeError):
            hash(state)

    def test_kinds_never_equal(self):
        psi = PureStateVector([1.0, 0.0])
        assert psi != SchmidtVector([1.0, 0.0])
        assert psi != psi.to_density()


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

    def test_is_diagonal_is_exact(self):
        # no tolerance: a 1e-300 coherence is not diagonal
        assert DensityMatrix(np.diag([0.3, 0.7, 0.0])).is_diagonal
        assert dephase(random_density(4, 1)).is_diagonal
        tiny = np.diag([0.5, 0.5]).astype(complex)
        tiny[0, 1] = tiny[1, 0] = 1e-300
        assert is_incoherent(DensityMatrix(tiny), 1e-9)
        assert not DensityMatrix(tiny).is_diagonal
        assert not random_density(3, 0).is_diagonal


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


class TestPureStateVector:
    def test_stores_a_read_only_copy(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        psi = PureStateVector(amps)
        amps[0] = 5.0
        assert psi.amps.tolist() == [1.0, 0.0]
        assert not psi.amps.flags.writeable

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_mat_is_the_density_matrix_bits(self, d):
        psi = random_pure(d, d)
        assert psi.mat.tobytes() == psi.to_density().mat.tobytes()
        assert not psi.mat.flags.writeable


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

    @pytest.mark.parametrize("dim, ok", [(2, True), (2.0, True), (2.7, False), ("2", False)])
    def test_declared_dim_is_compared_not_coerced(self, dim, ok):
        for obj in (random_density(2, 1), random_pure(2, 1)):
            payload = dict(obj.to_json_dict(), dim=dim)
            if ok:
                assert type(obj).from_json_dict(payload) == obj
            else:
                with pytest.raises(ValueError, match="number pairs nested as"):
                    type(obj).from_json_dict(payload)


TINY = 5e-324  # the smallest subnormal


def signed_zero_channel():
    op = np.array([[complex(1.0, -0.0), complex(-0.0, TINY)], [complex(TINY, -0.0), -1.0]])
    return KrausChannel([op])


@pytest.mark.parametrize(
    "obj",
    [
        DensityMatrix([[0.5, complex(TINY, -0.0)], [complex(TINY, 0.0), 0.5]]),
        random_density(5, 2),
        PureStateVector([complex(0.6, -0.0), complex(TINY, -0.8)]),
        random_pure(4, 3),
        signed_zero_channel(),
        qubit_to_qutrit_mio_example(),
    ],
    ids=["density-signed-zero", "density", "pure-signed-zero", "pure", "kraus-signed-zero", "kraus-2to3"],
)
def test_json_roundtrip_is_bit_exact(obj):
    """Encode, dump, load and decode: the stored array comes back bit for bit."""
    arr = {DensityMatrix: "mat", PureStateVector: "amps", KrausChannel: "kraus"}[type(obj)]
    text = json.dumps(obj.to_json_dict(), sort_keys=True)
    again = type(obj).from_json_dict(json.loads(text))
    assert getattr(again, arr).shape == getattr(obj, arr).shape
    assert getattr(again, arr).tobytes() == getattr(obj, arr).tobytes()
    assert json.dumps(again.to_json_dict(), sort_keys=True) == text


def test_signed_zeros_and_subnormals_survive_construction():
    """The round-trip cases above do exercise -0.0 and subnormal entries."""
    rho = DensityMatrix([[0.5, complex(TINY, -0.0)], [complex(TINY, 0.0), 0.5]])
    assert rho.mat[0, 1].real == TINY and np.signbit(rho.mat[0, 1].imag)
    psi = PureStateVector([complex(0.6, -0.0), complex(TINY, -0.8)])
    assert np.signbit(psi.amps[0].imag) and psi.amps[1].real == TINY
    op = signed_zero_channel().kraus[0]
    assert np.signbit(op[0, 0].imag) and np.signbit(op[0, 1].real) and op[1, 0].real == TINY
