"""Frozen value types that hold arrays compare by one rule, ``numerics._ExactEquality``:
every compared field exactly (arrays entry by entry, tuples item by item),
and instances are unhashable, like numpy arrays."""

import copy

import numpy as np
import pytest

from coherence_kit import channels as ch
from coherence_kit import covariance as cov
from coherence_kit import monotones as mo
from coherence_kit import numerics
from coherence_kit.states import qubit_standard_form, random_density


def _ulp_up(value):
    """value with its first float entry one ULP up: an array's first entry
    (a complex entry's real part), a float, or a tuple's first item."""
    if isinstance(value, tuple):
        return (_ulp_up(value[0]), *value[1:])
    if isinstance(value, np.ndarray):
        out = value.copy()
        part = out.real if np.iscomplexobj(out) else out
        part.flat[0] = np.nextafter(part.flat[0], np.inf)
        return out
    return float(np.nextafter(value, np.inf))


def _n_spec():
    rho = random_density(3, 900)
    channel = cov.random_n_covariant_channel(3, np.random.default_rng(1))
    return cov.n_covariant_spec(rho, ch.apply(channel, rho))


def _birkhoff():
    doubly = 0.25 * np.eye(3) + 0.75 * np.roll(np.eye(3), 1, axis=1)
    return numerics.birkhoff_decompose(doubly)


# (make, name of a compared field to move by one ULP)
CASES = {
    "EigenDecomposition": (
        lambda: numerics.eig_hermitian(random_density(3, 1).mat),
        "eigenvectors",
    ),
    "QubitStandardForm": (lambda: qubit_standard_form(random_density(2, 3)), "gauge"),
    "NQMatrix": (lambda: cov.n_q_matrix(random_density(3, 2), random_density(3, 3)), "q"),
    "NCovariantSpec": (_n_spec, "r"),
    "MonotoneReport": (lambda: mo.c_r(random_density(3, 4), "cutting_plane"), "witness"),
    "MonotoneReport without a witness": (lambda: mo.c_r(random_density(2, 1)), "value"),
    "LinearProgram": (
        lambda: numerics.LinearProgram([1.0, 2.0], [([1.0, 1.0], 1.0), ([0.5, 2.0], 0.3)]),
        "cuts",
    ),
    "BirkhoffDecomposition": (_birkhoff, "terms"),
}


@pytest.mark.parametrize("kind", CASES)
def test_an_exact_copy_is_equal(kind):
    make, _ = CASES[kind]
    value = make()
    assert type(value).__name__ == kind.split()[0]
    twin = copy.deepcopy(value)
    assert twin is not value
    assert twin == value and not (twin != value)
    assert value.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("kind", CASES)
def test_one_ulp_makes_them_unequal(kind):
    make, name = CASES[kind]
    value = make()
    moved = copy.deepcopy(value)
    object.__setattr__(moved, name, _ulp_up(getattr(value, name)))
    assert moved != value and not (moved == value)


@pytest.mark.parametrize("kind", CASES)
def test_unhashable(kind):
    make, _ = CASES[kind]
    with pytest.raises(TypeError):
        hash(make())

