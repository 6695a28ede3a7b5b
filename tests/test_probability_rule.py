"""One rule decides what a probability vector is: ``states.probability_vector``.

Every probability input of the package goes through it. These tests check the
rule, that each input site rejects NaN and infinite entries through it, that a
pure state passes exactly when its density matrix does, and that no module
grows a sum-to-one test of its own again.
"""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import coherence_kit
from coherence_kit import channels as ch
from coherence_kit import covariance as cov
from coherence_kit import monotones as mo
from coherence_kit import transforms as tr
from coherence_kit.states import (
    DISTRIBUTION_SUM_TOL,
    STATE_TOL,
    DensityMatrix,
    PureStateVector,
    SchmidtVector,
    probability_vector,
    random_density,
    random_pure,
)


class TestRule:
    def test_returns_floats_clipped_at_zero(self):
        p = probability_vector([1, -0.5e-10, 0.5e-10], "p")
        assert p.dtype == float
        assert p.tolist() == [1.0, 0.0, 0.5e-10]

    def test_checks_each_row_of_the_last_axis(self):
        rows = probability_vector([[0.25, 0.75], [1.0, 0.0]], "rows")
        assert rows.tolist() == [[0.25, 0.75], [1.0, 0.0]]
        message = r"^invalid rows: entries must sum to 1 within 1e-10, got \[1.  1.5\]$"
        with pytest.raises(ValueError, match=message):
            probability_vector([[0.25, 0.75], [1.0, 0.5]], "rows")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_fail(self, bad):
        with pytest.raises(ValueError, match="^invalid p: "):
            probability_vector([bad, 1.0], "p")
        with pytest.raises(ValueError, match="^invalid p: "):
            probability_vector([[0.5, 0.5], [bad, 0.0]], "p")

    def test_negativity_slack_is_state_tol(self):
        probability_vector([1.0 + 0.9 * STATE_TOL, -0.9 * STATE_TOL], "p")
        with pytest.raises(ValueError, match="finite and nonnegative"):
            probability_vector([1.0 + 1.1 * STATE_TOL, -1.1 * STATE_TOL], "p")

    @pytest.mark.parametrize("sum_tol", [STATE_TOL, DISTRIBUTION_SUM_TOL])
    def test_sum_slack(self, sum_tol):
        for excess in (0.9 * sum_tol, -0.9 * sum_tol):
            probability_vector([0.5, 0.5 + excess], "p", sum_tol)
        for excess in (1.1 * sum_tol, -1.1 * sum_tol):
            with pytest.raises(ValueError, match="sum to 1"):
                probability_vector([0.5, 0.5 + excess], "p", sum_tol)

    def test_empty_vector_fails_the_sum(self):
        with pytest.raises(ValueError, match="sum to 1 within 1e-10, got 0.0"):
            probability_vector([], "p")


PSI = PureStateVector(np.sqrt([0.5, 0.3, 0.2]))
PHI = PureStateVector(np.sqrt([0.8, 0.2, 0.0]))

# input site -> (a call that puts x into one entry of its probabilities, message prefix)
SITES = {
    "PureStateVector": (lambda x: PureStateVector([x, 1.0]), "invalid squared amplitudes"),
    "SchmidtVector": (lambda x: SchmidtVector([x, 0.5, 0.5]), "invalid Schmidt vector"),
    "majorizes": (
        lambda x: tr.majorizes(SchmidtVector([1.0]), SchmidtVector([0.5, 0.5, x])),
        "invalid Schmidt vector",
    ),
    "renyi": (lambda x: mo.renyi([x, 1.0], 2), "invalid probability vector"),
    "multi_outcome_decide": (
        lambda x: tr.multi_outcome_decide(PSI, [(x, PHI)]),
        "invalid ensemble weights",
    ),
    "mio source": (
        lambda x: tr.mio_qubit_pure_decide([x, 0.5], [0.9, 0.05, 0.05]),
        "invalid source probabilities",
    ),
    "mio target": (
        lambda x: tr.mio_qubit_pure_decide([0.5, 0.5], [x, 0.5, 0.5]),
        "invalid target probabilities",
    ),
    "GCovariantParams": (
        lambda x: ch.GCovariantParams(x, 0.5, 0.5, 3),
        "invalid covariant weights",
    ),
    "NCovariantSpec": (
        lambda x: cov.NCovariantSpec(h=np.eye(2), r=np.array([[1.0, x], [0.0, 1.0]])),
        "invalid transfer matrix columns",
    ),
    "phi_t": (lambda x: cov.phi_t(random_density(2, 0), x), "t must be finite and nonnegative"),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_probability_input_rejects_non_finite_entries(site, bad):
    call, prefix = SITES[site]
    with pytest.raises(ValueError, match=f"^{prefix}"):
        call(bad)


def _accepts(build, v) -> bool:
    try:
        build(v)
    except ValueError:
        return False
    return True


def _from_pure(v):
    return DensityMatrix.from_pure(SimpleNamespace(amps=v))


@pytest.mark.parametrize("d", [2, 3, 7, 16])
@pytest.mark.parametrize(
    "deviation", [0.5e-10, -0.5e-10, 0.9e-10, -0.9e-10, 1.1e-10, -1.1e-10, 2e-10, -2e-10]
)
def test_pure_state_is_valid_exactly_when_its_density_matrix_is(d, deviation):
    """A norm^2 of 1 + deviation passes both or neither, as the 1e-10 trace test says."""
    v = random_pure(d, d).amps * math.sqrt(1.0 + deviation)
    assert _accepts(PureStateVector, v) is _accepts(_from_pure, v) is (abs(deviation) <= STATE_TOL)


@pytest.mark.parametrize("d", [4, 5, 9, 16, 33])
def test_pure_state_and_density_matrix_agree_at_the_last_bit(d):
    """At norms^2 within a few rounding steps of 1 +- 1e-10 the two tests still
    agree: both sum the same squared moduli the same way."""
    outcomes = set()
    for seed in range(8):
        base = random_pure(d, seed).amps
        for edge in (1.0 + STATE_TOL, 1.0 - STATE_TOL):
            for k in range(-6, 7):
                v = base * math.sqrt(edge + k * 2.0**-52)
                accepted = _accepts(PureStateVector, v)
                assert accepted is _accepts(_from_pure, v), (seed, edge, k)
                outcomes.add(accepted)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Guard: the sum-to-one decision lives in one place.
# ---------------------------------------------------------------------------

# functions allowed a sum-to-one tolerance test of their own, and why
SUM_TESTS_ALLOWED = {
    "states.probability_vector": "the rule itself",
    "states._validated_stack": "the trace test of a density matrix",
    "channels.fit_g_covariant": "its 1e-6 check that a channel's read-off weights fit",
    "channels.is_pio_rep": "its 1e-7 check that a channel's operator groups cover the weight",
    "numerics.birkhoff_decompose": "no caller in the package; benchmark/tracing.py names it",
}

_SUM_CALLS = {"sum", "fsum", "trace", "norm"}


def _is_sum_deviation(node) -> bool:
    """abs(S - 1) or np.abs(S - 1), possibly inside max, np.max or a .max()
    method call, where S is a name or a sum, trace or norm call."""
    if isinstance(node, ast.Call) and _callee(node) == "max":
        node = node.args[0] if node.args else node.func.value
    if not (isinstance(node, ast.Call) and _callee(node) == "abs" and len(node.args) == 1):
        return False
    diff = node.args[0]
    if not (isinstance(diff, ast.BinOp) and isinstance(diff.op, ast.Sub)):
        return False
    if not (isinstance(diff.right, ast.Constant) and diff.right.value == 1):
        return False
    summed = diff.left
    return isinstance(summed, ast.Name) or (
        isinstance(summed, ast.Call) and _callee(summed) in _SUM_CALLS
    )


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _has_sum_test(tree) -> bool:
    """A comparison of a sum's deviation from 1 with anything, in any
    direction, negated (the NaN-safe form) or not."""
    return any(
        isinstance(node, ast.Compare)
        and any(_is_sum_deviation(side) for side in (node.left, *node.comparators))
        for node in ast.walk(tree)
    )


def _functions(tree):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _sum_tests_in_package() -> set:
    found = set()
    for path in sorted(Path(coherence_kit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, node in _functions(tree):
            if _has_sum_test(node):
                found.add(f"{path.stem}.{name}")
        outside = [n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        if any(_has_sum_test(n) for n in outside):
            found.add(f"{path.stem}.<module>")
    return found


def test_sum_to_one_is_tested_only_where_allowed():
    assert _sum_tests_in_package() == set(SUM_TESTS_ALLOWED)


@pytest.mark.parametrize(
    "line",
    [
        # the local checks the rule replaced, as they were written
        "abs(vec.sum() - 1.0) > 1e-9",
        "abs(p.sum() - 1.0) > STATE_TOL",
        "abs(np.linalg.norm(v) - 1.0) > STATE_TOL",
        "weights.size == 0 or np.min(weights) < -1e-12 or abs(weights.sum() - 1.0) > 1e-9",
        "abs(qv.sum() - 1.0) > 1e-9",
        "abs(sum(qs) - 1.0) > 1e-12",
        "np.min(r) < -1e-12 or np.max(np.abs(r.sum(axis=0) - 1.0)) > 1e-9",
        "abs(r.sum(axis=0) - 1.0).max() > 1e-9",
        # and the NaN-safe form
        "not abs(total - 1.0) <= tol",
    ],
)
def test_guard_flags_a_local_sum_test(line):
    assert _has_sum_test(ast.parse(line))


def test_guard_ignores_other_distances_from_one():
    assert not _has_sum_test(ast.parse("np.max(np.abs(group[0] - 1.0)) > 1e-8"))
    assert not _has_sum_test(ast.parse("abs(x.sum() - 2.0) > 1e-9"))
