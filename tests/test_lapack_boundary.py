"""One module calls LAPACK: ``numerics``.

Every factorization of the package goes through numerics' entry points
(``eig_hermitian``, ``trace_norm``, ``eigh_factors``, ``svd_factors``,
``cholesky_mask``, ``solve_stack``, ``solve_rows`` and the barrier), which
call numpy's private LAPACK gufuncs under one of two failure policies, raise
or refuse the row. These tests check that no other module reaches for those
gufuncs, names one of numerics' error states, or calls a numpy.linalg
factorization of its own.
"""

import ast
from pathlib import Path

import pytest

import coherence_kit

LAPACK_MODULE = "numerics"
FACTORIZATIONS = {"eigh", "eigvalsh", "svd", "solve", "inv", "cholesky"}


def _dotted(node) -> str:
    """The dotted name of an Attribute chain on a Name ("np.linalg.eigh"),
    or "" for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def _offences(tree) -> list:
    """Each use of LAPACK outside numerics in a parsed module, by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                found += [
                    name
                    for name in (alias.name, f"{module}.{alias.name}", alias.asname or "")
                    if _forbidden(name)
                ]
        elif isinstance(node, ast.Name) and _forbidden(node.id):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and _forbidden(_dotted(node) or node.attr):
            found.append(_dotted(node) or node.attr)
    return found


def _forbidden(name: str) -> bool:
    """A LAPACK gufunc module, an error state of numerics' (``*_ERRSTATE``),
    or a numpy.linalg factorization."""
    head, _, last = name.rpartition(".")
    if last == "_umath_linalg" or last.endswith("_ERRSTATE"):
        return True
    return head.endswith("linalg") and last in FACTORIZATIONS


def _lapack_outside_numerics() -> dict:
    found = {}
    for path in sorted(Path(coherence_kit.__file__).parent.glob("*.py")):
        if path.stem == LAPACK_MODULE:
            continue
        offences = _offences(ast.parse(path.read_text()))
        if offences:
            found[path.stem] = offences
    return found


def test_only_numerics_calls_lapack():
    assert _lapack_outside_numerics() == {}


def test_numerics_is_where_the_gufuncs_are():
    path = Path(coherence_kit.__file__).parent / f"{LAPACK_MODULE}.py"
    assert "_umath_linalg" in _offences(ast.parse(path.read_text()))


@pytest.mark.parametrize(
    "line",
    [
        # what monotones and channels held before numerics took them over
        "from numpy.linalg import _umath_linalg",
        "from .numerics import _EIGH_ERRSTATE, _SVD_ERRSTATE, eig_hermitian",
        "np.errstate(**_LAPACK_ERRSTATE)",
        "vals, vecs = _umath_linalg.eigh_lo(m)",
        "numerics._umath_linalg.svd_f(k)",
        "vals, vecs = np.linalg.eigh(h)",
        "u = np.linalg.eigh(a1 - a2)[1]",
        "sol = np.linalg.solve(schur, rhs)",
        "numpy.linalg.eigvalsh(m)",
        "np.linalg.svd(k, full_matrices=False)",
        "np.linalg.inv(block)",
        "np.linalg.cholesky(block)",
        "from numpy.linalg import cholesky",
        "from numpy import linalg; linalg.inv(m)",
        "import numpy.linalg._umath_linalg as lapack",
    ],
)
def test_guard_flags_lapack_outside_numerics(line):
    assert _offences(ast.parse(line))


@pytest.mark.parametrize(
    "line",
    [
        "np.linalg.norm(v)",
        "q, _ = np.linalg.qr(g)",
        "np.errstate(invalid='ignore', over='ignore')",
        "from .numerics import eigh_factors, raise_lapack_errors, solve_rows",
        "vals, vecs = eigh_factors(j)",
        "dec = eig_hermitian(m)",
    ],
)
def test_guard_ignores_other_calls(line):
    assert _offences(ast.parse(line)) == []
