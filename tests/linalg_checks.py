"""Reference checks shared by the tests; the library does not use them."""

from coherence_kit.numerics import eig_hermitian


def is_psd(mat, tol: float = 1e-10) -> bool:
    """True iff the Hermitian matrix has minimum eigenvalue >= -tol."""
    return bool(eig_hermitian(mat).eigenvalues[0] >= -tol)
