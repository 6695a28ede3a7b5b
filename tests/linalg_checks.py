"""Reference checks shared by the tests; the library does not use them."""

import numpy as np

from coherence_kit.numerics import eig_hermitian
from coherence_kit.states import DensityMatrix


def is_psd(mat, tol: float = 1e-10) -> bool:
    """True iff the Hermitian matrix has minimum eigenvalue >= -tol."""
    return bool(eig_hermitian(mat).eigenvalues[0] >= -tol)


def rank_k_state(d, k, seed) -> DensityMatrix:
    """g g^H / |g|^2 for g a d x k complex Gaussian: a rank-k state."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2)
