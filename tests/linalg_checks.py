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


def reference_permutohedron_walk(x: np.ndarray, y: np.ndarray) -> tuple:
    """The numpy form of ``transforms._permutohedron_walk``, kept as its
    reference: the same steps, one numpy call each, so the two must return
    the same weights and permutations bit for bit.

    Weights w > 0 summing to 1 and m <= d permutations with x = w @ y[perms].

    y is descending and majorizes x, so x lies in the permutohedron of y,
    whose facets are the cuts sum_S z <= Y_|S| (Y the prefix sums of y).
    From the vertex v with v[order] = y, ``order`` sorting z descending, the
    walk steps through z to the first free cut hit, z + lam (z - v); lam is
    found exactly by Dinkelbach's method from above, over the top-k sets of
    z + lam (z - v). Each step tightens one more cut, so at most d - 1 steps
    reach a vertex (Yasutake, Hatano, Kijima, Takimoto and Takeda, ISAAC
    2011). Ties in z need no tie-break: a tie across a tight cut forces equal
    entries of y there, so every descending order gives the same v on them.
    A step writes z = (z' + lam v) / (1 + lam), so the weights are carried as
    products; rounding amplified by a far extrapolation is damped by the same
    factor 1 / (1 + lam).
    """
    d = x.size
    y_cum = np.cumsum(y)
    tight = np.zeros(d, dtype=bool)
    tight[-1] = True  # sum z = sum y throughout
    z = x.astype(float)
    order = np.argsort(-z, kind="stable")
    weights, perms, carry = [], [], 1.0
    while not tight.all():
        v = np.empty(d)
        v[order] = y
        u = z - v
        lam, cut = np.inf, None
        while True:
            idx = np.argsort(-u if lam == np.inf else -(z + lam * u), kind="stable")
            u_cum = np.cumsum(u[idx])
            free = np.flatnonzero(~tight & (u_cum > 0.0))
            if free.size == 0:
                break
            with np.errstate(over="ignore"):  # a vanishing u-sum never binds
                ratios = (y_cum[free] - np.cumsum(z[idx])[free]) / u_cum[free]
            best = int(np.argmin(ratios))
            if ratios[best] >= lam:
                break
            lam, cut = float(ratios[best]), int(free[best])
        if cut is None:  # u vanishes up to rounding: z is the vertex v
            break
        step = max(lam, 0.0)
        if step > 0.0:
            weights.append(carry * step / (1.0 + step))
            perms.append(np.argsort(order))
            carry /= 1.0 + step
        z = z + step * u
        tight[cut] = True
        order = np.argsort(-z, kind="stable")
    weights.append(carry)
    perms.append(np.argsort(order))
    keep = np.array(weights) > 0.0
    return np.array(weights)[keep], np.array(perms)[keep]



def reference_sio_stack(psi, phi):
    """The dense form of ``transforms.sio_pure_construct``'s stack, kept as
    its reference. Returns (failing_k, None), failing_k read off
    ``majorizes``, or (None, ops): the operators built in the sorted frame as
    a real stack, carried back by the dense sorting gauges,
    g_out^H @ ops @ g_in with g = diag(phases) @ perm, then sliced or folded
    to the states' dimensions as the construction does."""
    from coherence_kit import transforms as tr
    from coherence_kit.states import schmidt_vector

    check = tr.majorizes(schmidt_vector(phi), schmidt_vector(psi))
    if not check:
        return check.failing_k, None
    d_in, d_out = psi.dim, phi.dim
    d = max(d_in, d_out)

    def dense_gauge(amps):
        order, phases, moduli = tr._sorting_gauge(np.pad(amps, (0, d - amps.size)))
        perm = np.zeros((d, d), dtype=complex)
        perm[np.arange(d), order] = 1.0
        return np.diag(phases) @ perm, moduli

    g_in, amps_in = dense_gauge(psi.amps)
    g_out, amps_out = dense_gauge(phi.amps)
    y = amps_out**2
    weights, perms = tr._permutohedron_walk(amps_in**2, y)
    reached = weights @ y[perms]
    support = reached > 0.0
    ratio = np.zeros((d, d))
    ratio[:, support] = amps_out[:, None] / np.sqrt(reached[support])
    cols = np.arange(d)
    ops = np.zeros((weights.size, d, d))
    ops[np.arange(weights.size)[:, None], perms, cols] = ratio[perms, cols]
    ops += np.diag((~support).astype(float))
    ops *= np.sqrt(weights)[:, None, None]
    ops = g_out.conj().T @ ops @ g_in
    if d_in < d_out:
        return None, ops[:, :, :d_in]
    if d_in > d_out:
        fold = np.zeros((1 + d_in - d_out, d_out, d_in))
        fold[0, :, :d_out] = np.eye(d_out)
        fold[np.arange(1, fold.shape[0]), 0, np.arange(d_out, d_in)] = 1.0
        ops = (fold[:, None] @ ops[None]).reshape(-1, d_out, d_in)
        ops = ops[np.any(ops != 0.0, axis=(1, 2))]
    return None, ops
