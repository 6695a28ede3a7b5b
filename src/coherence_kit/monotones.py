"""Coherence measures: Renyi families, robustness measures, and rate calculators.

All values are in bits (log base 2). Each measure returns a MonotoneReport
carrying the value, the evaluation method, an optional witness (an optimal
diagonal majorant, an optimal ratio vector, or similar) and, for the C_R
solver, the certified dual bound.

The spectral measures read the eigendecomposition rho = V diag(lambda) V^H
cached on the state (``DensityMatrix.spectrum``) instead of factorizing it
again. Each is a trace against a diagonal state, so it needs only the diagonal
of a function of rho, diag f(rho) = |V|^2 f(lambda) (``_diag_of``); no d x d
power of rho is formed. The dephased state is raised to a power elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import eig_hermitian, psd_power_values, trace_norm
from .states import DensityMatrix, PureStateVector, SchmidtVector


@dataclass(frozen=True)
class MonotoneReport:
    name: str
    value: float
    method: str  # closed_form | barrier (certified C_R solver) | eigenvalue | coordinate_descent
    witness: object = None
    bound: float | None = None  # certified lower bound on value; None when exact

    def to_json_dict(self, include_witness: bool = False) -> dict:
        payload = {"name": self.name, "value": self.value, "method": self.method}
        if include_witness and self.bound is not None:
            payload["bound"] = self.bound
        if include_witness and self.witness is not None:
            w = np.asarray(self.witness)
            if np.iscomplexobj(w):
                payload["witness"] = [[float(z.real), float(z.imag)] for z in w.ravel()]
            else:
                payload["witness"] = [float(v) for v in w.ravel()]
        return payload


def _prob_vector(p) -> np.ndarray:
    if isinstance(p, SchmidtVector):
        vec = p.probs
    else:
        vec = np.asarray(p, dtype=float).ravel()
        if np.min(vec, initial=0.0) < -1e-10:
            raise ValueError("negative probabilities")
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
    return np.clip(vec, 0.0, None)


def renyi(p, alpha: float) -> float:
    """Renyi entropy S_alpha in bits; alpha=1 is Shannon, alpha=inf is min-entropy."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    vec = _prob_vector(p)
    vec = vec[vec > 1e-15]
    if math.isinf(alpha):
        return float(-np.log2(np.max(vec)))
    if alpha == 1.0:
        return float(-np.sum(vec * np.log2(vec)))
    if alpha == 0.0:
        return float(np.log2(vec.size))
    return float(np.log2(np.sum(vec**alpha)) / (1.0 - alpha))


def _diag_of(rho: DensityMatrix, values: np.ndarray) -> np.ndarray:
    """Diagonal of V diag(values) V^H for the cached spectrum rho = V diag(lambda) V^H."""
    vecs = rho.spectrum.eigenvectors
    return (vecs.real**2 + vecs.imag**2) @ values


def c_rel(rho: DensityMatrix) -> MonotoneReport:
    """Relative entropy of coherence S(dephased) - S(rho)."""
    value = renyi(np.diag(rho.mat).real, 1.0) - renyi(rho.spectrum.eigenvalues, 1.0)
    return MonotoneReport("c_rel", value, "closed_form")


def c_alpha(rho: DensityMatrix, alpha: float) -> MonotoneReport:
    """Renyi coherence monotone, closed form, for alpha in [0, 2].

    (alpha/(alpha-1)) * log2 sum_x <x|rho^alpha|x>^(1/alpha); alpha = 1
    dispatches to the relative entropy of coherence, alpha = 0 is the
    analytic limit -log2 max_x <x|P|x> with P the support projector.
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    name = f"c_alpha[{alpha:g}]"
    if alpha == 1.0:
        return MonotoneReport(name, c_rel(rho).value, "closed_form")
    powers = psd_power_values(rho.spectrum.eigenvalues, alpha)
    diag = np.clip(_diag_of(rho, powers), 0.0, None)
    if alpha == 0.0:
        return MonotoneReport(name, -math.log2(float(np.max(diag))), "closed_form")
    total = float(np.sum(diag ** (1.0 / alpha)))
    value = (alpha / (alpha - 1.0)) * math.log2(total)
    return MonotoneReport(name, value, "closed_form")


def c_l1(rho: DensityMatrix) -> MonotoneReport:
    """Sum of off-diagonal moduli."""
    off = np.abs(rho.mat) - np.diag(np.abs(np.diag(rho.mat)))
    return MonotoneReport("c_l1", float(off.sum()), "closed_form")


def c_q_alpha_pure(psi: PureStateVector, alpha: float) -> MonotoneReport:
    """Sandwiched-Renyi coherence of a pure state: S_gamma(p), gamma = a/(2a-1)."""
    if alpha < 0.5:
        raise ValueError("alpha must be at least 1/2")
    if math.isinf(alpha):
        gamma = 0.5
    elif alpha == 0.5:
        gamma = math.inf
    else:
        gamma = alpha / (2.0 * alpha - 1.0)
    return MonotoneReport(f"c_q_alpha[{alpha:g}]", renyi(psi.probs, gamma), "closed_form")


def c_delta_alpha(rho: DensityMatrix, alpha: float, side: str = "right") -> MonotoneReport:
    """Dephasing-relative Renyi monotone.

    right: (1/(alpha-1)) log2 Tr[rho^alpha (dephased)^{1-alpha}]
    left:  same with the arguments swapped. At alpha = 1 these become the
    corresponding relative entropies. For alpha >= 1 the left variant is +inf
    when the support of the dephased state exceeds the rank of rho. Both sides
    are diag(rho^a) . dephased^b with (a, b) = (alpha, 1-alpha) on the right
    and (1-alpha, alpha) on the left.
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    name = f"c_delta_alpha[{alpha:g},{side}]"
    if alpha == 1.0 and side == "right":
        return MonotoneReport(name, c_rel(rho).value, "closed_form")
    delta = np.diag(rho.mat).real
    vals = rho.spectrum.eigenvalues
    if side == "left" and alpha >= 1.0 and np.sum(delta > 1e-12) > np.sum(vals > 1e-12):
        return MonotoneReport(name, math.inf, "closed_form")
    if alpha == 1.0:
        log_rho = _diag_of(rho, np.log2(np.clip(vals, 1e-300, None)))
        return MonotoneReport(name, -renyi(delta, 1.0) - float(delta @ log_rho), "closed_form")
    a, b = (alpha, 1.0 - alpha) if side == "right" else (1.0 - alpha, alpha)
    val = float(_diag_of(rho, psd_power_values(vals, a)) @ psd_power_values(delta, b))
    value = math.log2(max(val, 1e-300)) / (alpha - 1.0)
    return MonotoneReport(name, value, "closed_form")


def trace_norm_coherence(rho: DensityMatrix) -> MonotoneReport:
    """Trace norm of rho minus its dephased version."""
    return MonotoneReport(
        "trace_norm_coherence", trace_norm(rho.mat - np.diag(np.diag(rho.mat))), "closed_form"
    )


def _is_pure(rho: DensityMatrix) -> bool:
    return float(np.trace(rho.mat @ rho.mat).real) >= 1.0 - 1e-12


def _is_real_nonneg(rho: DensityMatrix) -> bool:
    return bool(
        np.max(np.abs(rho.mat.imag)) <= 1e-12 and np.min(rho.mat.real) >= -1e-12
    )


C_R_GAP = 1e-9


def _log_det_barrier(s: np.ndarray) -> float:
    """-log det S, or +inf when S is not positive definite."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return math.inf
    return -2.0 * float(np.sum(np.log(chol.diagonal().real)))


def _c_r_barrier(rho: DensityMatrix):
    """min{ 1.d : Diag(d) >= rho } by damped Newton on t 1.d - log det S.

    S = Diag(d) - rho stays positive definite, so every iterate d is primal
    feasible. Y = S^-1 rescaled to unit diagonal is a correlation matrix, so
    Tr(rho Y) is a dual lower bound (Napoli et al., PRL 116, 150502); the
    solver stops once 1.d - Tr(rho Y) <= C_R_GAP. Gradient t - diag S^-1,
    Hessian |S^-1|^2 entrywise; each step starts at the self-concordant damped
    length 1/(1 + lambda), which keeps S positive definite, and backtracks.
    The -log det S of an accepted trial is carried into the next step.
    Returns (1.d - 1, d, Tr(rho Y) - 1).
    """
    mat = rho.mat
    n = rho.dim
    d_vec = np.full(n, float(rho.spectrum.eigenvalues[-1]) + 1.0 / n)
    t = float(np.mean(np.linalg.inv(np.diag(d_vec) - mat).diagonal().real))
    log_det = _log_det_barrier(np.diag(d_vec) - mat)
    for _ in range(40):
        for _ in range(60):
            s = np.diag(d_vec) - mat
            s_inv = np.linalg.inv(s)
            diag = s_inv.diagonal().real
            scale = 1.0 / np.sqrt(diag)
            dual = float(np.vdot(s_inv * np.outer(scale, scale), mat).real)
            if np.sum(d_vec) - dual <= C_R_GAP:
                return float(np.sum(d_vec) - 1.0), d_vec, dual - 1.0
            grad = t - diag
            step = -np.linalg.solve(np.abs(s_inv) ** 2, grad)
            decrement = float(-grad @ step)
            if decrement <= 1e-8:
                break
            base = t * np.sum(d_vec) + log_det
            alpha = 1.0 / (1.0 + math.sqrt(decrement))
            while alpha > 1e-12:
                trial = d_vec + alpha * step
                trial_log_det = _log_det_barrier(np.diag(trial) - mat)
                value = t * np.sum(trial) + trial_log_det
                if value <= base - 0.25 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break
            d_vec, log_det = trial, trial_log_det
        t *= 8.0
    raise ArithmeticError("barrier solver did not close the duality gap")


def c_r(rho: DensityMatrix, method: str = "auto") -> MonotoneReport:
    """Robustness of coherence.

    Closed forms: pure states give (sum sqrt p)^2 - 1, qubits give 2r, and
    entrywise-nonnegative real states give the l1 value. Anything else, or
    method='cutting_plane' (kept as the name that forces the solver), runs the
    log-det barrier solver, whose answer is within 1e-9 of a dual lower bound.
    The witness is then the optimal diagonal majorant's diagonal, and the
    report's bound is the dual value Tr(rho Y) - 1 that certifies it.
    """
    if method not in ("auto", "cutting_plane"):
        raise ValueError("method must be 'auto' or 'cutting_plane'")
    if method == "auto":
        if _is_pure(rho):
            p = np.clip(np.diag(rho.mat).real, 0.0, None)
            return MonotoneReport("c_r", float(np.sum(np.sqrt(p)) ** 2 - 1.0), "closed_form")
        if rho.dim == 2:
            return MonotoneReport("c_r", 2.0 * abs(rho.mat[0, 1]), "closed_form")
        if _is_real_nonneg(rho):
            return MonotoneReport("c_r", c_l1(rho).value, "closed_form")
    value, d_vec, bound = _c_r_barrier(rho)
    return MonotoneReport("c_r", value, "barrier", witness=d_vec, bound=bound)


def c_delta_r(rho: DensityMatrix) -> MonotoneReport:
    """Dephasing robustness: the least t with (1+t) * dephased - rho PSD.

    Computed as lambda_max(D^{-1/2} rho D^{-1/2}) - 1 on the support of the
    dephased state D; the witness is the maximizing ratio vector.
    """
    diag = np.diag(rho.mat).real
    keep = diag > 1e-12
    if not np.all(keep):
        dropped = ~keep
        if np.max(np.abs(rho.mat[dropped, :]), initial=0.0) > 1e-10:
            raise ValueError("zero-diagonal row carries off-diagonal weight")
    sub = rho.mat[np.ix_(keep, keep)]
    scale = 1.0 / np.sqrt(diag[keep])
    core = sub * np.outer(scale, scale)
    dec = eig_hermitian(core)
    lam = float(dec.eigenvalues[-1])
    top = dec.eigenvectors[:, -1] * scale
    witness = np.zeros(rho.dim, dtype=complex)
    witness[keep] = top / np.linalg.norm(top)
    return MonotoneReport("c_delta_r", max(lam - 1.0, 0.0), "eigenvalue", witness=witness)


def log_robustness_dephasing(rho: DensityMatrix) -> MonotoneReport:
    """log2(1 + dephasing robustness); between 0 and log2 d."""
    base = c_delta_r(rho)
    return MonotoneReport("r_d", math.log2(1.0 + base.value), "eigenvalue", witness=base.witness)


def _trace_distance_to_diag(rho: DensityMatrix, q: np.ndarray) -> float:
    return trace_norm(rho.mat - np.diag(q.astype(complex)))


def monotone_from_divergence(
    rho: DensityMatrix,
    divergence: str = "trace_distance",
    reference_set: str = "dephased_singleton",
) -> MonotoneReport:
    """Distance-based monotone for a supported (divergence, reference set) pair.

    dephased_singleton: the exact trace-norm distance to the dephased state.
    incoherent_set: minimized over diagonal states by pairwise coordinate
    descent on the diagonal weights (convergence threshold 1e-7).
    """
    if divergence != "trace_distance":
        raise ValueError(f"unsupported divergence {divergence!r}")
    if reference_set == "dephased_singleton":
        return MonotoneReport(
            "div[trace_distance,dephased_singleton]",
            trace_norm_coherence(rho).value,
            "closed_form",
        )
    if reference_set != "incoherent_set":
        raise ValueError(f"unsupported reference set {reference_set!r}")
    q = np.clip(np.diag(rho.mat).real, 0.0, None)
    q = q / q.sum()
    best = _trace_distance_to_diag(rho, q)
    d_dim = rho.dim
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        improved = 0.0
        for i in range(d_dim):
            for j in range(i + 1, d_dim):
                lo, hi = -q[j], q[i]
                if hi - lo < 1e-14:
                    continue
                x1 = hi - golden * (hi - lo)
                x2 = lo + golden * (hi - lo)

                def shifted(t):
                    trial = q.copy()
                    trial[i] -= t
                    trial[j] += t
                    return _trace_distance_to_diag(rho, trial)

                f1, f2 = shifted(x1), shifted(x2)
                for _ in range(60):
                    if f1 <= f2:
                        hi, x2, f2 = x2, x1, f1
                        x1 = hi - golden * (hi - lo)
                        f1 = shifted(x1)
                    else:
                        lo, x1, f1 = x1, x2, f2
                        x2 = lo + golden * (hi - lo)
                        f2 = shifted(x2)
                t_best = (lo + hi) / 2.0
                val = shifted(t_best)
                if val < best - 1e-15:
                    improved += best - val
                    best = val
                    q[i] -= t_best
                    q[j] += t_best
        if improved < 1e-7:
            break
    return MonotoneReport(
        "div[trace_distance,incoherent_set]", best, "coordinate_descent", witness=q
    )


def distillation_rate_pure(psi: PureStateVector) -> float:
    """Shannon entropy (bits) of the squared amplitudes."""
    return renyi(psi.probs, 1.0)


def dilution_ratio(psi: PureStateVector, phi: PureStateVector) -> float:
    """Entropy ratio of the two squared-amplitude distributions."""
    denom = distillation_rate_pure(phi)
    if denom <= 1e-12:
        raise ValueError("target state is incoherent (zero entropy)")
    return distillation_rate_pure(psi) / denom
