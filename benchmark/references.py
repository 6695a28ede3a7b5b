"""Reference answers computed apart from coherence_kit, and the checks against them.

Nothing here imports the program: every reference is recomputed from the
definitions with numpy. Channels arrive as stacks of Kraus operators
(shape ``(n, dout, din)``) and states as plain matrices. Each ``check_*``
returns a list of problems, empty when the answer holds.
"""

from __future__ import annotations

import math

import numpy as np

# C_R answers must lie this close to the dual bound. The certified gap the
# C_R solver is meant to report is at most 2e-7, and the mixing method below
# converges to within 1e-8, so 1e-6 accepts any certified answer and still
# rejects an answer off by 1e-5.
CR_TOL = 1e-6
VALUE_TOL = 1e-7
STRUCTURE_TOL = 1e-9
WITNESS_TOL = 1e-7
# Verdicts whose deciding quantity lies within this band of its threshold are
# accepted either way; sampled inputs stay far outside it.
VERDICT_BAND = 1e-9

PANEL = (
    "c_rel",
    "c_l1",
    "c_r",
    "c_delta_r",
    "r_d",
    "trace_norm_coherence",
    "c_alpha[0.5]",
    "c_alpha[2]",
)


def _close(value, ref, tol) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def _psd_power(rho: np.ndarray, alpha: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    powered = np.zeros_like(vals)
    support = vals > 1e-12
    powered[support] = vals[support] ** alpha
    return (vecs * powered) @ vecs.conj().T


# ---------------------------------------------------------------------------
# Coherence measures.
# ---------------------------------------------------------------------------


def cr_dual_bound(rho: np.ndarray, tol: float = 1e-14, max_sweeps: int = 20000) -> float:
    """Lower bound on the robustness of coherence by the mixing method.

    C_R + 1 = max Tr(rho Y) over correlation matrices Y (Y PSD, unit
    diagonal). Write Y = V^H V with unit columns v_i and maximize by exact
    coordinate ascent, v_i <- g/|g| with g = sum_{j != i} rho_ji v_j (Wang,
    Chang & Kolter, arXiv:1706.00476). Every iterate is a feasible Y, so the
    value returned is a valid lower bound whether or not it has converged.
    """
    d = rho.shape[0]
    rng = np.random.default_rng(d)
    v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    v /= np.linalg.norm(v, axis=0)
    value = -math.inf
    for _ in range(max_sweeps):
        for i in range(d):
            g = v @ rho[:, i] - rho[i, i] * v[:, i]
            norm = np.linalg.norm(g)
            if norm > 0.0:
                v[:, i] = g / norm
        new = float(np.real(np.sum(rho * (v.conj().T @ v).T)))
        converged = new - value <= tol * max(1.0, abs(new))
        value = max(value, new)
        if converged:
            break
    return value - 1.0


def pure_cr(amps: np.ndarray) -> float:
    """(sum_x |psi_x|)^2 - 1, the robustness of a pure state."""
    return float(np.sum(np.abs(amps)) ** 2 - 1.0)


def monotone_panel(rho: np.ndarray, cr: float) -> dict:
    """The default ``monotones`` panel recomputed from the definitions."""
    diag = np.real(np.diag(rho))
    off = rho - np.diag(np.diag(rho))
    keep = diag > 1e-12
    scale = 1.0 / np.sqrt(diag[keep])
    core = rho[np.ix_(keep, keep)] * np.outer(scale, scale)
    c_delta_r = max(float(np.linalg.eigvalsh(core)[-1]) - 1.0, 0.0)
    panel = {
        "c_rel": _entropy_bits(diag) - _entropy_bits(np.linalg.eigvalsh(rho)),
        "c_l1": float(np.sum(np.abs(off))),
        "c_r": cr,
        "c_delta_r": c_delta_r,
        "r_d": math.log2(1.0 + c_delta_r),
        "trace_norm_coherence": float(np.sum(np.abs(np.linalg.eigvalsh(off)))),
    }
    for alpha in (0.5, 2.0):
        diag_pow = np.clip(np.real(np.diag(_psd_power(rho, alpha))), 0.0, None)
        total = float(np.sum(diag_pow ** (1.0 / alpha)))
        panel[f"c_alpha[{alpha:g}]"] = (alpha / (alpha - 1.0)) * math.log2(total)
    return panel


def check_monotone_panel(reports: list, reference: dict) -> list:
    """Compare a ``monotones`` JSON report list with ``monotone_panel``."""
    names = [r.get("name") for r in reports]
    if names != list(PANEL):
        return [f"panel names {names} differ from {list(PANEL)}"]
    problems = []
    for report in reports:
        name, value = report["name"], report["value"]
        tol = CR_TOL if name == "c_r" else VALUE_TOL
        if not _close(value, reference[name], tol):
            problems.append(f"{name} = {value!r}, reference {reference[name]!r}")
    return problems


# ---------------------------------------------------------------------------
# Channels.
# ---------------------------------------------------------------------------


def channel_action(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_j K_j rho K_j^dag."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def unit_action(kraus: np.ndarray, x: int, z: int) -> np.ndarray:
    """E(|x><z|) = sum_j K_j |x><z| K_j^dag."""
    return sum(np.outer(k[:, x], k[:, z].conj()) for k in kraus)


def choi_of(kraus: np.ndarray) -> np.ndarray:
    """sum_j vec(K_j) vec(K_j)^dag with vec stacking rows of K_j^T."""
    vecs = np.stack([k.T.reshape(-1) for k in kraus])
    return vecs.T @ vecs.conj()


def qubit_io_lambda_min(kraus: np.ndarray) -> float:
    """lambda_min of [[diag a, |C|], [|C|^T, diag b]] for a qubit-input channel.

    a = diag E(|0><0|), b = diag E(|1><1|), C = E(|0><1|). An incoherent
    Kraus representation exists iff this matrix is PSD.
    """
    a = np.real(np.diag(unit_action(kraus, 0, 0)))
    b = np.real(np.diag(unit_action(kraus, 1, 1)))
    c = np.abs(unit_action(kraus, 0, 1))
    m = np.block([[np.diag(a), c], [c.T, np.diag(b)]])
    return float(np.linalg.eigvalsh(m)[0])


def is_mio(kraus: np.ndarray) -> bool:
    din = kraus.shape[2]
    for x in range(din):
        out = unit_action(kraus, x, x)
        if np.max(np.abs(out - np.diag(np.diag(out)))) > STRUCTURE_TOL:
            return False
    return True


def is_dio(kraus: np.ndarray) -> bool:
    if not is_mio(kraus):
        return False
    din = kraus.shape[2]
    for x in range(din):
        for z in range(din):
            if x != z and np.max(np.abs(np.diag(unit_action(kraus, x, z)))) > STRUCTURE_TOL:
                return False
    return True


def _entries_per_column(op: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(op) > STRUCTURE_TOL, axis=0)


def is_io_form(kraus: np.ndarray) -> bool:
    """Every operator has at most one nonzero entry per column."""
    return all(np.all(_entries_per_column(k) <= 1) for k in kraus)


def is_sio_form(kraus: np.ndarray) -> bool:
    """Every operator has at most one nonzero entry per column and per row."""
    return is_io_form(kraus) and all(np.all(_entries_per_column(k.T) <= 1) for k in kraus)


def is_pio_form(kraus: np.ndarray) -> bool:
    """Operators sqrt(w) * (phase permutation on a support), grouped by w so
    that the supports within each group partition the basis."""
    if not is_sio_form(kraus):
        return False
    d = kraus.shape[2]
    groups: dict = {}
    for k in kraus:
        moduli = np.abs(k[np.abs(k) > STRUCTURE_TOL])
        if moduli.size == 0:
            continue
        if np.ptp(moduli) > 1e-8:
            return False
        support = np.nonzero(_entries_per_column(k))[0]
        groups.setdefault(round(float(moduli[0]) ** 2, 8), []).append(support)
    for supports in groups.values():
        covered = np.concatenate(supports)
        if covered.size != d or np.unique(covered).size != d:
            return False
    return True


def is_n_covariant_form(kraus: np.ndarray) -> bool:
    """Every operator is diagonal or a single off-diagonal hop."""
    for k in kraus:
        nonzero = np.argwhere(np.abs(k) > STRUCTURE_TOL)
        off = nonzero[nonzero[:, 0] != nonzero[:, 1]]
        if off.size and nonzero.shape[0] > 1:
            return False
    return True


STRUCTURES = {
    "io": is_io_form,
    "sio": is_sio_form,
    "pio": is_pio_form,
    "mio": is_mio,
    "n_covariant": is_n_covariant_form,
}


def check_witness(kraus: np.ndarray, structure: str, source: np.ndarray, target: np.ndarray) -> list:
    """Trace preservation, the class's operator structure, and source -> target."""
    problems = []
    din = kraus.shape[2]
    defect = sum(k.conj().T @ k for k in kraus) - np.eye(din)
    if np.max(np.abs(defect)) > WITNESS_TOL:
        problems.append(f"witness is not trace preserving (defect {np.max(np.abs(defect)):.2e})")
    if not STRUCTURES[structure](kraus):
        problems.append(f"witness operators lack the {structure} structure")
    miss = np.linalg.norm(channel_action(kraus, source) - target)
    if miss > WITNESS_TOL:
        problems.append(f"witness misses the target by {miss:.2e}")
    return problems


def check_verdict(verdict: bool, margin: float) -> list:
    """margin >= 0 means the transformation is possible; near 0 is not judged."""
    if abs(margin) <= VERDICT_BAND or verdict == (margin > 0):
        return []
    return [f"verdict {verdict} contradicts the reference margin {margin:.3e}"]


def check_qubit_io(kraus: np.ndarray, has_rep: bool, witness) -> list:
    """Verdict against lambda_min; a representation must be IO and the same channel."""
    problems = check_verdict(has_rep, qubit_io_lambda_min(kraus))
    if has_rep:
        defect = sum(k.conj().T @ k for k in witness) - np.eye(2)
        if np.max(np.abs(defect)) > WITNESS_TOL:
            problems.append("representation is not trace preserving")
        if not is_io_form(witness):
            problems.append("representation has an operator with two entries in one column")
        dist = np.linalg.norm(choi_of(witness) - choi_of(kraus))
        if dist > WITNESS_TOL:
            problems.append(f"representation differs from the channel (Choi distance {dist:.2e})")
    return problems


# ---------------------------------------------------------------------------
# Transformation verdicts.
# ---------------------------------------------------------------------------


def majorization_margin(source_probs: np.ndarray, target_probs: np.ndarray) -> float:
    """min_k (partial sum of target - partial sum of source), both descending."""
    s = np.cumsum(np.sort(source_probs)[::-1])
    t = np.cumsum(np.sort(target_probs)[::-1])
    return float(np.min(t - s))


def check_failing_k(source_probs: np.ndarray, target_probs: np.ndarray, k) -> list:
    """k must be the shortest prefix on which the source outweighs the target."""
    s = np.cumsum(np.sort(source_probs)[::-1])
    t = np.cumsum(np.sort(target_probs)[::-1])
    failing = np.nonzero(s - t > VERDICT_BAND)[0]
    if k is None or failing.size == 0 or int(failing[0]) + 1 != k:
        return [f"failing_k {k!r} is not the first violated prefix"]
    return []


def qubit_margin(rho: np.ndarray, sigma: np.ndarray) -> float:
    """min over the 2|rho_01| and |rho_01|/sqrt(rho_00 rho_11) orders."""

    def robustness(m):
        return 2.0 * abs(m[0, 1])

    def dephasing_robustness(m):
        prod = float(np.real(m[0, 0] * m[1, 1]))
        return 0.0 if prod <= 1e-12 else abs(m[0, 1]) / math.sqrt(prod)

    return min(
        robustness(rho) - robustness(sigma),
        dephasing_robustness(rho) - dephasing_robustness(sigma),
    )


def mio_pure_margin(p: np.ndarray, q: np.ndarray) -> float:
    """A uniform qubit reaches sqrt(q) iff sum sqrt(q) <= sqrt(2)."""
    if abs(p[0] - 0.5) > 1e-12:
        return -abs(p[0] - 0.5)
    return math.sqrt(2.0) - float(np.sum(np.sqrt(q)))


def ratio_matrix_lambda_min(rho: np.ndarray, sigma: np.ndarray) -> float:
    """lambda_min of Q with Q_xx = min(sigma_xx/rho_xx, 1), Q_xz = sigma_xz/rho_xz."""
    q = sigma / rho
    np.fill_diagonal(q, np.minimum(np.real(np.diag(sigma)) / np.real(np.diag(rho)), 1.0))
    return float(np.linalg.eigvalsh((q + q.conj().T) / 2.0)[0])


# ---------------------------------------------------------------------------
# classify.
# ---------------------------------------------------------------------------


def g_covariant_choi(q1: float, q2: float, q3: float, d: int) -> np.ndarray:
    """Choi of q1 id + q2/(d-1) (Tr I - Delta) + q3/(d-1) (d Delta - id)."""
    choi = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        for z in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[x, z] = 1.0
            deph = unit if x == z else np.zeros_like(unit)
            out = (
                q1 * unit
                + q2 / (d - 1) * (np.trace(unit) * np.eye(d) - deph)
                + q3 / (d - 1) * (d * deph - unit)
            )
            choi[x * d : (x + 1) * d, z * d : (z + 1) * d] = out
    return choi


def check_classify(report: dict, kraus: np.ndarray, known: dict) -> list:
    """Flags of ``classify`` against recomputation and the known construction.

    mio, dio, io_rep and sio_rep are recomputed from the operators; ``known``
    holds the flags a construction guarantees (and ``g_params`` for members
    of the covariant family); the class inclusions must hold between flags.
    """
    problems = []
    square = kraus.shape[1] == kraus.shape[2]
    recomputed = {
        "cptp": True,
        "mio": is_mio(kraus),
        "dio": is_dio(kraus),
        "io_rep": is_io_form(kraus),
        "sio_rep": is_sio_form(kraus) if square else None,
    }
    for name, want in list(recomputed.items()) + [
        (k, v) for k, v in known.items() if k != "g_params"
    ]:
        if report.get(name) != want:
            problems.append(f"{name} = {report.get(name)!r}, expected {want!r}")
    inclusions = (
        ("pio_rep", "sio_rep"),
        ("sio_rep", "sio_special_rep"),
        ("sio_special_rep", "io_rep"),
        ("io_rep", "mio"),
        ("dio", "mio"),
    )
    for sub, sup in inclusions:
        if report.get(sub) and not report.get(sup):
            problems.append(f"{sub} holds but {sup} does not")
    fit = report.get("g_covariant_fit")
    params = known.get("g_params")
    if params is None and fit is not None:
        problems.append(f"channel outside the covariant family got a fit {fit}")
    if params is not None:
        if fit is None:
            problems.append("covariant-family channel got no fit")
        else:
            got = (fit["q1"], fit["q2"], fit["q3"])
            if fit["d"] != params[3] or max(abs(a - b) for a, b in zip(got, params[:3])) > 1e-9:
                problems.append(f"fit {fit} differs from the construction {params}")
            elif np.linalg.norm(g_covariant_choi(*got, fit["d"]) - choi_of(kraus)) > WITNESS_TOL:
                problems.append("fitted family member differs from the channel")
    return problems
