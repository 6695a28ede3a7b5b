"""The benchmark's three workloads: their inputs, their calls and their checks.

A call is one entry into the program: one in-process CLI invocation (output
captured) or one library decision. Every workload is a sequence of rounds of
a fixed make-up; ``round(r)`` gives the calls of round r. Inputs come only
from the seed. Each call carries a check that compares its answer with a
reference from ``references``, computed without the program.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import statistics
import sys
import time
import traceback

import numpy as np

import references as ref


class CallFailed(Exception):
    """The program returned an error code instead of an answer."""


class Call:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check):
        self.kind = kind
        self.run = run  # () -> answer
        self.check = check  # answer -> list of problems


# On the reference machine (two shared virtual CPUs) the effective speed
# drifts by 10-40% from one stretch of seconds to the next, for a pure-Python
# loop and a qubit IO decision alike, which buried differences of the size
# the bounds are meant to catch. So a fixed calibration kernel that
# uses no program code is timed every CALIBRATE_EVERY_S of calls, and each
# call's time is scaled by REFERENCE_CALIBRATION_S over the median of the
# last CALIBRATION_WINDOW kernel times (one kernel time alone is too noisy):
# times are reported at the machine speed where the kernel takes the
# reference time (its usual time on the reference machine, see README).
CALIBRATE_EVERY_S = 0.25
CALIBRATION_WINDOW = 5
REFERENCE_CALIBRATION_S = 0.0033
_CAL_RNG = np.random.default_rng(0)
_CAL_MATS = [
    g + g.conj().T
    for g in (
        _CAL_RNG.standard_normal((d, d)) + 1j * _CAL_RNG.standard_normal((d, d))
        for d in [3] * 60 + [8] * 8 + [32]
    )
]
_CAL_SMALL = [[[float(x) for x in row] for row in _CAL_RNG.random((2, 2))] for _ in range(50)]


def _cal_branch(x: float, m: list) -> float:
    return math.sqrt(x) * m[0][0] - m[1][1] if x > 0 else m[0][1]


def calibration_s() -> float:
    """Time of the calibration kernel, a mix like the program's own work:
    small eigendecompositions and products, scalar bisections in Python,
    and a JSON round trip."""
    start = time.perf_counter()
    for m in _CAL_MATS:
        np.linalg.eigh(m)
        np.abs(m @ m).sum()
    total = 0.0
    for m in _CAL_SMALL:
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = (lo + hi) / 2.0
            if _cal_branch(mid, m) > 0:
                hi = mid
            else:
                lo = mid
        total += hi + sum(math.sqrt(v) for row in m for v in row)
    json.loads(json.dumps([[float(x) for x in row.real] for row in _CAL_MATS[-1]]))
    return time.perf_counter() - start


class Tally:
    """Outcome of the timed rounds."""

    def __init__(self):
        self.latencies = []  # as measured, in seconds
        self.scaled = []  # at the reference speed of the calibration kernel
        self.failed = 0
        self.problems = []
        self.rounds = 0
        self._calibrations = collections.deque(maxlen=CALIBRATION_WINDOW)
        self._since_calibration = 0.0
        self._scale = 1.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def run_round(self, calls: list) -> None:
        for call in calls:
            if not self._calibrations or self._since_calibration >= CALIBRATE_EVERY_S:
                self._calibrations.append(calibration_s())
                self._since_calibration = 0.0
                self._scale = REFERENCE_CALIBRATION_S / statistics.median(self._calibrations)
            start = time.perf_counter()
            try:
                answer = call.run()
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                elapsed = time.perf_counter() - start
                self.failed += 1
                if self.failed <= 3:
                    print(f"call {call.kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
            else:
                elapsed = time.perf_counter() - start
                for problem in call.check(answer):
                    self.problems.append(f"{call.kind}: {problem}")
            self.latencies.append(elapsed)
            self.scaled.append(elapsed * self._scale)
            self._since_calibration += elapsed
        self.rounds += 1


def run_cli(ck, argv: list) -> str:
    """``coherence_kit.cli.main(argv)`` with stdout captured; nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ck.cli.main(argv)
    if code != 0:
        raise CallFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _stack(channel) -> np.ndarray:
    return np.array(channel.kraus)


def _projector(amps: np.ndarray) -> np.ndarray:
    return np.outer(amps, amps.conj())


class Workload:
    name = ""
    # Percentile reported as call_tail_ms: the highest of p90/p95/p99/p99.9
    # that leaves at least ten calls beyond it in a run (see README).
    tail_percentile = 0
    # Round length on the reference machine; a traced run does
    # round(seconds / nominal_round_s) rounds, so its counts do not depend on speed.
    nominal_round_s = 1.0
    # Call kinds the warm-up pass runs; None runs the first call of every kind.
    warm_kinds = None

    def __init__(self, ck, seed: int, workdir: str):
        self.ck = ck
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        """Build (and write) the inputs of every round."""

    def round(self, r: int) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the first call of each kind once, untimed and unchecked."""
        seen = set()
        for call in self.round(0):
            if call.kind not in seen and (self.warm_kinds is None or call.kind in self.warm_kinds):
                seen.add(call.kind)
                try:
                    call.run()
                except Exception:  # noqa: BLE001 - the timed phase counts failures
                    pass


# ---------------------------------------------------------------------------
# harness-mono
# ---------------------------------------------------------------------------


class HarnessMono(Workload):
    """``harness --suite monotonicity --samples 1`` with a fresh seed per call."""

    name = "harness-mono"
    SAMPLES = 1
    CALLS_PER_ROUND = 20
    tail_percentile = 95
    nominal_round_s = 1.6

    def call_seed(self, r: int, i: int) -> int:
        return (self.seed * 1_000_003 + r * self.CALLS_PER_ROUND + i) % (2**31 - 1)

    def harness_call(self, seed: int) -> Call:
        argv = [
            "harness",
            "--suite",
            "monotonicity",
            "--samples",
            str(self.SAMPLES),
            "--seed",
            str(seed),
        ]

        def run():
            return json.loads(run_cli(self.ck, argv))

        def check(summary):
            want = {"suite": "monotonicity", "samples": self.SAMPLES, "seed": seed}
            problems = [
                f"{k} = {summary.get(k)!r}, expected {v!r}"
                for k, v in want.items()
                if summary.get(k) != v
            ]
            if summary.get("passed") is not True or summary.get("failures"):
                problems.append(f"harness seed {seed} reports failures {summary.get('failures')}")
            return problems

        return Call("harness", run, check)

    def round(self, r: int) -> list:
        return [self.harness_call(self.call_seed(r, i)) for i in range(self.CALLS_PER_ROUND)]


# ---------------------------------------------------------------------------
# monotones-dsweep
# ---------------------------------------------------------------------------


class MonotonesDsweep(Workload):
    """``monotones STATE.json`` (default panel) across dimensions.

    Generic mixed states at d = 3..8 run the C_R cutting plane; pure states
    and real entrywise-nonnegative states at d = 16..64 take C_R's closed
    form and spend their time in large eigendecompositions and JSON parsing.
    """

    name = "monotones-dsweep"
    # Mixed states per round by dimension. A cutting-plane solve costs 20 ms
    # at d = 3 and about 1 s at d = 8, and its cost varies by 20-50% from
    # state to state, so the figures of a run are steady only where they rest
    # on many states: the median call is a d = 3 solve, p95 falls inside the
    # d = 4 solves, and one solve at each of d = 5..8 per round keeps the
    # scaling in the throughput (d = 8 is a fifth of the time).
    MIXED = {3: 100, 4: 10, 5: 1, 6: 1, 7: 1, 8: 1}
    WIDE_DIMS = (16, 24, 32, 48, 64)
    # Pure and nonnegative states per dimension and round.
    WIDE_PER_KIND = 2
    POOL_ROUNDS = 8
    tail_percentile = 95
    nominal_round_s = 4.7
    # the cutting plane at d = 8 takes a second; warm up on the smallest states
    warm_kinds = {"mixed3", "pure16", "nonneg16"}

    def __init__(self, ck, seed, workdir):
        super().__init__(ck, seed, workdir)
        self._rounds = []
        self._references = {}

    def _state_call(self, kind: str, path: str, mat: np.ndarray, amps=None) -> Call:
        def run():
            return json.loads(run_cli(self.ck, ["monotones", path]))

        def check(reports):
            if path not in self._references:
                cr = ref.pure_cr(amps) if amps is not None else ref.cr_dual_bound(mat)
                self._references[path] = ref.monotone_panel(mat, cr)
            return ref.check_monotone_panel(reports, self._references[path])

        return Call(kind, run, check)

    def generate(self) -> None:
        ck = self.ck
        self._rounds = []
        for r in range(self.POOL_ROUNDS):
            rng = np.random.default_rng([self.seed, r])
            calls = []
            for d, count in self.MIXED.items():
                for j in range(count):
                    rho = ck.random_density(d, int(rng.integers(2**31)))
                    path = _write_json(
                        os.path.join(self.workdir, f"r{r}-mixed{d}-{j}.json"), rho.to_json_dict()
                    )
                    calls.append(self._state_call(f"mixed{d}", path, rho.mat))
            for d in self.WIDE_DIMS:
                for j in range(self.WIDE_PER_KIND):
                    psi = ck.random_pure(d, int(rng.integers(2**31)))
                    path = _write_json(
                        os.path.join(self.workdir, f"r{r}-pure{d}-{j}.json"), psi.to_json_dict()
                    )
                    calls.append(self._state_call(f"pure{d}", path, _projector(psi.amps), psi.amps))
                    a = rng.random((d, d))
                    m = a @ a.T
                    rho = ck.DensityMatrix(m / np.trace(m))
                    path = _write_json(
                        os.path.join(self.workdir, f"r{r}-nonneg{d}-{j}.json"), rho.to_json_dict()
                    )
                    calls.append(self._state_call(f"nonneg{d}", path, rho.mat))
            self._rounds.append([calls[i] for i in rng.permutation(len(calls))])

    def round(self, r: int) -> list:
        return self._rounds[r % self.POOL_ROUNDS]


# ---------------------------------------------------------------------------
# decide-classify
# ---------------------------------------------------------------------------


class DecideClassify(Workload):
    """Deciders that never call C_R, plus ``classify`` on channel files.

    Qubit IO canonicalisations (about 10 ms) are the majority of calls, so
    the median sits inside their cost class; SIO constructions at d = 12 and
    16 (30-130 ms) are the top five percent and hold the tail. The remaining
    calls (qubit, MIO-pure, PIO and N-covariant decisions, small SIO cases,
    classify) are cheaper than both.
    """

    name = "decide-classify"
    IO_CALLS = 34
    # (dimension, target majorizes source)
    SIO_CASES = ((4, True), (6, True), (8, True), (12, True), (12, True), (12, True),
                 (16, True), (16, True), (16, True), (8, False), (16, False))
    QUBIT_CALLS = 4
    N_COV_DIMS = (3, 3, 4, 4)
    CLASSIFY_CALLS = 4
    CLASSIFY_KINDS = ("pio", "sio", "sio_special", "io", "g_covariant", "unitary",
                      "n_covariant", "generic", "mio_qubit", "qubit_to_qutrit")
    POOL_ROUNDS = 12
    tail_percentile = 99
    nominal_round_s = 0.9

    def __init__(self, ck, seed, workdir):
        super().__init__(ck, seed, workdir)
        self._rounds = []

    # -- qubit MIO -> IO -------------------------------------------------

    def _io_call(self, channel) -> Call:
        ck = self.ck
        kraus = _stack(channel)

        def run():
            try:
                return _stack(ck.qubit_mio_to_io(channel))
            except ck.NoIncoherentRepresentationError:
                return None

        def check(rep):
            return ref.check_qubit_io(kraus, rep is not None, rep)

        return Call("qubit_mio_to_io", run, check)

    # -- transformations --------------------------------------------------

    def _decision_call(self, kind, decide, margin, structure, source, target, extra=None) -> Call:
        """A decision whose verdict must agree with ``margin`` (> 0: possible)."""

        def check(decision):
            problems = ref.check_verdict(decision.verdict, margin)
            if decision.verdict:
                if decision.witness is None:
                    return problems + ["positive verdict without a witness"]
                problems += ref.check_witness(_stack(decision.witness), structure, source, target)
            elif extra is not None:
                problems += extra(decision)
            return problems

        return Call(kind, decide, check)

    def _sio_call(self, rng, d: int, feasible: bool) -> Call:
        ck = self.ck
        psi = ck.random_pure(d, int(rng.integers(2**31)))
        p = np.sort(psi.probs)[::-1]
        lam = rng.uniform(0.3, 0.8)
        anchor = np.eye(d)[0] if feasible else np.full(d, 1.0 / d)
        q = lam * p + (1.0 - lam) * anchor
        phases = np.exp(2j * np.pi * rng.random(d))
        phi = ck.PureStateVector(np.sqrt(q)[rng.permutation(d)] * phases)
        margin = ref.majorization_margin(psi.probs, phi.probs)
        return self._decision_call(
            f"sio{d}",
            lambda: ck.sio_pure_decide(psi, phi),
            margin,
            "sio",
            _projector(psi.amps),
            _projector(phi.amps),
            extra=lambda dec: ref.check_failing_k(
                psi.probs, phi.probs, (dec.violation or {}).get("failing_k")
            ),
        )

    def _qubit_call(self, rng, feasible: bool) -> Call:
        ck = self.ck
        rho = ck.random_density(2, int(rng.integers(2**31)))
        if feasible:
            sigma = ref.channel_action(_stack(ck.random_sio_channel(2, rng)), rho.mat)
        else:
            sigma = ck.random_density(2, int(rng.integers(2**31))).mat
        sigma = ck.DensityMatrix(sigma)
        return self._decision_call(
            "qubit",
            lambda: ck.qubit_decide(rho, sigma),
            ref.qubit_margin(rho.mat, sigma.mat),
            "sio",
            rho.mat,
            sigma.mat,
        )

    def _mio_pure_call(self, rng, feasible: bool) -> Call:
        ck = self.ck
        p = np.array([0.5, 0.5])
        if feasible:
            while True:
                q = rng.dirichlet([40.0, 1.0, 1.0])
                if np.sum(np.sqrt(q)) < math.sqrt(2.0) - 1e-6:
                    break
        else:
            q = np.full(3, 1.0 / 3.0)
        return self._decision_call(
            "mio_pure",
            lambda: ck.mio_qubit_pure_decide(p, q),
            ref.mio_pure_margin(p, q),
            "mio",
            np.full((2, 2), 0.5),
            _projector(np.sqrt(q)),
        )

    def _pio_call(self, rng, feasible: bool) -> Call:
        ck = self.ck
        n, blocks = 2, 2
        d = n * blocks
        if feasible:
            profile = np.abs(ck.random_pure(n, int(rng.integers(2**31))).amps)
            phi_amps = np.zeros(d, dtype=complex)
            phi_amps[rng.choice(d, n, replace=False)] = profile
            weights = np.sqrt(rng.dirichlet(np.ones(blocks)))
            moduli = np.concatenate([w * profile for w in weights])[rng.permutation(d)]
            psi_amps = moduli * np.exp(2j * np.pi * rng.random(d))
            psi, phi = ck.PureStateVector(psi_amps), ck.PureStateVector(phi_amps)
        else:
            psi = ck.random_pure(d, int(rng.integers(2**31)))
            phi = ck.random_pure(d, int(rng.integers(2**31)))
        return self._decision_call(
            "pio",
            lambda: ck.pio_pure_decide(psi, phi),
            1.0 if feasible else -1.0,  # known from the construction
            "pio",
            _projector(psi.amps),
            _projector(phi.amps),
        )

    def _n_cov_call(self, rng, d: int, feasible: bool) -> Call:
        ck = self.ck
        rho = ck.random_density(d, int(rng.integers(2**31)))
        if feasible:
            sigma = ref.channel_action(_stack(ck.random_n_covariant_channel(d, rng)), rho.mat)
        else:
            sigma = ck.random_density(d, int(rng.integers(2**31))).mat
        sigma = ck.DensityMatrix(sigma)
        return self._decision_call(
            f"n_cov{d}",
            lambda: ck.n_feasible(rho, sigma),
            ref.ratio_matrix_lambda_min(rho.mat, sigma.mat),
            "n_covariant",
            rho.mat,
            sigma.mat,
        )

    # -- classify -----------------------------------------------------------

    def _channel_of_kind(self, kind: str, rng):
        """A channel of the given construction and the flags it guarantees."""
        ck = self.ck
        if kind == "pio":
            return ck.random_pio_channel(3, rng), {"pio_rep": True, "sio_special_rep": True}
        if kind == "sio":
            return ck.random_sio_channel(4, rng), {"sio_special_rep": True}
        if kind == "sio_special":
            return ck.random_sio_special_channel(4, rng), {"sio_special_rep": True}
        if kind == "io":
            return ck.random_io_channel(4, rng), {}
        if kind == "g_covariant":
            params = ck.GCovariantParams(*rng.dirichlet(np.ones(3)), 3)
            return ck.g_covariant_channel(params), {"g_params": params.as_tuple() + (3,)}
        if kind == "unitary":
            u = ck.random_incoherent_unitary(4, rng)
            return ck.incoherent_unitary_channel(u), {"pio_rep": True, "sio_special_rep": True}
        if kind == "n_covariant":
            return ck.random_n_covariant_channel(3, rng), {"sio_special_rep": True}
        if kind == "generic":
            return ck.random_channel(3, 3, 3, rng), {"sio_special_rep": False, "pio_rep": False}
        if kind == "mio_qubit":
            return ck.sample_mio_qubit_channel(int(rng.integers(2**31))), {}
        return ck.qubit_to_qutrit_mio_example(), {"pio_rep": None}

    def _classify_call(self, path: str, kraus: np.ndarray, known: dict) -> Call:
        def run():
            return json.loads(run_cli(self.ck, ["classify", path]))

        return Call("classify", run, lambda report: ref.check_classify(report, kraus, known))

    # -- rounds ---------------------------------------------------------------

    def generate(self) -> None:
        ck = self.ck
        self._rounds = []
        for r in range(self.POOL_ROUNDS):
            rng = np.random.default_rng([self.seed, r])
            calls = [
                self._io_call(ck.sample_mio_qubit_channel(int(rng.integers(2**31))))
                for _ in range(self.IO_CALLS)
            ]
            calls += [self._sio_call(rng, d, feasible) for d, feasible in self.SIO_CASES]
            calls += [self._qubit_call(rng, i % 2 == 0) for i in range(self.QUBIT_CALLS)]
            calls += [self._mio_pure_call(rng, feasible) for feasible in (True, False)]
            calls += [self._pio_call(rng, feasible) for feasible in (True, False)]
            calls += [self._n_cov_call(rng, d, i % 2 == 0) for i, d in enumerate(self.N_COV_DIMS)]
            for i in range(self.CLASSIFY_CALLS):
                kind = self.CLASSIFY_KINDS[(r * self.CLASSIFY_CALLS + i) % len(self.CLASSIFY_KINDS)]
                channel, known = self._channel_of_kind(kind, rng)
                path = _write_json(os.path.join(self.workdir, f"r{r}-{kind}.json"), channel.to_json_dict())
                calls.append(self._classify_call(path, _stack(channel), known))
            self._rounds.append([calls[i] for i in rng.permutation(len(calls))])

    def round(self, r: int) -> list:
        return self._rounds[r % self.POOL_ROUNDS]


WORKLOADS = {w.name: w for w in (HarnessMono, MonotonesDsweep, DecideClassify)}
