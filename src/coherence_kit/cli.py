"""Command-line front end.

Subcommands: classify, monotones, transform, reproduce, harness. Each accepts
only the options it reads; any other option is a usage error. Every command
routes straight into the library with the given seed, so outputs are
byte-identical to direct calls. Exit codes: 0 ok, 1 property violation,
2 parse failure (also an input file that is not UTF-8), 3 invalid object,
4 usage error (also an --out or --witness-out file that cannot be written).

The argument parser is built once per process, on the first ``main`` call,
and reused: parsing reads it and never changes it. A ``monotones`` call runs
each measure it names once, and r_d reads the c_delta_r report of the same
call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import channels as ch
from . import covariance as cov
from . import harness as hrn
from . import monotones as mo
from . import transforms as tr
from .states import (
    DensityMatrix,
    PureStateVector,
    qubit_standard_form,
    random_density,
    state_from_json_dict,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _ParseFailure(str(exc)) from exc


class _ParseFailure(Exception):
    pass


def _load_state(path: str):
    payload = _load_json(path)
    return state_from_json_dict(payload)


def _as_density(state) -> DensityMatrix:
    return state.to_density() if isinstance(state, PureStateVector) else state


def _format_csv(rows: list, header: list) -> str:
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.9g}"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_all(files) -> None:
    """Write every (path, text) of files, or none of them: all are opened,
    untruncated, before any is written, and a failure removes the files this
    call created. Each is written in place, so a FIFO or device stays one."""
    opened = []  # (path, text, created by this call, handle)
    try:
        for path, text in files:
            created = not os.path.lexists(path)
            opened.append((path, text, created, open(path, "a", encoding="utf-8")))
        for path, text, _, fh in opened:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            fh.write(text)
            fh.close()
    except OSError as exc:
        for made, _, created, fh in opened:
            fh.close()
            if created:
                os.remove(made)
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(args, payload, csv_rows=None, csv_header=None, side_files=()):
    """Write the output to --out and each (path, text) of side_files, all or
    none of them, then to stdout when there is no --out."""
    if getattr(args, "format", "json") == "csv":
        text = _format_csv(csv_rows, csv_header)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_all(([(args.out, text)] if args.out else []) + list(side_files))
    if not args.out:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    tol = args.tol
    if not 0.0 <= tol < math.inf:
        raise UsageError(f"--tol must be a finite number of at least 0, got {tol!r}")
    channel = ch.KrausChannel.from_json_dict(_load_json(args.channel))
    report = {"cptp": True}
    for klass in ch.CLASS_PARENTS:
        try:
            report[klass] = ch.in_class(channel, klass, tol)
        except ValueError:  # a test outside its domain, such as a non-square channel
            report[klass] = None
    fit = ch.fit_g_covariant(channel)
    report["g_covariant_fit"] = (
        None
        if fit is None
        else {"q1": fit.q1, "q2": fit.q2, "q3": fit.q3, "d": fit.d}
    )
    _emit(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# monotones
# ---------------------------------------------------------------------------

_DEFAULT_MEASURES = (
    "c_rel",
    "c_l1",
    "c_r",
    "c_delta_r",
    "r_d",
    "trace_norm",
    "c_alpha:0.5",
    "c_alpha:2",
)


class _Panel:
    """The reports of one monotones call on one loaded state.

    The density matrix is built once, so the measures share one cached
    spectrum, and ``report`` runs each measure token once.
    """

    def __init__(self, state):
        self.state = state
        self.rho = _as_density(state)
        self._reports = {}

    def report(self, token: str) -> mo.MonotoneReport:
        if token not in self._reports:
            self._reports[token] = _measure_report(token, self)
        return self._reports[token]


def _c_q_alpha(panel, params) -> mo.MonotoneReport:
    if not isinstance(panel.state, PureStateVector):
        raise UsageError("c_q_alpha needs a pure-state input")
    return mo.c_q_alpha_pure(panel.state, params[0])


# measure name -> report from the panel and the ":"-separated parameters after
# the name, alpha already parsed; parameters past the ones a measure reads are
# ignored
_MEASURES = {
    "c_rel": lambda panel, p: mo.c_rel(panel.rho),
    "c_l1": lambda panel, p: mo.c_l1(panel.rho),
    "c_r": lambda panel, p: mo.c_r(panel.rho),
    "c_delta_r": lambda panel, p: mo.c_delta_r(panel.rho),
    "r_d": lambda panel, p: mo.log_robustness_of(panel.report("c_delta_r")),
    "trace_norm": lambda panel, p: mo.trace_norm_coherence(panel.rho),
    "c_alpha": lambda panel, p: mo.c_alpha(panel.rho, p[0]),
    "c_delta_alpha": lambda panel, p: mo.c_delta_alpha(panel.rho, p[0], *p[1:2]),
    "c_q_alpha": _c_q_alpha,
}
# measure name -> the closed range of its alpha; c_delta_alpha's optional
# second parameter is its side
_ALPHA_RANGE = {"c_alpha": (0.0, 2.0), "c_delta_alpha": (0.0, 2.0), "c_q_alpha": (0.5, math.inf)}


def _measure_report(token: str, panel: _Panel) -> mo.MonotoneReport:
    """The report of the measure a token names; a missing or out-of-range
    parameter is a usage error, raised before the measure runs."""
    name, *params = token.split(":")
    if name not in _MEASURES:
        raise UsageError(f"unknown measure {token!r}")
    if name in _ALPHA_RANGE:
        if not params:
            raise UsageError(f"measure {name} needs a parameter, as in {name}:2")
        low, high = _ALPHA_RANGE[name]
        try:
            alpha = float(params[0])
        except ValueError:
            alpha = math.nan
        if not low <= alpha <= high:
            raise UsageError(f"measure {name} needs alpha in [{low:g}, {high:g}], got {params[0]!r}")
        if name == "c_delta_alpha" and params[1:2] and params[1] not in ("right", "left"):
            raise UsageError(f"measure {name} takes side right or left, got {params[1]!r}")
        params[0] = alpha
    return _MEASURES[name](panel, params)


def _cmd_monotones(args) -> int:
    panel = _Panel(_load_state(args.state))
    tokens = (
        list(_DEFAULT_MEASURES)
        if args.measures == "all"
        else [t.strip() for t in args.measures.split(",") if t.strip()]
    )
    reports = [panel.report(token) for token in tokens]
    payload = [r.to_json_dict() for r in reports]
    rows = [(r.name, r.value, r.method) for r in reports]
    _emit(args, payload, rows, ["measure", "value", "method"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def _pure_pair(source, target) -> tuple:
    for state, label in ((source, "source"), (target, "target")):
        if not isinstance(state, PureStateVector):
            raise UsageError(f"{label} must be a pure state (amps payload) for this class")
    return source, target


def _decide_mio_pure(source, target):
    psi, phi = _pure_pair(source, target)
    if psi.dim != 2:
        raise UsageError("mio-pure expects a qubit source")
    return tr.mio_qubit_pure_decide(psi.probs, phi.probs)


def _decide_qubit(source, target):
    rho, sigma = _as_density(source), _as_density(target)
    if rho.dim != 2 or sigma.dim != 2:
        raise UsageError("qubit class expects two qubit states")
    return tr.qubit_decide(rho, sigma)


# transform class -> decision for the loaded (source, target) states
_TRANSFORMS = {
    "sio": lambda source, target: tr.sio_pure_decide(*_pure_pair(source, target)),
    "mio-pure": _decide_mio_pure,
    "qubit": _decide_qubit,
    "pio": lambda source, target: tr.pio_pure_decide(*_pure_pair(source, target)),
}


def _cmd_transform(args) -> int:
    decision = _TRANSFORMS[args.klass](_load_state(args.source), _load_state(args.target))
    side_files = []
    if decision.witness is not None and args.witness_out:
        witness = json.dumps(decision.witness.to_json_dict(), indent=2, sort_keys=True)
        side_files.append((args.witness_out, witness))
    _emit(args, decision.to_json_dict(), side_files=side_files)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _artifact_example() -> tuple:
    channel = ch.qubit_to_qutrit_mio_example()
    stack = np.stack(channel.kraus)
    completeness = np.einsum("jyx,jyz->xz", stack.conj(), stack) - np.eye(2)
    completeness_residual = float(np.max(np.abs(completeness)))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    target = np.array([4.0, 1.0, 1.0]) / math.sqrt(18.0)
    proportionality = []
    for k in channel.kraus:
        image = k @ plus
        overlap = target.conj() @ image
        proportionality.append(float(np.linalg.norm(image - overlap * target)))
    payload = {
        "completeness_residual": completeness_residual,
        "proportionality_residuals": proportionality,
        "mio": ch.is_mio(channel),
        "io_rep": ch.is_io_rep(channel),
        "dio": ch.is_dio(channel),
        "max_residual": max([completeness_residual] + proportionality),
    }
    return payload


def _artifact_fig1() -> tuple:
    p = np.array([0.5, 0.5])
    q = np.array([8.0 / 9.0, 1.0 / 18.0, 1.0 / 18.0])
    rows = []
    steps = int(round(4.0 / 0.02))
    for i in range(steps + 1):
        alpha = i * 0.02
        rows.append((alpha, mo.renyi(p, alpha), mo.renyi(q, alpha)))
    return rows, ["alpha", "s_alpha_uniform", "s_alpha_target"]


def _artifact_cp_threshold() -> tuple:
    rows = []
    for d in range(2, 9):
        lo, hi = 0.0, 10.0
        for _ in range(40):
            mid = (lo + hi) / 2.0
            if cov.is_phi_t_cp(d, mid):
                hi = mid
            else:
                lo = mid
        rows.append((d, hi, float(d - 1)))
    return rows, ["d", "threshold", "expected"]


def _artifact_qubit_formulas(seed: int) -> tuple:
    rows = []
    for i in range(50):
        rho = random_density(2, seed + i)
        sf = qubit_standard_form(rho)
        std = DensityMatrix(sf.gauge @ rho.mat @ sf.gauge.conj().T)
        solver = mo.c_r(std, method="cutting_plane").value
        eigen = mo.c_delta_r(std).value
        rows.append((sf.p, sf.r, solver, 2.0 * sf.r, eigen, tr._qubit_cdr(sf.p, sf.r)))
    return rows, ["p", "r", "c_r_solver", "c_r_closed", "c_delta_r_eigen", "c_delta_r_closed"]


# table artifact name -> builder of (rows, header) from the seed
_TABLES = {
    "fig1": lambda seed: _artifact_fig1(),
    "cp-threshold": lambda seed: _artifact_cp_threshold(),
    "qubit-formulas": _artifact_qubit_formulas,
}


def _cmd_reproduce(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {args.seed}")
    if args.artifact == "example":
        if args.format == "csv":
            raise UsageError("this command has no CSV form")
        _emit(args, _artifact_example())
    else:
        rows, header = _TABLES[args.artifact](args.seed)
        _emit(args, [dict(zip(header, row)) for row in rows], rows, header)
    return EXIT_OK


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _injection_hook():
    """Deliberate corruption hook, enabled by COHERENCE_KIT_HARNESS_INJECT.

    Replaces the sampled channel at the given index (default 0) by a plainly
    coherent rotation. The inclusions suite flags it at every seed, since the
    rotation lies in no incoherent class. The monotonicity suite flags it only
    where some monotone rises from the sampled input state to its rotated
    image, which depends on the state: ``--samples 1 --seed 4`` passes.
    """
    flag = os.environ.get("COHERENCE_KIT_HARNESS_INJECT")
    if not flag:
        return None
    target = int(flag) if flag.isdigit() else 0

    def hook(channel, index):
        if index != target:
            return channel
        d = channel.din
        rot = np.eye(d, dtype=complex)
        c, s = math.cos(0.3), math.sin(0.3)
        rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c
        return ch.KrausChannel([rot])

    return hook


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _cmd_harness(args) -> int:
    summary = hrn.run_suite(
        args.suite,
        samples=args.samples,
        seed=args.seed,
        corrupt_hook=_injection_hook(),
    )
    _emit(args, summary)
    return EXIT_OK if summary["passed"] else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="coherence-kit", description="Coherence classes, monotones and deciders.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="class membership report for a channel file")
    p.add_argument("channel")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("monotones", help="coherence-measure panel for a state file")
    p.add_argument("state")
    p.add_argument("--measures", default="all")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_monotones)

    p = sub.add_parser("transform", help="decide a state transformation")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--class", dest="klass", required=True, choices=tuple(_TRANSFORMS))
    p.add_argument("--witness-out")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("reproduce", help="emit a reproducible artifact")
    p.add_argument("--artifact", required=True, choices=("example", *_TABLES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_reproduce)

    p = sub.add_parser("harness", help="run a sampled property suite")
    p.add_argument("--suite", required=True, choices=hrn.SUITES)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_harness)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ParseFailure as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid object: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
