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
call. On an ``amps`` input the measures with a pure form are read off
p = |psi|^2, and the density matrix is built only for one without.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _ParseFailure(str(exc)) from exc


class _ParseFailure(Exception):
    pass


def _load_state(path: str):
    payload = _load_json(path)
    return state_from_json_dict(payload)


def _as_density(state) -> DensityMatrix:
    return state.to_density() if isinstance(state, PureStateVector) else state


def _format_float(v: float) -> str:
    """A float as the CSV form prints it: "inf", "-inf" and "nan" when it
    is not finite."""
    return f"{v:.9g}"


def _finite_json(value):
    """value with each non-finite float replaced by ``_format_float``'s
    string, since strict JSON has no Infinity or NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else _format_float(value)
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _format_csv(rows: list, header: list) -> str:
    """CSV as RFC 4180 writes it, lines ending in a newline: a field that
    holds a comma, a quote or a newline is quoted; any other keeps its bytes."""

    def fmt(v):
        if isinstance(v, float):
            return _format_float(v)
        return str(v)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(v) for v in row] for row in rows)
    return out.getvalue()


def _destination(path: str):
    """What writing to path would write: the (device, inode) of an existing
    regular file, the resolved path where nothing exists yet, or None for a
    FIFO, device or other special file, which may be named more than once."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _write_all(files) -> None:
    """Write every (path, text) of files, or none of them: all are opened,
    untruncated, before any is written, and a failure removes the files this
    call created. Each is written in place, so a FIFO or device stays one.
    Two paths that name one regular file, or one path not there yet, are a
    usage error before anything is opened: the second text would replace
    the first."""
    named = {}
    for path, _ in files:
        key = _destination(path)
        if key in named:
            raise UsageError(f"{named[key]} and {path} name the same file")
        if key is not None:
            named[key] = path
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
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:  # a non-finite float; walking every payload costs 1-2% of a call
            text = json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False)
        text += "\n"
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

    A pure state's measures that have a pure form are read off p = |psi|^2
    (``mo._pure_reports``). The density matrix is built on first use, for a
    measure without one, and once, so the measures share one cached
    spectrum; ``report`` runs each measure token once.
    """

    def __init__(self, state):
        self.state = state
        self._pure = mo._pure_reports(state) if isinstance(state, PureStateVector) else {}
        self._reports = {}

    @functools.cached_property
    def rho(self) -> DensityMatrix:
        return _as_density(self.state)

    def measure(self, name: str, *params) -> mo.MonotoneReport:
        """The report of ``mo.<name>(rho, *params)``, or of its pure form."""
        if name in self._pure:
            return self._pure[name](*params)
        return getattr(mo, name)(self.rho, *params)

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
    "c_rel": lambda panel, p: panel.measure("c_rel"),
    "c_l1": lambda panel, p: panel.measure("c_l1"),
    "c_r": lambda panel, p: panel.measure("c_r"),
    "c_delta_r": lambda panel, p: panel.measure("c_delta_r"),
    "r_d": lambda panel, p: mo.log_robustness_of(panel.report("c_delta_r")),
    "trace_norm": lambda panel, p: panel.measure("trace_norm_coherence"),
    "c_alpha": lambda panel, p: panel.measure("c_alpha", p[0]),
    "c_delta_alpha": lambda panel, p: panel.measure("c_delta_alpha", p[0], *p[1:2]),
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
    stack = channel.kraus
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
