"""Per-layer spans around the public functions of coherence_kit.

The layers are the package's modules. ``Tracer.install`` replaces each
function listed in ``SPANS`` by a wrapper that counts calls and accumulates
self time (the call's duration minus the time spent in wrapped callees). The
wrapper is bound everywhere the original was: in its own module, in every
module that imported it by name, and in the package namespace. Spans live in
memory; ``metrics`` reads them out at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, functions or Class.method names sharing one span)
SPANS = (
    ("monotones.c_r", "monotones", ("c_r",)),
    ("monotones.c_alpha", "monotones", ("c_alpha",)),
    ("monotones.c_delta_alpha", "monotones", ("c_delta_alpha",)),
    ("monotones.c_delta_r", "monotones", ("c_delta_r",)),
    ("monotones.trace_norm_coherence", "monotones", ("trace_norm_coherence",)),
    ("numerics.eig_hermitian", "numerics", ("eig_hermitian",)),
    ("numerics.mat_power_psd", "numerics", ("mat_power_psd",)),
    ("numerics.trace_norm", "numerics", ("trace_norm",)),
    ("numerics.birkhoff_decompose", "numerics", ("birkhoff_decompose",)),
    ("numerics.solve_lp", "numerics", ("solve_lp",)),
    ("states.DensityMatrix", "states", ("DensityMatrix.__init__",)),
    ("channels.qubit_mio_to_io", "channels", ("qubit_mio_to_io",)),
    ("channels.apply", "channels", ("apply",)),
    ("channels.KrausChannel", "channels", ("KrausChannel.__init__",)),
    ("channels.unit_actions", "channels", ("KrausChannel.unit_actions",)),
    (
        "channels.predicates",
        "channels",
        (
            "is_mio",
            "is_dio",
            "is_io_rep",
            "is_sio_rep",
            "is_sio_special_rep",
            "is_pio_rep",
            "is_covariant_under_dephasing",
        ),
    ),
    ("channels.choi_distance", "channels", ("choi_distance",)),
    ("transforms.sio_pure_construct", "transforms", ("sio_pure_construct",)),
    ("transforms.qubit_construct", "transforms", ("qubit_construct",)),
    ("transforms.mio_qubit_pure_construct", "transforms", ("mio_qubit_pure_construct",)),
    ("transforms.pio_pure_decide", "transforms", ("pio_pure_decide",)),
    ("covariance.n_feasible", "covariance", ("n_feasible",)),
    ("covariance.n_construct", "covariance", ("n_construct",)),
    ("harness.run_suite", "harness", ("run_suite",)),
    ("cli.main", "cli", ("main",)),
)

# Counters beyond calls and self time.
SOLVER_CALLS = "monotones.c_r.solver_calls"  # c_r reports not in closed form
NO_REP = "channels.qubit_mio_to_io.no_rep"  # negative IO verdicts


def metric_names() -> list:
    names = []
    for prefix, _, _ in SPANS:
        names += [f"{prefix}.calls", f"{prefix}.self_ms"]
    return names + [SOLVER_CALLS, NO_REP]


def metric_unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "count"


class Tracer:
    def __init__(self):
        self._calls = {prefix: 0 for prefix, _, _ in SPANS}
        self._self_s = {prefix: 0.0 for prefix, _, _ in SPANS}
        self._counters = {SOLVER_CALLS: 0, NO_REP: 0}
        self._children = []  # per open span: time spent in wrapped callees

    def _wrap(self, prefix: str, fn, after=None):
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._calls[prefix] += 1
                self._self_s[prefix] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in SPANS inside ``package`` (coherence_kit)."""
        modules = [
            m
            for name, m in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        for prefix, module_name, attrs in SPANS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self._wrap(prefix, getattr(cls, method)))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(prefix, original, self._after(prefix))
                if prefix == "channels.qubit_mio_to_io":
                    wrapped = self._count_no_rep(wrapped, module.NoIncoherentRepresentationError)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapped)

    def _after(self, prefix: str):
        if prefix != "monotones.c_r":
            return None

        def count_solver(report):
            if report.method != "closed_form":
                self._counters[SOLVER_CALLS] += 1

        return count_solver

    def _count_no_rep(self, fn, error_type):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except error_type:
                self._counters[NO_REP] += 1
                raise

        return counted

    def metrics(self) -> dict:
        out = {}
        for prefix, _, _ in SPANS:
            out[f"{prefix}.calls"] = self._calls[prefix]
            out[f"{prefix}.self_ms"] = 1e3 * self._self_s[prefix]
        out.update(self._counters)
        return out
