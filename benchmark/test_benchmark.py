"""Tests of the benchmark itself: its checks reject wrong answers, failures count.

Run from the repository root with ``python3 -m pytest benchmark -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import coherence_kit as ck  # noqa: E402
import coherence_kit.cli  # noqa: E402,F401
import references as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _monotones_report(tmp_path, rho):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(rho.to_json_dict()))
    return json.loads(workloads.run_cli(ck, ["monotones", str(path)]))


def _io_channels():
    """First sampled qubit MIO channels with and without an IO representation."""
    found = {}
    seed = 0
    while len(found) < 2:
        channel = ck.sample_mio_qubit_channel(seed)
        try:
            found.setdefault(True, (channel, np.array(ck.qubit_mio_to_io(channel).kraus)))
        except ck.NoIncoherentRepresentationError:
            found.setdefault(False, (channel, None))
        seed += 1
    return found


def test_cr_check_rejects_value_off_by_1e_5(tmp_path):
    rho = ck.random_density(3, 11)
    reports = _monotones_report(tmp_path, rho)
    reference = ref.monotone_panel(rho.mat, ref.cr_dual_bound(rho.mat))
    assert ref.check_monotone_panel(reports, reference) == []
    for shift in (1e-5, -1e-5):
        wrong = [dict(r, value=r["value"] + shift) if r["name"] == "c_r" else r for r in reports]
        assert ref.check_monotone_panel(wrong, reference)


def test_pure_state_panel_uses_the_closed_form(tmp_path):
    psi = ck.random_pure(16, 3)
    reports = _monotones_report(tmp_path, psi.to_density())
    mat = np.outer(psi.amps, psi.amps.conj())
    assert ref.check_monotone_panel(reports, ref.monotone_panel(mat, ref.pure_cr(psi.amps))) == []
    assert ref.pure_cr(psi.amps) == pytest.approx(ref.cr_dual_bound(mat), abs=1e-8)


def test_io_check_rejects_flipped_verdicts():
    for has_rep, (channel, rep) in _io_channels().items():
        kraus = np.array(channel.kraus)
        assert ref.check_qubit_io(kraus, has_rep, rep) == []
        assert ref.check_qubit_io(kraus, not has_rep, rep if rep is not None else kraus)


def test_witness_checks_reject_two_entries_in_one_column():
    channel, rep = _io_channels()[True]
    bad = rep.copy()
    col = int(np.argmax(np.abs(bad[0]).sum(axis=0)))
    row = int(np.argmax(np.abs(bad[0][:, col])))
    bad[0][1 - row, col] = 0.1
    assert ref.check_qubit_io(np.array(channel.kraus), True, bad)

    psi = ck.random_pure(4, 1)
    phi = ck.PureStateVector(np.sqrt(0.5 * np.sort(psi.probs)[::-1] + 0.5 * np.eye(4)[0]))
    witness = np.array(ck.sio_pure_decide(psi, phi).witness.kraus)
    src, dst = np.outer(psi.amps, psi.amps.conj()), np.outer(phi.amps, phi.amps.conj())
    assert ref.check_witness(witness, "sio", src, dst) == []
    bad = witness.copy()
    col = int(np.argmax(np.abs(bad[0]).sum(axis=0)))
    bad[0][(int(np.argmax(np.abs(bad[0][:, col]))) + 1) % 4, col] = 0.1
    assert ref.check_witness(bad, "sio", src, dst)


def test_injected_harness_call_counts_as_failed(monkeypatch, tmp_path):
    workload = workloads.HarnessMono(ck, seed=0, workdir=str(tmp_path))
    call = workload.harness_call(5)
    tally = workloads.Tally()
    tally.run_round([call])
    assert (tally.attempted, tally.failed, tally.problems) == (1, 0, [])
    monkeypatch.setenv("COHERENCE_KIT_HARNESS_INJECT", "0")
    tally.run_round([call])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_one_round_of_decisions_passes_every_check(tmp_path):
    workload = workloads.DecideClassify(ck, seed=3, workdir=str(tmp_path))
    workload.generate()
    tally = workloads.Tally()
    tally.run_round(workload.round(0))
    assert tally.failed == 0 and tally.problems == []
    assert tally.attempted == len(workload.round(0))


def test_traced_counts_repeat_exactly(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(ck)

    def counts():
        workload = workloads.DecideClassify(ck, seed=4, workdir=str(tmp_path))
        workload.generate()
        before = tracer.metrics()
        tally = workloads.Tally()
        for r in range(2):
            tally.run_round(workload.round(r))
        after = tracer.metrics()
        return {k: after[k] - before[k] for k in after if not k.endswith("_ms")}

    first = counts()
    assert counts() == first
    assert first["monotones.c_r.calls"] == 0
    assert first["channels.qubit_mio_to_io.calls"] == 2 * workloads.DecideClassify.IO_CALLS


def test_benchmark_json_lists_every_traced_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"]) for m in per_layer] == [
        (name, tracing.metric_unit(name)) for name in tracing.metric_names()
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "harness-mono", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
