import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import os
import re
import stat
import threading

import numpy as np
import pytest

from coherence_kit import channels as ch
from coherence_kit import monotones as mo
from coherence_kit import transforms as tr
from coherence_kit import cli
from coherence_kit.cli import main
from coherence_kit.harness import run_suite
from coherence_kit.states import DensityMatrix, PureStateVector, random_density, random_pure


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    plus = PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    target = PureStateVector(np.sqrt([8 / 9, 1 / 18, 1 / 18]))
    return {
        "example": write("example.json", ch.qubit_to_qutrit_mio_example().to_json_dict()),
        "identity": write("identity.json", ch.KrausChannel([np.eye(2)]).to_json_dict()),
        "hadamard": write(
            "hadamard.json",
            ch.KrausChannel([np.array([[1, 1], [1, -1]]) / math.sqrt(2)]).to_json_dict(),
        ),
        "plus": write("plus.json", plus.to_json_dict()),
        "psi": write("psi.json", target.to_json_dict()),
        "mixed_qubit": write(
            "mixed.json", DensityMatrix([[0.7, 0.2], [0.2, 0.3]]).to_json_dict()
        ),
        "weak_qubit": write(
            "weak.json", DensityMatrix([[0.8, 0.2], [0.2, 0.2]]).to_json_dict()
        ),
        "strong_qubit": write(
            "strong.json", DensityMatrix([[0.5, 0.3], [0.3, 0.5]]).to_json_dict()
        ),
        "dir": tmp_path,
    }


def strict_loads(text):
    """json.loads that refuses Infinity, -Infinity and NaN, as jq and
    JSON.parse do."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, argv):
    """Exit code and stdout of one call; a JSON stdout must parse strictly."""
    code = main(argv)
    out = capsys.readouterr().out
    if out.startswith(("{", "[")):
        strict_loads(out)
    return code, out


def assert_object_error(capsys, argv):
    """Exit 3 with a single "invalid object:" line on stderr."""
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid object: ") and err.count("\n") == 1


def channel_text(din="2", dout="2", kraus="[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]"):
    return '{"din": %s, "dout": %s, "kraus": %s}' % (din, dout, kraus)


def state_text(dim="2", mat="[[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]"):
    return '{"dim": %s, "mat": %s}' % (dim, mat)


HUGE = str(10**400)

# Files that hold no channel or no state, as JSON text.
BAD_CHANNELS = {
    "not-trace-preserving": channel_text(kraus="[[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]"),
    "huge-integer-entry": channel_text(kraus=f"[[[[{HUGE}, 0], [0, 0]], [[0, 0], [1, 0]]]]"),
    "din-1e999": channel_text(din="1e999"),
    "din-2.7": channel_text(din="2.7"),
    "din-string": channel_text(din='"2"'),
    "din-dout-true": channel_text(din="true", dout="true", kraus="[[[[1, 0]]]]"),
    "din-true": channel_text(din="true", dout="1", kraus="[[[[1, 0]]]]"),
    "dout-true": channel_text(din="1", dout="true", kraus="[[[[1, 0]]]]"),
    "string-entry": channel_text(kraus='[[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]]'),
    "null-entry": channel_text(kraus="[[[[null, 0], [0, 0]], [[0, 0], [1, 0]]]]"),
    "ragged-row": channel_text(kraus="[[[[1, 0], [0, 0]], [[1, 0]]]]"),
    "missing-imaginary-part": channel_text(kraus="[[[[1], [0, 0]], [[0, 0], [1, 0]]]]"),
    "extra-nesting": channel_text(kraus="[[[[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]]"),
    "no-operators": channel_text(kraus="[]"),
}
BAD_STATES = {
    "huge-integer-entry": state_text(mat=f"[[[{HUGE}, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]"),
    "dim-1e999": state_text(dim="1e999"),
    "dim-2.7": state_text(dim="2.7"),
    "dim-string": state_text(dim='"2"'),
    "string-entry": state_text(mat='[[["0.5", 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]'),
    "null-entry": state_text(mat="[[[null, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]"),
    "ragged-row": state_text(mat="[[[0.5, 0], [0.5, 0]], [[0.5, 0]]]"),
    "missing-imaginary-part": state_text(mat="[[[0.5], [0.5, 0]], [[0.5, 0], [0.5, 0]]]"),
    "extra-nesting": state_text(mat="[[[[0.5, 0]], [[0.5, 0]]], [[[0.5, 0]], [[0.5, 0]]]]"),
    "amps-huge-integer-entry": '{"dim": 2, "amps": [[%s, 0], [0, 0]]}' % HUGE,
    "amps-dim-string": '{"dim": "2", "amps": [[1, 0], [0, 0]]}',
    "dim-true": state_text(dim="true", mat="[[[1, 0]]]"),
    "amps-dim-true": '{"dim": true, "amps": [[1, 0]]}',
}


class TestClassify:
    def test_example_channel(self, files, capsys):
        code, out = run_cli(capsys, ["classify", files["example"]])
        assert code == 0
        report = strict_loads(out)
        assert report["cptp"] is True
        assert report["mio"] is True
        assert report["io_rep"] is False
        assert report["dio"] is False

    def test_identity_channel(self, files, capsys):
        code, out = run_cli(capsys, ["classify", files["identity"]])
        report = strict_loads(out)
        assert code == 0
        assert all(
            report[key] for key in ("cptp", "mio", "dio", "io_rep", "sio_rep", "pio_rep")
        )

    def test_hadamard(self, files, capsys):
        code, out = run_cli(capsys, ["classify", files["hadamard"]])
        report = strict_loads(out)
        assert code == 0
        assert report["cptp"] is True and report["mio"] is False

    def test_missing_file_is_parse_error(self, files, capsys):
        code, _ = run_cli(capsys, ["classify", str(files["dir"] / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize("text", BAD_CHANNELS.values(), ids=BAD_CHANNELS)
    def test_invalid_channel_is_object_error(self, files, capsys, text):
        bad = files["dir"] / "bad.json"
        bad.write_text(text)
        assert_object_error(capsys, ["classify", str(bad)])

    def test_nesting_past_the_recursion_limit_is_parse_error(self, files, capsys):
        path = files["dir"] / "deep.json"
        path.write_text("[" * 200_000)
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse failure: maximum recursion depth")

    def test_bad_usage(self, files, capsys):
        assert main(["classify"]) == 4

    def test_file_that_is_not_utf8_is_parse_error(self, files, capsys):
        path = files["dir"] / "latin1.json"
        path.write_bytes(b'{"din": "\xff"}')
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse failure: 'utf-8' codec can't decode")


class TestMonotones:
    @pytest.mark.parametrize("text", BAD_STATES.values(), ids=BAD_STATES)
    def test_invalid_state_is_object_error(self, files, capsys, text):
        bad = files["dir"] / "bad.json"
        bad.write_text(text)
        assert_object_error(capsys, ["monotones", str(bad)])

    def test_plus_panel(self, files, capsys):
        code, out = run_cli(capsys, ["monotones", files["plus"]])
        assert code == 0
        values = {entry["name"]: entry["value"] for entry in strict_loads(out)}
        for key in ("c_rel", "c_l1", "c_r", "c_delta_r", "r_d"):
            assert values[key] == pytest.approx(1.0, abs=1e-9)

    def test_incoherent_panel_is_zero(self, files, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(DensityMatrix(np.diag([0.3, 0.7])).to_json_dict()))
        code, out = run_cli(capsys, ["monotones", str(path)])
        assert code == 0
        for entry in strict_loads(out):
            assert abs(entry["value"]) < 1e-9

    def test_qubit_closed_forms(self, files, capsys):
        code, out = run_cli(
            capsys, ["monotones", files["mixed_qubit"], "--measures", "c_r,c_delta_r"]
        )
        assert code == 0
        values = {e["name"]: e["value"] for e in strict_loads(out)}
        assert values["c_r"] == pytest.approx(0.4, abs=1e-12)
        assert values["c_delta_r"] == pytest.approx(0.2 / math.sqrt(0.21), abs=1e-9)

    def test_csv_format(self, files, capsys):
        code, out = run_cli(
            capsys, ["monotones", files["plus"], "--measures", "c_rel", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "measure,value,method"
        assert lines[1].startswith("c_rel,1,")

    @pytest.mark.parametrize("measure", ["c_alpha", "c_delta_alpha", "c_q_alpha"])
    def test_measure_without_its_parameter_is_usage_error(self, files, capsys, measure):
        assert main(["monotones", files["plus"], "--measures", measure]) == 4
        assert f"measure {measure} needs a parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["monotones", "plus", "--measures", "c_alpha:abc"], "needs alpha in [0, 2], got 'abc'"),
            (["monotones", "plus", "--measures", "c_alpha:3"], "needs alpha in [0, 2], got '3'"),
            (["monotones", "plus", "--measures", "c_delta_alpha:2:middle"], "got 'middle'"),
            (["monotones", "plus", "--measures", "c_q_alpha:0.2"], "needs alpha in [0.5, inf]"),
            (["harness", "--suite", "roundtrips", "--samples", "0"], "at least 1, got '0'"),
            (["harness", "--suite", "roundtrips", "--samples", "abc"], "at least 1, got 'abc'"),
            (["classify", "example", "--tol", "nan"], "at least 0, got nan"),
            (["classify", "example", "--tol", "-1"], "at least 0, got -1.0"),
            (["classify", "example", "--tol", "inf"], "at least 0, got inf"),
            (["classify", "example", "--tol", "abc"], "invalid float value: 'abc'"),
            (["reproduce", "--artifact", "qubit-formulas", "--seed", "-5"], "--seed must be at least 0"),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, files, capsys, argv, message):
        assert main([files.get(a, a) for a in argv]) == 4
        assert message in capsys.readouterr().err

    def test_invalid_state_with_a_valid_parameter_is_object_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        mat = [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "mat": mat}))
        assert main(["monotones", str(path), "--measures", "c_alpha:2"]) == 3
        assert "invalid object: trace must be 1" in capsys.readouterr().err

    def test_pure_state_is_converted_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "pure16.json"
        path.write_text(json.dumps(random_pure(16, 3).to_json_dict()))
        built = []
        init = DensityMatrix.__init__

        def counted(self, mat):
            built.append(mat)
            init(self, mat)

        monkeypatch.setattr(DensityMatrix, "__init__", counted)
        # the default panel has a pure form for every measure; c_delta_alpha
        # has none and builds the density matrix once
        code, out = run_cli(capsys, ["monotones", str(path)])
        assert code == 0
        assert len(strict_loads(out)) == 8
        assert len(built) == 0
        measures = "c_delta_alpha:2,c_rel,c_delta_alpha:0.5:left"
        code, out = run_cli(capsys, ["monotones", str(path), "--measures", measures])
        assert code == 0
        assert len(strict_loads(out)) == 3
        assert len(built) == 1

    def test_default_panel_runs_c_delta_r_once(self, files, capsys, monkeypatch):
        calls = []
        c_delta_r = mo.c_delta_r

        def counted(rho):
            calls.append(rho)
            return c_delta_r(rho)

        monkeypatch.setattr(mo, "c_delta_r", counted)
        code, out = run_cli(capsys, ["monotones", files["mixed_qubit"]])
        assert code == 0
        assert [e["name"] for e in strict_loads(out)].count("r_d") == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("state", [random_density(3, 4), random_pure(16, 5)])
    def test_r_d_is_the_library_report(self, state):
        if isinstance(state, PureStateVector):
            direct = mo.log_robustness_of(mo._pure_reports(state)["c_delta_r"]())
            assert (direct.value, direct.method) == (4.0, "closed_form")
        else:
            direct = mo.log_robustness_dephasing(state)
        reported = cli._Panel(state).report("r_d")
        assert (reported.name, reported.value, reported.method, reported.bound) == (
            direct.name,
            direct.value,
            direct.method,
            direct.bound,
        )
        assert np.array_equal(reported.witness, direct.witness)

    # sha256 of the default panel's stdout over random_pure(d, s), d = 2, 3,
    # 16, 64 and s = 0-4 in that order, as the pure forms print it
    PURE_PANEL_SHA256 = {
        "json": "f728ce6de3d26650ecca30eb26db152653d2591ea8f467e31e22e18d23b64dc2",
        "csv": "2ec263add71acc2f432f96d4a419994a16637cb23a8aae1f9bf5f0869e90d079",
    }

    @pytest.mark.parametrize("fmt", list(PURE_PANEL_SHA256))
    def test_pure_panel_bytes_are_pinned(self, capsys, tmp_path, fmt):
        digest = hashlib.sha256()
        for d in (2, 3, 16, 64):
            for seed in range(5):
                path = tmp_path / f"pure{d}-{seed}.json"
                path.write_text(json.dumps(random_pure(d, seed).to_json_dict()))
                code, out = run_cli(capsys, ["monotones", str(path), "--format", fmt])
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == self.PURE_PANEL_SHA256[fmt]

    def test_repeated_measure_runs_once(self, files, capsys, monkeypatch):
        calls = []
        c_r = mo.c_r

        def counted(rho):
            calls.append(rho)
            return c_r(rho)

        monkeypatch.setattr(mo, "c_r", counted)
        code, out = run_cli(capsys, ["monotones", files["mixed_qubit"], "--measures", "c_r,c_r"])
        assert code == 0
        first, second = strict_loads(out)
        assert first == second and first["name"] == "c_r"
        assert len(calls) == 1

    def test_unwritable_out_is_usage_error(self, files, capsys):
        missing = files["dir"] / "missing" / "x.json"
        assert main(["reproduce", "--artifact", "fig1", "--out", str(missing)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: cannot write {missing}: No such file or directory\n"

    def test_out_through_a_symlink_writes_its_target(self, files, capsys):
        target, link = files["dir"] / "real.json", files["dir"] / "link.json"
        link.symlink_to(target)
        assert main(["reproduce", "--artifact", "fig1", "--out", str(link)]) == 0
        assert link.is_symlink() and strict_loads(target.read_text())

    def test_out_to_a_fifo_keeps_the_fifo(self, files, capsys):
        # --out is opened and written in place, never replaced by a new file
        fifo = files["dir"] / "pipe"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["reproduce", "--artifact", "fig1", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert strict_loads(read[0])

    def test_non_finite_values_are_strings(self, capsys, tmp_path):
        # C_Delta_2 from the left is infinite on a pure state; strict JSON has
        # no Infinity, so it prints the string the CSV form prints
        state = tmp_path / "pure.json"
        state.write_text(json.dumps(PureStateVector([0.6, 0.8]).to_json_dict()))
        argv = ["monotones", str(state), "--measures", "c_delta_alpha:2:left"]
        code, out = run_cli(capsys, argv)
        assert code == 0 and strict_loads(out)[0]["value"] == "inf"
        code, out = run_cli(capsys, [*argv, "--format", "csv"])
        assert code == 0 and out.splitlines()[1].endswith(",inf,closed_form")

    def test_zero_values_print_as_positive_zero(self, capsys, tmp_path):
        state = tmp_path / "e0.json"
        state.write_text(json.dumps({"dim": 3, "amps": [[1, 0], [0, 0], [0, 0]]}))
        measures = "c_q_alpha:0.5,c_q_alpha:1,c_alpha:0.5,c_delta_alpha:0.5"
        argv = ["monotones", str(state), "--measures", measures]
        code, out = run_cli(capsys, argv)
        assert code == 0 and [e["value"] for e in strict_loads(out)] == [0.0] * 4
        assert "-0" not in out
        code, out = run_cli(capsys, [*argv, "--format", "csv"])
        assert code == 0 and "-0" not in out
        assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == ["0"] * 4

    def test_csv_quotes_a_measure_name_that_holds_a_comma(self, capsys, tmp_path):
        state = tmp_path / "pure.json"
        state.write_text(json.dumps(PureStateVector([0.6, 0.8]).to_json_dict()))
        argv = ["monotones", str(state), "--measures", "c_delta_alpha:2:left,c_l1"]
        code, out = run_cli(capsys, [*argv, "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == '"c_delta_alpha[2,left]",inf,closed_form'
        assert list(csv.reader(io.StringIO(out))) == [
            ["measure", "value", "method"],
            ["c_delta_alpha[2,left]", "inf", "closed_form"],
            ["c_l1", "0.96", "closed_form"],
        ]

    def test_one_rule_for_non_finite_floats(self):
        payload = {"a": [math.inf, -math.inf, math.nan, 1.5], "b": (2, "x", None, True)}
        assert cli._finite_json(payload) == {
            "a": ["inf", "-inf", "nan", 1.5],
            "b": [2, "x", None, True],
        }
        assert [cli._format_float(v) for v in (math.inf, -math.inf, math.nan)] == [
            "inf",
            "-inf",
            "nan",
        ]

    def test_matches_direct_library_call(self, files, capsys):
        code, out = run_cli(capsys, ["monotones", files["mixed_qubit"]])
        assert code == 0
        reported = {e["name"]: e["value"] for e in strict_loads(out)}
        rho = DensityMatrix([[0.7, 0.2], [0.2, 0.3]])
        assert reported["c_rel"] == mo.c_rel(rho).value
        assert reported["c_r"] == mo.c_r(rho).value


class TestTransform:
    def test_mio_pure_with_witness_file(self, files, capsys, tmp_path):
        witness_path = tmp_path / "witness.json"
        code, out = run_cli(
            capsys,
            [
                "transform",
                files["plus"],
                files["psi"],
                "--class",
                "mio-pure",
                "--witness-out",
                str(witness_path),
            ],
        )
        assert code == 0
        decision = strict_loads(out)
        assert decision["verdict"] is True
        stored = strict_loads(witness_path.read_text())
        witness = ch.KrausChannel.from_json_dict(stored)
        assert ch.is_mio(witness)

    @pytest.mark.parametrize(
        "klass, source, target",
        [
            # squared amplitudes summing to 1 + 8e-11, inside the state tolerance
            ("sio", np.sqrt([0.5, 0.3, 0.2]) * (1 + 4e-11), np.sqrt([0.8, 0.2, 0.0])),
            ("mio-pure", np.full(2, 0.7071067812148317), np.sqrt([0.9, 0.05, 0.05])),
        ],
    )
    def test_nearly_normalized_states_get_the_normalized_verdict(
        self, capsys, tmp_path, klass, source, target
    ):
        paths = []
        for name, amps in (("source", source), ("target", target)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(PureStateVector(amps).to_json_dict()))
        witness_path = tmp_path / "witness.json"
        argv = ["transform", *map(str, paths), "--class", klass, "--witness-out", str(witness_path)]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert strict_loads(out)["verdict"] is True
        witness = ch.KrausChannel.from_json_dict(strict_loads(witness_path.read_text()))
        tr._verify_witness(
            witness, PureStateVector(source).to_density(), PureStateVector(target).to_density()
        )

    def test_qubit_violation_record(self, files, capsys):
        code, out = run_cli(
            capsys,
            ["transform", files["weak_qubit"], files["strong_qubit"], "--class", "qubit"],
        )
        assert code == 0
        decision = strict_loads(out)
        assert decision["verdict"] is False
        assert decision["violation"]["monotone"] == "c_r"

    def test_identity_transform_all_classes(self, files, capsys):
        for klass in ("sio", "qubit", "pio"):
            code, out = run_cli(
                capsys, ["transform", files["plus"], files["plus"], "--class", klass]
            )
            assert code == 0
            assert strict_loads(out)["verdict"] is True

    def test_sio_witness_at_d16(self, capsys, tmp_path):
        rng = np.random.default_rng(16)
        target = np.sort(rng.dirichlet(np.ones(16)))[::-1]
        source = sum(w * target[rng.permutation(16)] for w in rng.dirichlet(np.ones(5)))
        phases = np.exp(2j * np.pi * rng.random((2, 16)))
        paths = []
        for name, probs, phase in (("src", source, phases[0]), ("dst", target, phases[1])):
            path = tmp_path / f"{name}.json"
            state = PureStateVector(np.sqrt(probs / probs.sum()) * phase)
            path.write_text(json.dumps(state.to_json_dict()))
            paths.append(str(path))
        outputs = []
        for run in range(2):
            witness_path = tmp_path / f"witness{run}.json"
            argv = ["transform", *paths, "--class", "sio", "--witness-out", str(witness_path)]
            code, out = run_cli(capsys, argv)
            assert code == 0
            assert strict_loads(out)["verdict"] is True
            stored = strict_loads(witness_path.read_text())
            assert len(stored["kraus"]) <= 16
            assert ch.is_sio_rep(ch.KrausChannel.from_json_dict(stored))
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_unwritable_witness_out_is_usage_error(self, files, capsys):
        missing = files["dir"] / "missing" / "witness.json"
        argv = ["transform", files["plus"], files["psi"], "--class", "mio-pure"]
        assert main([*argv, "--witness-out", str(missing)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: cannot write {missing}: No such file or directory\n"

    def test_unwritable_out_leaves_no_witness(self, files, capsys):
        witness = files["dir"] / "witness.json"
        missing = files["dir"] / "missing" / "o.json"
        argv = ["transform", files["plus"], files["psi"], "--class", "mio-pure"]
        assert main([*argv, "--witness-out", str(witness), "--out", str(missing)]) == 4
        assert capsys.readouterr().out == ""
        assert not witness.exists()

    @pytest.mark.parametrize("blocked", ["missing", "directory"])
    def test_unwritable_witness_leaves_no_out(self, files, capsys, blocked):
        # --out is opened first; a witness that cannot be opened must leave
        # no --out behind, keep an existing one as it was, and leave no
        # other file
        (files["dir"] / "taken").mkdir()
        witness = files["dir"] / ("missing/W.json" if blocked == "missing" else "taken")
        reason = "No such file or directory" if blocked == "missing" else "Is a directory"
        argv = ["transform", files["plus"], files["psi"], "--class", "mio-pure"]
        out = files["dir"] / "o.json"
        for existing in (None, "old"):
            if existing is not None:
                out.write_text(existing)
            before = sorted(files["dir"].iterdir())
            assert main([*argv, "--out", str(out), "--witness-out", str(witness)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"usage error: cannot write {witness}: {reason}\n"
            assert sorted(files["dir"].iterdir()) == before
            assert (out.read_text() if out.exists() else None) == existing

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_witness_write_removes_the_new_out(self, files, capsys):
        # the witness opens but its write fails: the --out this call created goes
        out = files["dir"] / "o.json"
        argv = ["transform", files["plus"], files["psi"], "--class", "mio-pure"]
        assert main([*argv, "--out", str(out), "--witness-out", "/dev/full"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "usage error: cannot write /dev/full: No space left on device\n"
        assert not out.exists()

    @pytest.mark.parametrize("existing", [None, "old"])
    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_out_and_witness_out_naming_one_file_is_usage_error(
        self, files, capsys, existing, spelling
    ):
        # the witness would replace the decision: refused before anything is opened
        out = files["dir"] / "both.json"
        if existing is not None:
            out.write_text(existing)
        other = {
            "same": out,
            "dot": files["dir"] / "." / "both.json",
            "symlink": files["dir"] / "link.json",
        }[spelling]
        if spelling == "symlink":
            other.symlink_to(out)
        before = sorted(files["dir"].iterdir())
        argv = ["transform", files["plus"], files["plus"], "--class", "sio"]
        assert main([*argv, "--out", str(out), "--witness-out", str(other)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {out} and {other} name the same file\n"
        assert sorted(files["dir"].iterdir()) == before
        assert (out.read_text() if out.exists() else None) == existing

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_a_device_may_take_out_and_witness_out(self, files, capsys):
        argv = ["transform", files["plus"], files["plus"], "--class", "sio"]
        assert main([*argv, "--out", "/dev/null", "--witness-out", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_class_input_mismatch(self, files, capsys):
        code, _ = run_cli(
            capsys,
            ["transform", files["mixed_qubit"], files["plus"], "--class", "sio"],
        )
        assert code == 4

    def test_mio_pure_target_with_zero_amplitudes(self, files, capsys, tmp_path):
        # |+> reaches (1, 1, 0, 0)/sqrt2 by the isometry |0><0| + |1><1|
        z4 = PureStateVector(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0))
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(z4.to_json_dict()))
        code, out = run_cli(capsys, ["transform", files["plus"], str(path), "--class", "mio-pure"])
        assert code == 0
        assert strict_loads(out)["verdict"] is True

    @pytest.mark.parametrize("offset, verdict", [(8.9e-13, True), (1.1e-12, False)])
    def test_mio_pure_at_the_slack(self, files, capsys, tmp_path, offset, verdict):
        # sum sqrt(q) - sqrt(2) = offset, on either side of the 1e-12 slack
        slope = 1.0 / (2.0 * math.sqrt(1.0 / 18.0)) - 1.0 / (2.0 * math.sqrt(8.0 / 9.0))
        q = np.array([8 / 9 - offset / slope, 1 / 18 + offset / slope, 1 / 18])
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(PureStateVector(np.sqrt(q)).to_json_dict()))
        code, out = run_cli(capsys, ["transform", files["plus"], str(path), "--class", "mio-pure"])
        assert code == 0
        decision = strict_loads(out)
        assert decision["verdict"] is verdict
        assert ("witness" in decision) is verdict
        assert verdict or decision["violation"]["monotone"] == "sqrt_sum"

    @pytest.mark.parametrize(
        "argv",
        [["transform", "a.json", "b.json", "--class", "io"], ["reproduce", "--artifact", "fig2"]],
    )
    def test_unknown_choice_is_usage_error(self, capsys, argv):
        assert main(argv) == 4
        assert "invalid choice" in capsys.readouterr().err


class TestReproduce:
    def test_example_artifact(self, files, capsys):
        code, out = run_cli(capsys, ["reproduce", "--artifact", "example"])
        assert code == 0
        log = strict_loads(out)
        assert log["max_residual"] <= 1e-10
        assert log["mio"] is True and log["io_rep"] is False and log["dio"] is False

    def test_fig1_crossing(self, files, capsys):
        code, out = run_cli(capsys, ["reproduce", "--artifact", "fig1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,s_alpha_uniform,s_alpha_target"
        rows = [line.split(",") for line in lines[1:]]
        at_half = [r for r in rows if abs(float(r[0]) - 0.5) < 1e-12][0]
        assert float(at_half[1]) == pytest.approx(1.0, abs=1e-9)
        assert float(at_half[2]) == pytest.approx(1.0, abs=1e-9)
        assert len(rows) == 201

    def test_cp_threshold(self, files, capsys):
        code, out = run_cli(capsys, ["reproduce", "--artifact", "cp-threshold"])
        assert code == 0
        for row in strict_loads(out):
            assert row["threshold"] == pytest.approx(row["expected"], abs=1e-6)
        assert [row["d"] for row in strict_loads(out)] == list(range(2, 9))

    def test_qubit_formulas(self, files, capsys):
        code, out = run_cli(capsys, ["reproduce", "--artifact", "qubit-formulas", "--seed", "3"])
        assert code == 0
        for row in strict_loads(out):
            assert row["c_r_solver"] == pytest.approx(row["c_r_closed"], abs=1e-8)
            assert row["c_delta_r_eigen"] == pytest.approx(row["c_delta_r_closed"], abs=1e-8)

    @pytest.mark.parametrize("artifact", ["fig1", "cp-threshold", "qubit-formulas"])
    def test_json_and_csv_carry_the_same_table(self, capsys, artifact):
        _, as_json = run_cli(capsys, ["reproduce", "--artifact", artifact])
        _, as_csv = run_cli(capsys, ["reproduce", "--artifact", artifact, "--format", "csv"])
        header, *lines = as_csv.strip().splitlines()
        header = header.split(",")
        rows = strict_loads(as_json)
        assert len(rows) == len(lines)
        for row, line in zip(rows, lines):
            assert sorted(row) == sorted(header)
            for key, cell in zip(header, line.split(",")):
                assert float(cell) == pytest.approx(row[key], rel=1e-8, abs=1e-12)

    def test_example_has_no_csv_form(self, capsys):
        assert main(["reproduce", "--artifact", "example", "--format", "csv"]) == 4
        assert "no CSV form" in capsys.readouterr().err

    def test_deterministic_bytes(self, files, capsys):
        _, first = run_cli(capsys, ["reproduce", "--artifact", "qubit-formulas", "--seed", "5"])
        _, second = run_cli(capsys, ["reproduce", "--artifact", "qubit-formulas", "--seed", "5"])
        assert first == second


class TestCsv:
    """CSV fields are quoted as RFC 4180 asks, so a field without a comma, a
    quote or a newline, as in every table below, keeps the bytes of a plain
    comma join."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["monotones", "plus", "--measures", "c_rel"],
            ["monotones", "mixed_qubit", "--measures", "all"],
            ["reproduce", "--artifact", "fig1"],
            ["reproduce", "--artifact", "cp-threshold"],
            ["reproduce", "--artifact", "qubit-formulas"],
        ],
        ids=lambda argv: "-".join(argv[:2] if argv[0] == "monotones" else argv[::2]),
    )
    def test_unquoted_tables_keep_their_bytes(self, files, capsys, argv):
        code, out = run_cli(capsys, [files.get(arg, arg) for arg in argv] + ["--format", "csv"])
        assert code == 0 and '"' not in out
        assert "".join(",".join(row) + "\n" for row in csv.reader(io.StringIO(out))) == out


class TestHarnessCommand:
    def test_small_suites_pass(self, files, capsys):
        for suite in ("inclusions", "roundtrips"):
            code, out = run_cli(
                capsys, ["harness", "--suite", suite, "--samples", "10", "--seed", "3"]
            )
            assert code == 0
            assert strict_loads(out)["passed"] is True

    def test_injected_corruption_fails(self, files, capsys, monkeypatch):
        monkeypatch.setenv("COHERENCE_KIT_HARNESS_INJECT", "2")
        code, out = run_cli(
            capsys, ["harness", "--suite", "inclusions", "--samples", "5", "--seed", "3"]
        )
        assert code == 1
        summary = strict_loads(out)
        assert summary["passed"] is False
        assert all(f["index"] == 2 for f in summary["failures"])

    # records of sample 0 at seed 2 with the injected rotation, in order: a
    # family's failures follow its class chain, smallest class first, and its
    # monotones go MIO, then DIO, then IO (the alpha = 0 members and the qubit
    # family do not rise on this sample)
    MIO_NAMES = [f"c_alpha[{a:g}]" for a in (0.3, 0.5, 0.7, 1, 1.3, 1.7, 2)] + [
        "c_r",
        "log1p_c_r",
    ]
    DIO_NAMES = [f"c_delta_alpha[{a:g}]" for a in (0.3, 0.5, 0.7, 1, 1.3, 1.7, 2)] + [
        "trace_norm_coherence",
        "c_delta_r",
    ]
    INJECTED = {
        "monotonicity": [f"g_covariant/{n}" for n in MIO_NAMES + DIO_NAMES]
        + [f"sio/{n}" for n in MIO_NAMES + DIO_NAMES + ["c_l1"]],
        "inclusions": [
            f"{family}/{klass}"
            for family, classes in (
                ("pio", "pio_rep sio_rep sio_special_rep io_rep dio mio"),
                ("sio", "sio_rep sio_special_rep io_rep dio mio"),
                ("sio_special", "sio_special_rep io_rep mio"),
                ("io", "io_rep mio"),
                ("g_covariant", "dio mio"),
                ("incoherent_unitary", "sio_rep sio_special_rep io_rep dio mio"),
            )
            for klass in classes.split()
        ],
    }

    @pytest.mark.parametrize("suite", sorted(INJECTED))
    def test_injected_failure_records(self, capsys, monkeypatch, suite):
        monkeypatch.setenv("COHERENCE_KIT_HARNESS_INJECT", "0")
        argv = ["harness", "--suite", suite, "--samples", "1", "--seed", "2"]
        code, out = run_cli(capsys, argv)
        assert code == 1
        checks = [f["check"] for f in strict_loads(out)["failures"]]
        assert checks == [f"{suite}/{name}" for name in self.INJECTED[suite]]

    def test_inclusions_flag_the_injected_rotation_at_every_seed(self, capsys, monkeypatch):
        # the monotonicity suite misses the rotation where no monotone rises on
        # the sampled state (seed 4); the inclusions suite flags it every time
        monkeypatch.setenv("COHERENCE_KIT_HARNESS_INJECT", "0")
        for seed in range(40):
            argv = ["harness", "--suite", "inclusions", "--samples", "1", "--seed", str(seed)]
            code, out = run_cli(capsys, argv)
            failures = strict_loads(out)["failures"]
            assert code == 1 and failures, seed
            assert {f["index"] for f in failures} == {0}, seed

    # sha256 of stdout at seeds 0-4, taken before the monotonicity suite
    # validated a run's states as one stack per dimension: (exit code, digest).
    # The injected run's seeds 0, 1, 3 and 4 were re-taken when C_R's default
    # route moved to the rank-one dual: their sio/c_r and sio/log1p_c_r
    # failure magnitudes moved in the tenth significant digit
    STDOUT_SHA256 = {
        ("monotonicity", 200, None): (
            (0, "090ca5f13d335f320619443da457d6fd9ab74bce3b9485976b9a2fc5ca003772"),
            (0, "491c3aad731acea0f4477b84c92401f95707b34e34e69ad35c834d265c08c640"),
            (0, "c48ea39f530bdc78f0e8c6952c976efe9061b04069afa14ce2275caee2aa13ad"),
            (0, "dece6df41f19a54c8233b4fa2cf20f4cb78730841220197e4a15aec8a63dc1ca"),
            (0, "f57f5de409dce98d61a03d95a926d41cdd78f93614c9150d19bf18b68f761af0"),
        ),
        ("monotonicity", 40, "3"): (
            (1, "bc1553dc0b131d1b193917ec7d7fea7c044dca6e0c92bef7ebcb20ceb9304679"),
            (1, "8fc22ba6e2266cdb3cd6d247204acd8a626853b6cb12b179d21ce38c7e5243dc"),
            (1, "d53ee5359079c1ba6bbbf133b916847d431c74e36ae776a1d6bf7f58b8d352a6"),
            (1, "e69a8a6316a9e260d23ccfd6464e840a94f6b7e8311061aee1bd8bd5bb780d06"),
            (1, "f8947ec1336936a1466513df52889f41990b0281e6568561593cd68f672e78ce"),
        ),
        ("inclusions", 40, None): (
            (0, "ed806c8bc0df348eb4d09aac447a22ff266cb36e9a56124a7c2225341db07553"),
            (0, "8a3439405163e30cfe13a4ca748aaeeb8a11c03daa757e5477da090a4264ea7c"),
            (0, "8841473141af5e9f364386805125a9f74edb039b86b7d4f20036045d2fc5bb1e"),
            (0, "8099a553789816aa4466557d6e590755928d1226a176b9d2bb15458d20e966e4"),
            (0, "a9cbaf56b865bf43e1b5c3f3ace0f442e1cf6d9a4244e86d5d9b62f87df2513f"),
        ),
        ("roundtrips", 40, None): (
            (0, "2adc6f088d536d1a8fb462aebaeb44ccc86c4fe6bea2d1dec23a896b66d3cf86"),
            (0, "4259c582eecc3144210607ff12e04084b99f66a158eae3267cb710aaac325c28"),
            (0, "a3ec4d1de4b2a6abef8680df2380d7fd3761a14e181b7a925be1f4ee406417d1"),
            (0, "7a9cff5296920f6a7cc8b50feca2ed28aa34c5a1f931f2167cd037f775bb3191"),
            (0, "665ca6df657570dca9a60f69d5a894fef067b3fcd18d7554724497fa63db79e2"),
        ),
    }

    @pytest.mark.parametrize("suite, samples, inject", list(STDOUT_SHA256))
    def test_stdout_bytes_are_pinned(self, capsys, monkeypatch, suite, samples, inject):
        if inject is None:
            monkeypatch.delenv("COHERENCE_KIT_HARNESS_INJECT", raising=False)
        else:
            monkeypatch.setenv("COHERENCE_KIT_HARNESS_INJECT", inject)
        for seed, pinned in enumerate(self.STDOUT_SHA256[suite, samples, inject]):
            argv = ["harness", "--suite", suite, "--samples", str(samples), "--seed", str(seed)]
            code, out = run_cli(capsys, argv)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == pinned, seed

    def test_repeat_runs_are_identical(self):
        first = run_suite("roundtrips", 8, seed=9)
        assert run_suite("roundtrips", 8, seed=9) == first


# each subcommand's required arguments; "example" and "plus" name fixture files
REQUIRED = {
    "classify": ["example"],
    "monotones": ["plus"],
    "transform": ["plus", "plus", "--class", "sio"],
    "reproduce": ["--artifact", "cp-threshold"],
    "harness": ["--suite", "roundtrips", "--samples", "1"],
}


class TestOptions:
    @pytest.mark.parametrize(
        "command, option",
        [
            ("classify", "--seed"),
            ("classify", "--format"),
            ("monotones", "--seed"),
            ("monotones", "--tol"),
            ("transform", "--seed"),
            ("transform", "--tol"),
            ("transform", "--format"),
            ("reproduce", "--tol"),
            ("harness", "--tol"),
            ("harness", "--format"),
        ],
    )
    def test_unread_option_is_usage_error(self, files, capsys, command, option):
        value = {"--seed": "1", "--tol": "1e-3", "--format": "json"}[option]
        argv = [command, *(files.get(a, a) for a in REQUIRED[command]), option, value]
        assert main(argv) == 4
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err

    def test_every_option_is_read_by_its_handler(self):
        # --out and --format are read by _emit, which every handler calls
        parser = cli._build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        unread = []
        for name, sub in subparsers.choices.items():
            source = inspect.getsource(sub.get_default("run"))
            for action in sub._actions:
                if isinstance(action, argparse._HelpAction) or action.dest in ("out", "format"):
                    continue
                if not re.search(rf"\bargs\.{action.dest}\b", source):
                    unread.append((name, action.dest))
        assert unread == []


class TestHelp:
    def test_help_does_not_print_the_module_docstring(self, capsys, monkeypatch):
        def help_text():
            cli._build_parser.cache_clear()
            with pytest.raises(SystemExit):
                main(["--help"])
            return capsys.readouterr().out

        try:
            before = help_text()
            monkeypatch.setattr(cli, "__doc__", "Edited notes.\n\nMore notes.")
            assert help_text() == before
        finally:
            cli._build_parser.cache_clear()
        assert before.startswith("usage: coherence-kit")


class TestParserReuse:
    def test_one_parser_per_process(self, files, capsys, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        for _ in range(3):
            assert main(["monotones", files["plus"], "--measures", "c_l1"]) == 0
        # subcommand parsers are _Parser instances too; count the top-level ones
        assert built.count("coherence-kit") <= 1

    def test_failed_calls_leave_no_state(self, files, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"dim": 2, "mat": [[[1.0, 0.0]]]}))
        valid = ["monotones", files["mixed_qubit"], "--measures", "all", "--format", "csv"]
        first = run_cli(capsys, valid)
        for argv, code in (
            (["monotones", files["mixed_qubit"], "--tol", "1"], 4),
            (["monotones", str(broken)], 2),
            (["monotones", str(invalid)], 3),
        ):
            assert main(argv) == code
            assert capsys.readouterr().out == ""
        second = run_cli(capsys, valid)
        cli._build_parser.cache_clear()
        fresh = run_cli(capsys, valid)
        assert first[0] == 0
        assert first == second == fresh
