"""Command-line interface: subcommands, formats, exit codes, spec files."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import qhist
from qhist import cli, serialize, twostate
from qhist.bell import MAX_CHAIN_BLOCKS
from qhist.cli import (
    EXIT_IMPOSSIBLE,
    EXIT_INPUT,
    EXIT_NONCONVERGED,
    EXIT_OK,
    main,
)
from qhist.scenarios import MAX_GHZ_SLOTS
from qhist.twostate import MAX_MEASURED_SLOTS

from conftest import Experiment, open_certificate
from twostate_oracle import abl_probability

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScenarioCommand:
    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "scenario", "temporal-ghz")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["name"] == "temporal-ghz"
        assert doc["artifacts"]["reduction_purity_t1"] == pytest.approx(0.5)

    def test_unknown_scenario_lists_names(self, capsys):
        code, out, err = run_cli(capsys, "scenario", "warp-drive")
        assert code == EXIT_INPUT
        assert "mach-zehnder" in err

    def test_scenario_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "scenario", "temporal-ghz", "--slots", "4", "--alpha", "0.6"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["reduction_purity_t3"] == pytest.approx(
            0.36**2 + 0.64**2, abs=1e-9
        )

    def test_invalid_parameter(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "temporal-ghz", "--slots", "40")
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_slot_bound(self, capsys):
        code, out, err = run_cli(
            capsys, "scenario", "temporal-ghz", "--slots", str(MAX_GHZ_SLOTS + 1)
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "scenario", "example1", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["name"] == "example1"

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_out_path(self, capsys, tmp_path, where):
        code, out, err = run_cli(capsys, "scenario", "example1", "--out", str(tmp_path / where))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: cannot write ") and "Traceback" not in err

    def test_parameter_for_wrong_scenario(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "pauli-cycle", "--alpha", "0.5")
        assert code == EXIT_INPUT
        assert err == "error: scenario pauli-cycle does not take --alpha\n"

    @pytest.mark.parametrize("argv, flag", [
        (["example1", "--alpha", "0.3"], "--alpha"),
        (["pauli-cycle", "--slots", "3"], "--slots"),
        (["mach-zehnder", "--beta", "0.3"], "--beta"),
        (["two-time-hab", "--slots", "3"], "--slots"),
        (["temporal-ghz", "--psi", "+"], "--psi"),
    ])
    def test_flag_the_scenario_does_not_take_is_named(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "scenario", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: scenario {argv[0]} does not take {flag}\n"

    @pytest.mark.parametrize("argv, flag, value", [
        (["temporal-ghz", "--alpha", "nan"], "--alpha", "nan"),
        (["temporal-ghz", "--alpha", "0.6", "--beta", "inf"], "--beta", "inf"),
        (["mach-zehnder", "--alpha=-inf"], "--alpha", "-inf"),
    ])
    def test_non_finite_amplitude_names_its_flag(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, "scenario", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: {flag} must be a finite number, got {value}\n"

    @pytest.mark.parametrize("argv", [
        ["temporal-ghz", "--alpha", "1e200"],
        ["temporal-ghz", "--alpha", "0.6", "--beta", "1e200"],
        ["temporal-ghz", "--alpha=-1e200"],
    ])
    def test_amplitude_above_one_is_an_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "scenario", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: |alpha|^2 + |beta|^2 must equal 1\n"

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "scenario", "pauli-cycle")
        _, out2, _ = run_cli(capsys, "scenario", "pauli-cycle")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "two-time-hab", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        table = dict(rows[1:])
        assert table["artifacts.postselection_probability"] == "0.25"

    def test_pretty_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "scenario", "mach-zehnder", "--format", "pretty"
        )
        assert code == EXIT_OK
        assert "weight_bright_port" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "scenario", "example1", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["name"] == "example1"


class TestLgiCommand:
    def test_preset_value(self, capsys):
        code, out, _ = run_cli(capsys, "lgi")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["value"] == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12
        )
        assert doc["artifacts"]["classical_bound"] == 2.0

    def test_spec_file(self, capsys, tmp_path):
        p = tmp_path / "lgi.json"
        p.write_text(
            json.dumps(
                {
                    "initial": "mixed",
                    "first": ["Z", "X"],
                    "second": [
                        {"theta": math.pi / 4, "phi": 0.0},
                        {"theta": math.pi / 4, "phi": math.pi},
                    ],
                }
            )
        )
        code, out, _ = run_cli(capsys, "lgi", "--spec", str(p))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["value"] == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9
        )

    def test_malformed_spec(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "x": ,\n}')
        code, _, err = run_cli(capsys, "lgi", "--spec", str(p))
        assert code == EXIT_INPUT
        assert "broken.json:2:" in err

    def test_non_unitary_rejected(self, capsys, tmp_path):
        p = tmp_path / "lgi.json"
        half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        p.write_text(json.dumps({"first": ["Z", "X"], "second": ["Z", "X"], "unitary": half}))
        code, out, err = run_cli(capsys, "lgi", "--spec", str(p))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "not unitary" in err


class TestChainedCommand:
    def test_scaling(self, capsys):
        for n in (1, 3):
            code, out, _ = run_cli(capsys, "chained", "-n", str(n))
            assert code == EXIT_OK
            doc = json.loads(out)
            assert doc["artifacts"]["total"] == pytest.approx(
                2.0 * math.sqrt(2.0) * n, abs=1e-9
            )
            assert doc["artifacts"]["classical_bound"] == 2.0 * n

    def write_spec(self, tmp_path, n):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"first": ["Z", "X"], "second": ["Z", "X"], "n": n}))
        return str(p)

    def test_spec_n(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "chained", "--spec", self.write_spec(tmp_path, 2))
        assert code == EXIT_OK
        assert len(json.loads(out)["artifacts"]["block_reports"]) == 2

    @pytest.mark.parametrize("n", [1.5, 2.0, "2", True, None, [2]])
    def test_spec_n_must_be_an_integer(self, capsys, tmp_path, n):
        code, out, err = run_cli(capsys, "chained", "--spec", self.write_spec(tmp_path, n))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: n:")

    def test_n_upper_bound(self, capsys, tmp_path):
        too_many = str(MAX_CHAIN_BLOCKS + 1)
        for argv in (["-n", too_many], ["--spec", self.write_spec(tmp_path, MAX_CHAIN_BLOCKS + 1)]):
            code, out, err = run_cli(capsys, "chained", *argv)
            assert code == EXIT_INPUT
            assert out == ""
            assert err.startswith("error:") and str(MAX_CHAIN_BLOCKS) in err

    def test_total_is_a_left_to_right_sum(self, capsys):
        # the same bits on every Python: CPython 3.12's sum() over floats is compensated
        code, out, _ = run_cli(capsys, "chained", "-n", "7")
        assert code == EXIT_OK
        doc = json.loads(out)["artifacts"]
        total = 0.0
        for block in doc["block_reports"]:
            total += block["value"]
        assert doc["total"] == total

    def test_n_at_upper_bound(self, capsys):
        code, out, _ = run_cli(capsys, "chained", "-n", str(MAX_CHAIN_BLOCKS))
        assert code == EXIT_OK
        assert len(json.loads(out)["artifacts"]["block_reports"]) == MAX_CHAIN_BLOCKS


class TestMonogamyCommand:
    def test_preset(self, capsys):
        code, out, _ = run_cli(capsys, "monogamy")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["total"] == pytest.approx(
            4.0 * math.sqrt(2.0), abs=1e-12
        )
        assert doc["artifacts"]["spatial_reference"] == 4.0

    def test_chained_mode(self, capsys):
        code, out, _ = run_cli(capsys, "monogamy", "--mode", "chained")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["mode"] == "chained_single_system"

    @pytest.mark.parametrize("mode", ["independent", "chained"])
    def test_non_unitary_rejected(self, capsys, tmp_path, mode):
        p = tmp_path / "mono.json"
        double = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        p.write_text(json.dumps({"a": ["Z", "X"], "b": ["Z", "X"], "c": ["Z", "X"],
                                 "unitaries": [double, "I"]}))
        code, out, err = run_cli(capsys, "monogamy", "--spec", str(p), "--mode", mode)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: unitaries[0] is not unitary\n"


class TestBellSpecReader:
    """lgi, chained and monogamy read the initial state and settings pairs
    with one reader, so each reports a bad field the same way."""

    @pytest.mark.parametrize("command,parties", [
        ("lgi", ("first", "second")), ("chained", ("first", "second")), ("monogamy", ("a", "b", "c")),
    ])
    def test_same_errors_and_initial_state(self, capsys, tmp_path, command, parties):
        p = tmp_path / "spec.json"
        for bad in parties:
            p.write_text(json.dumps({k: ["Z"] if k == bad else ["Z", "X"] for k in parties}))
            code, out, err = run_cli(capsys, command, "--spec", str(p))
            assert (code, out, err) == (EXIT_INPUT, "", f"error: {bad}: expected a list of length 2\n")
        p.write_text(json.dumps({"initial": "q", **{k: ["Z", "X"] for k in parties}}))
        code, out, err = run_cli(capsys, command, "--spec", str(p))
        assert (code, out, err) == (EXIT_INPUT, "", "error: initial: unknown named state 'q'\n")
        p.write_text(json.dumps({"initial": "+", **{k: ["Z", "X"] for k in parties}}))
        assert run_cli(capsys, command, "--spec", str(p))[0] == EXIT_OK


# A valid spec per command; each case below spoils one field of one of them.
VALID_SPECS = {
    "lgi": {"first": ["Z", "X"], "second": ["Z", "X"]},
    "chained": {"first": ["Z", "X"], "second": ["Z", "X"], "n": 2},
    "monogamy": {"a": ["Z", "X"], "b": ["Z", "X"], "c": ["Z", "X"]},
    "abl": {"pre": "0", "post": "+", "slots": ["X", "Z"]},
    "weight": {"history": {"terms": [{"coefficient": [1, 0], "slots": ["z+", "x+"]}]}},
}
GRID = ("history", "grid")
COEFFICIENT = ("history", "terms", 0, "coefficient")


def _bloch(**fields):
    return {"theta": 1.0, "phi": 0.5, **fields}


def _identity_with(entry):
    """The 2x2 identity as [re, im] pairs with its first real part replaced."""
    return [[[entry, 0], [0, 0]], [[0, 0], [1, 0]]]


class TestSpecFieldReaders:
    """Every spec field is read by the one reader of its kind, so a bad value
    of any field exits 2 with empty stdout and an error that names the field."""

    def rejects(self, capsys, tmp_path, command, path, value, field):
        doc = json.loads(json.dumps(VALID_SPECS[command]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))  # NaN and Infinity are written as JSON's extensions
        code, out, err = run_cli(capsys, command, "--spec", str(p))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, path, value, field", [
        ("lgi", ("first", 0), _bloch(theta="1.5", phi=True), "first[0].theta"),
        ("lgi", ("first", 0), _bloch(phi=True), "first[0].phi"),
        ("chained", ("second", 1), _bloch(theta=float("nan")), "second[1].theta"),
        ("monogamy", ("b", 0), _bloch(phi=None), "b[0].phi"),
        ("monogamy", ("c", 1), {"theta": 1.0}, "c[1].phi"),
        ("abl", ("slots", 1), _bloch(theta=float("inf")), "slots[1].theta"),
        ("weight", COEFFICIENT, ["a", 0], "history: term 0 coefficient[0]"),
        ("weight", COEFFICIENT, [True, 0], "history: term 0 coefficient[0]"),
        ("weight", COEFFICIENT, [1, None], "history: term 0 coefficient[1]"),
        ("weight", COEFFICIENT, [1, 10**400], "history: term 0 coefficient[1]"),
        ("weight", GRID, {"labels": ["0", "1"], "slot_dims": [2, 2]}, "history: grid labels[0]"),
        ("weight", GRID, {"labels": [0, float("nan")], "slot_dims": [2, 2]}, "history: grid labels[1]"),
    ])
    def test_numbers(self, capsys, tmp_path, command, path, value, field):
        self.rejects(capsys, tmp_path, command, path, value, field)

    @pytest.mark.parametrize("command, path, value, field", [
        ("chained", ("n",), 2.0, "n"),
        ("chained", ("n",), "2", "n"),
        ("chained", ("n",), True, "n"),
        ("weight", GRID, {"labels": [0, 1], "slot_dims": [2.7, 2]}, "history: grid slot_dims[0]"),
        ("weight", GRID, {"labels": [0, 1], "slot_dims": [2, "2"]}, "history: grid slot_dims[1]"),
        ("weight", GRID, {"labels": [0, 1], "slot_dims": [True, 2]}, "history: grid slot_dims[0]"),
    ])
    def test_integers(self, capsys, tmp_path, command, path, value, field):
        self.rejects(capsys, tmp_path, command, path, value, field)

    @pytest.mark.parametrize("command, path, value, field", [
        ("lgi", ("first",), ["Z"], "first"),
        ("chained", ("second",), "Z", "second"),
        ("monogamy", ("a",), ["Z", "X", "Y"], "a"),
        ("monogamy", ("unitaries",), ["H"], "unitaries"),
        ("abl", ("slots",), [], "slots"),
        ("abl", ("unitaries",), ["H"], "unitaries"),
        ("weight", ("history", "terms"), [], "history: terms"),
        ("weight", ("history", "terms", 0, "slots"), "z+", "history: term 0 slots"),
        ("weight", COEFFICIENT, [1], "history: term 0 coefficient"),
        ("weight", ("bridging",), ["H", "H"], "history: bridging"),
        ("weight", GRID, {"labels": [], "slot_dims": [2, 2]}, "history: grid labels"),
    ])
    def test_lists(self, capsys, tmp_path, command, path, value, field):
        self.rejects(capsys, tmp_path, command, path, value, field)

    @pytest.mark.parametrize("command, path, value, field", [
        ("weight", ("history",), [], "history"),
        ("weight", GRID, [0, 1], "history: grid"),
        ("weight", ("history", "terms", 0), "z+", "history: term 0"),
    ])
    def test_objects(self, capsys, tmp_path, command, path, value, field):
        self.rejects(capsys, tmp_path, command, path, value, field)

    @pytest.mark.parametrize("command, path, value, field", [
        ("lgi", ("unitary",), _identity_with("1"), "unitary"),
        ("lgi", ("unitary",), _identity_with(True), "unitary"),
        ("lgi", ("initial",), [[1, 0], [None, 0]], "initial"),
        ("chained", ("unitary",), _identity_with(float("nan")), "unitary"),
        ("monogamy", ("unitaries",), [_identity_with(False), "I"], "unitaries[0]"),
        ("abl", ("pre",), [[1, 0], ["0", 0]], "pre"),
        ("abl", ("unitaries",), ["I", _identity_with(float("-inf")), "I"], "unitaries[1]"),
        ("weight", ("history", "terms", 0, "slots", 1), _identity_with("1"), "history: term 0 slots[1]"),
        ("weight", ("bridging",), [_identity_with(True)], "history: bridging[0]"),
    ])
    def test_matrix_entries(self, capsys, tmp_path, command, path, value, field):
        self.rejects(capsys, tmp_path, command, path, value, field)

    @pytest.mark.parametrize("command, path, field", [
        ("lgi", ("first", 1), "first[1].label"),
        ("chained", ("second", 0), "second[0].label"),
        ("monogamy", ("c", 0), "c[0].label"),
        ("abl", ("slots", 0), "slots[0].label"),
    ])
    @pytest.mark.parametrize("label", [[1, 2], 3, True])
    def test_labels(self, capsys, tmp_path, command, path, field, label):
        self.rejects(capsys, tmp_path, command, path, _bloch(label=label), field)

    @pytest.mark.parametrize("doc, message", [
        ({"terms": [{"slots": ["z+", [[[1, 0]]]]}]},
         "history: term 0 slots[1]: slot dimensions must be at least 2"),
        ({"terms": [{"slots": ["z+", [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]]}]},
         "history: term 0 slots[1]: slot operator shape (2, 3) does not match dim 2"),
        ({"terms": [{"slots": ["z+", "x+"]}, {"slots": [_identity_with(1), [[[1, 0]] * 3] * 3]}]},
         "history: term 1 slots[1]: slot operator shape (3, 3) does not match dim 2"),
        ({"grid": {"labels": [0, 1], "slot_dims": [2, 2]}, "terms": [{"slots": ["z+", [[[1, 0]] * 3] * 3]}]},
         "history: term 0 slots[1]: slot operator shape (3, 3) does not match dim 2"),
    ])
    def test_slot_shapes(self, capsys, tmp_path, doc, message):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"history": doc}))
        code, out, err = run_cli(capsys, "weight", "--spec", str(p))
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_valid_specs_run(self, capsys, tmp_path):
        for command, doc in VALID_SPECS.items():
            p = tmp_path / f"{command}.json"
            p.write_text(json.dumps(doc))
            assert run_cli(capsys, command, "--spec", str(p))[0] == EXIT_OK


class TestOptionScope:
    """--tol belongs to weight and other subcommands reject it; every subcommand
    rejects --seed, --restarts, --max-evals and --preset, which select nothing
    (lgi, chained and monogamy run their preset without --spec)."""

    ARGV = {
        "scenario": ["scenario", "example1"],
        "lgi": ["lgi"],
        "chained": ["chained"],
        "monogamy": ["monogamy"],
        "optimize": ["optimize"],
        "weight": ["weight", "--spec", str(GOLDEN / "specs" / "weight-diagonal.json")],
        "abl": ["abl", "--spec", str(GOLDEN / "specs" / "abl-pure.json")],
    }

    @pytest.mark.parametrize("option,owner", [("--tol", "weight"), ("--seed", None), ("--restarts", None),
                                              ("--max-evals", None), ("--preset", None)])
    def test_rejected_outside_its_subcommand(self, capsys, option, owner):
        for command, argv in self.ARGV.items():
            if command == owner:
                continue
            with pytest.raises(SystemExit) as exit_:
                main(argv + [option, "1"])
            assert exit_.value.code == EXIT_INPUT, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert f"unrecognized arguments: {option} 1" in captured.err, command

    def test_weight_reads_tol(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV["weight"], "--tol", "0.25")
        assert code == EXIT_OK
        assert json.loads(out)["artifacts"]["term_consistency"]["tol"] == 0.25
        code, out, _ = run_cli(capsys, *self.ARGV["weight"], "--tol", "0")
        assert code == EXIT_OK
        assert json.loads(out)["artifacts"]["term_consistency"]["tol"] == 0.0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_weight_rejects_a_bad_tol(self, capsys, tol):
        # NaN and Infinity are not JSON, and a negative tol marks every family inconsistent
        code, out, err = run_cli(capsys, *self.ARGV["weight"], f"--tol={tol}")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: --tol must be a finite nonnegative number, got {float(tol)}\n"


class TestOptimizeCommand:
    def test_converges(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--objective", "s_lgi")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["value"] == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-6
        )
        assert doc["artifacts"]["converged"] is True

    @pytest.mark.parametrize("objective,n", [("s_lgi", 1), ("chained_bell", 3), ("monogamy_sum", 1)])
    def test_open_certificate_exit_code(self, capsys, monkeypatch, objective, n):
        open_certificate(monkeypatch)  # the spectral start certifies at once
        code, out, err = run_cli(capsys, "optimize", "--objective", objective, "-n", str(n))
        assert code == EXIT_NONCONVERGED
        assert err == ""
        doc = json.loads(out)["artifacts"]
        assert doc["converged"] is False
        assert doc["evaluations"] == 1

    @pytest.mark.parametrize("argv,message", [
        (["-n", "-5"], "need at least one block"),
        (["--objective", "monogamy_sum", "-n", "0"], "need at least one block"),
        (["--objective", "s_lgi", "-n", str(MAX_CHAIN_BLOCKS + 1)],
         f"at most {MAX_CHAIN_BLOCKS} chained blocks are supported, got {MAX_CHAIN_BLOCKS + 1}"),
        (["--objective", "chained_bell", "-n", "0"], "need at least one block"),
    ])
    def test_chain_length_checked_for_every_objective(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "optimize", *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: {message}\n"

    def test_one_evaluation_certifies(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--objective", "s_lgi")
        assert code == EXIT_OK
        doc = json.loads(out)["artifacts"]
        assert doc["converged"] is True
        assert doc["evaluations"] == 1

    def test_runs_without_scipy(self):
        # scipy is installed here, so hide it: any import of it then fails
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from qhist import best_joint_bell_reduction_overlap\n"
            "from qhist.cli import main\n"
            "assert main(['optimize', '--objective', 'monogamy_sum']) == 0\n"
            "print(best_joint_bell_reduction_overlap().upper_bound)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(qhist.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert abs(float(proc.stdout.splitlines()[-1]) - 0.75) < 1e-12

    def test_trace_csv(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "evaluation"
        assert rows[0][-1] == "value"


class TestWeightCommand:
    def test_two_branch_history(self, capsys, tmp_path):
        p = tmp_path / "hist.json"
        p.write_text(
            json.dumps(
                {
                    "history": {
                        "terms": [
                            {
                                "coefficient": [0.7071067811865476, 0.0],
                                "slots": ["z+", "z+"],
                            },
                            {
                                "coefficient": [0.7071067811865476, 0.0],
                                "slots": ["z-", "z-"],
                            },
                        ]
                    }
                }
            )
        )
        code, out, _ = run_cli(capsys, "weight", "--spec", str(p))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["weight"] == pytest.approx(1.0, abs=1e-9)
        assert doc["artifacts"]["n_terms"] == 2
        assert doc["artifacts"]["term_consistency"]["consistent"] is True

    def test_requires_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["weight"])

    def test_single_projector_chain(self, capsys, tmp_path):
        p = tmp_path / "xz.json"
        p.write_text(json.dumps({"terms": [{"slots": ["x+", "z+"]}]}))
        code, out, _ = run_cli(capsys, "weight", "--spec", str(p))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["weight"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("history", [[], "z+", 3, None])
    def test_non_object_history(self, capsys, tmp_path, history):
        p = tmp_path / "hist.json"
        p.write_text(json.dumps({"history": history}))
        code, out, err = run_cli(capsys, "weight", "--spec", str(p))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("terms", [
        [{"coefficient": [1e300, 0], "slots": ["z+", "z-"]}],
        [{"coefficient": [1e200, 0], "slots": ["z+", "z-"]}, {"coefficient": [1e200, 0], "slots": ["x+", "z-"]}],
        [{"coefficient": [1e200, 0], "slots": ["z+", "z-"]}, {"coefficient": [1e200, 0], "slots": ["z+", "z-"]}],
    ])
    def test_overflowing_norm_rejected(self, capsys, tmp_path, terms):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"history": {"terms": terms}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(capsys, "weight", "--spec", str(p))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: history norm is not finite") and "Traceback" not in err

    def test_zero_norm_term_rejected(self, capsys, tmp_path):
        # the history itself has a nonzero norm; its second term does not
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        terms = [{"coefficient": [0.6, 0.0], "slots": ["z+", "z+"]},
                 {"coefficient": [0.8, 0.0], "slots": [zero, "z-"]},
                 {"coefficient": [0.0, 0.5], "slots": ["x+", "z-"]}]
        p = tmp_path / "zero.json"
        p.write_text(json.dumps({"history": {"terms": terms}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "weight", "--spec", str(p))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: cannot normalize a zero-norm history\n"

    @pytest.mark.parametrize("doc, message", [
        ({"terms": [{"slots": ["z+", "z-"]}] * (serialize.MAX_HISTORY_TERMS + 1)},
         f"at most {serialize.MAX_HISTORY_TERMS}"),
        ({"grid": {"labels": [0, 1], "slot_dims": [2, serialize.MAX_SLOT_DIM + 1]},
          "terms": [{"slots": ["z+", "z-"]}]},
         f"at most {serialize.MAX_SLOT_DIM}"),
    ])
    def test_size_bounds_exit_before_any_history(self, capsys, tmp_path, monkeypatch, doc, message):
        def built(*args, **kwargs):
            raise AssertionError("a history was built")

        monkeypatch.setattr(serialize, "HistoryState", built)
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"history": doc}))
        code, out, err = run_cli(capsys, "weight", "--spec", str(p))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err


class TestAblCommand:
    def write(self, tmp_path, payload, name="exp.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    def test_distribution(self, capsys, tmp_path):
        spec = self.write(
            tmp_path, {"pre": "0", "post": "0", "slots": ["X", "X"]}
        )
        code, out, _ = run_cli(capsys, "abl", "--spec", spec)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["distribution"]["table"]["++"] == pytest.approx(0.5)
        assert doc["artifacts"]["distribution"]["table"]["--"] == pytest.approx(0.5)

    @pytest.mark.parametrize("outcome", ["+", "-"])
    def test_outcome_needs_slot(self, capsys, outcome):
        spec = str(GOLDEN / "specs" / "abl-post-one.json")
        code, out, err = run_cli(capsys, "abl", "--spec", spec, "--outcome", outcome)
        assert (code, out, err) == (EXIT_INPUT, "", "error: --outcome needs --slot\n")

    def test_single_slot_conditional(self, capsys, tmp_path):
        spec = self.write(tmp_path, {"pre": "0", "post": "+", "slots": ["Z"]})
        code, out, _ = run_cli(
            capsys, "abl", "--spec", spec, "--slot", "0", "--outcome", "+"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["artifacts"]["abl_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_impossible_postselection_exit_code(self, capsys, tmp_path):
        spec = self.write(tmp_path, {"pre": "0", "post": "1", "slots": ["Z"]})
        code, _, err = run_cli(capsys, "abl", "--spec", spec)
        assert code == EXIT_IMPOSSIBLE
        assert "impossible post-selection" in err

    def test_wrong_slot_is_reported_before_an_impossible_postselection(self, capsys, tmp_path):
        spec = self.write(tmp_path, {"pre": "0", "post": "1", "slots": ["Z"]})
        code, out, err = run_cli(capsys, "abl", "--spec", spec, "--slot", "1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: exactly one measured slot, matching `slot`, is required\n"
        code, _, err = run_cli(capsys, "abl", "--spec", spec, "--slot", "0")
        assert code == EXIT_IMPOSSIBLE
        assert "impossible post-selection" in err

    @pytest.mark.parametrize("outcome", ["+", "-"])
    def test_slot_probability_is_read_off_the_one_table(self, capsys, monkeypatch, outcome):
        built = []
        real = twostate.sequence_distribution
        for module in (cli, twostate):
            monkeypatch.setattr(module, "sequence_distribution", lambda *a: built.append(1) or real(*a))
        spec = str(GOLDEN / "specs" / "abl-post-one.json")
        code, out, _ = run_cli(capsys, "abl", "--spec", spec, "--slot", "0", "--outcome", outcome)
        assert (code, len(built)) == (EXIT_OK, 1)
        doc = json.loads(out)["artifacts"]
        assert (doc["slot"], doc["outcome"]) == (0, outcome)
        exp = Experiment(*(serialize.experiment_from_document(
            serialize.load_document(spec))[k] for k in ("pre", "slots", "unitaries", "post")))
        assert doc["abl_probability"] == abl_probability(exp, 0, +1 if outcome == "+" else -1)

    def test_mixed_initial(self, capsys, tmp_path):
        spec = self.write(
            tmp_path, {"initial": "mixed", "slots": ["X", "Y", "Z"]}
        )
        code, out, _ = run_cli(capsys, "abl", "--spec", spec)
        assert code == EXIT_OK
        doc = json.loads(out)
        for p in doc["artifacts"]["distribution"]["table"].values():
            assert p == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("payload, message", [
        ({"initial": "mixed", "slots": ["X", "Z"],
          "unitaries": ["I", [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "I"]},
         "error: interval operator is not unitary"),
        ({"initial": "mixed", "slots": ["X"],
          "unitaries": ["I", [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                              [[0, 0], [0, 0], [1, 0]]]]},
         "error: interval unitary has wrong dimension"),
        ({"pre": [[1, 0], [0, 0], [0, 0]], "slots": ["X"]},
         "error: slot observable dimension does not match the state"),
        ({"initial": "mixed", "slots": ["X"], "post": [[1, 0], [0, 0], [0, 0]]},
         "error: post ket dimension does not match the state"),
    ])
    def test_bad_slot_row_rejected(self, capsys, tmp_path, payload, message):
        code, out, err = run_cli(capsys, "abl", "--spec", self.write(tmp_path, payload))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("n", [MAX_MEASURED_SLOTS + 1, 40])
    @pytest.mark.parametrize("head", [{"pre": "0", "post": "+"}, {"initial": "mixed"}])
    def test_measured_slot_bound(self, capsys, tmp_path, n, head):
        spec = self.write(tmp_path, {**head, "slots": ["X", None] * n})
        code, out, err = run_cli(capsys, "abl", "--spec", spec)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            f"error: at most {MAX_MEASURED_SLOTS} measured slots are supported, got {n}\n"
        )

    @pytest.mark.parametrize("payload, message", [
        ({"initial": "mixed", "slots": ["X"]},
         "error: single-slot probability needs a pure 'pre' state"),
        ({"pre": "0", "slots": ["X"]}, "error: a post-selection is required"),
        ({"pre": "0", "post": "0", "slots": ["X", "Z"]},
         "error: exactly one measured slot, matching `slot`, is required"),
    ])
    def test_slot_rejected_before_any_distribution(
        self, capsys, tmp_path, monkeypatch, payload, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("distribution computed before --slot was checked")

        for module in (cli, twostate):
            monkeypatch.setattr(module, "sequence_distribution", fail)
            monkeypatch.setattr(module, "mixed_sequence_distribution", fail)
        spec = self.write(tmp_path, payload)
        code, out, err = run_cli(capsys, "abl", "--spec", spec, "--slot", "0")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == message + "\n"

    def test_distribution_csv_format(self, capsys, tmp_path):
        spec = self.write(tmp_path, {"pre": "0", "post": "0", "slots": ["X", "X"]})
        code, out, _ = run_cli(capsys, "abl", "--spec", spec, "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["outcome", "probability"]
        assert ["++", "0.5"] in rows

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_other_formats_build_no_table(self, capsys, tmp_path, monkeypatch, fmt):
        spec = self.write(tmp_path, {"pre": "0", "post": "0", "slots": ["X", "X"]})

        def fail(result):
            raise AssertionError("table built but not printed")

        monkeypatch.setattr(serialize, "distribution_csv", fail)
        monkeypatch.setattr(serialize, "trace_csv", fail)
        code, out, _ = run_cli(capsys, "abl", "--spec", spec, "--format", fmt)
        assert code == EXIT_OK
        assert "0.5" in out
        code, out, _ = run_cli(capsys, "optimize", "--format", fmt)
        assert code in (EXIT_OK, EXIT_NONCONVERGED)
        assert "evaluation" in out

    @pytest.mark.parametrize("n", [MAX_MEASURED_SLOTS + 1, 20000])
    @pytest.mark.parametrize("head", [{"pre": "0", "post": "+"}, {"initial": "mixed"}])
    def test_slot_bound_checked_before_any_setting(self, capsys, tmp_path, monkeypatch, n, head):
        def fail(*args, **kwargs):
            raise AssertionError("settings built before the measured-slot bound was checked")

        monkeypatch.setattr(twostate.MeasurementSetting, "stack", fail)
        spec = self.write(tmp_path, {**head, "slots": [{"theta": 0.5, "phi": 0.25}, None] * n})
        code, out, err = run_cli(capsys, "abl", "--spec", spec)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: at most {MAX_MEASURED_SLOTS} measured slots are supported, got {n}\n"

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("head", [{"pre": "0", "post": "+"}, {"initial": "mixed"}])
    def test_bad_unitary_at_each_position(self, capsys, tmp_path, position, head):
        unitaries = ["H", "I", "X", "Y"]
        unitaries[position] = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        spec = self.write(tmp_path, {**head, "slots": ["X", None, "Z"], "unitaries": unitaries})
        code, out, err = run_cli(capsys, "abl", "--spec", spec)
        assert (code, out, err) == (EXIT_INPUT, "", "error: interval operator is not unitary\n")

    def test_csv_builds_no_document(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a JSON document built for a CSV table")

        monkeypatch.setattr(serialize, "document", fail)
        spec = self.write(tmp_path, {"pre": "0", "post": "+", "slots": ["X", None]})
        for extra in ((), ("--slot", "0")):
            code, out, _ = run_cli(capsys, "abl", "--spec", spec, "--format", "csv", *extra)
            assert code == EXIT_OK
            assert out.startswith("outcome,probability\r\n")


class TestParserReuse:
    """``main`` builds one parser per process; no call may see another's options."""

    def test_one_parser_across_calls(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        for argv in (["lgi"], ["chained", "-n", "2"], ["optimize"]) * 3:
            assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert len(built) == 1

    def test_mixed_sequence_matches_goldens(self, capsys, tmp_path):
        spec = str(GOLDEN / "specs" / "abl-post-one.json")
        help_text = cli.build_parser().format_help()
        sequence = [
            (["abl", "--spec", spec, "--slot", "0", "--outcome", "-"], "abl-post-one-slot-minus.json"),
            (["abl", "--spec", spec], "abl-post-one.json"),
            (["--help"], None),
            (["abl", "--spec", spec, "--format", "csv"], "abl-post-one.csv"),
            (["optimize", "--objective", "s_lgi", "--format", "csv"], "optimize-s_lgi.csv"),
            (["optimize", "--bogus"], None),
            (["optimize"], "optimize-s_lgi.json"),
            (["optimize", "--objective", "chained_bell", "-n", "2", "--format", "pretty"],
             "optimize-chained_bell-n2.pretty"),
            (["optimize", "--objective", "monogamy_sum", "--out", str(tmp_path / "m.json")], None),
            (["optimize", "--objective", "chained_bell", "-n", "3"], "optimize-chained_bell-n3.json"),
            (["abl", "--spec", spec, "--slot", "0"], None),
            (["abl", "--spec", spec], "abl-post-one.json"),
        ]
        for argv, golden in sequence:
            if argv == ["--help"]:
                with pytest.raises(SystemExit) as exit_:
                    main(argv)
                assert exit_.value.code == 0
                assert capsys.readouterr().out == help_text
                continue
            if argv[-1] == "--bogus":
                with pytest.raises(SystemExit) as exit_:
                    main(argv)
                assert exit_.value.code == EXIT_INPUT
                assert "unrecognized arguments: --bogus" in capsys.readouterr().err
                continue
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_OK, err
            if golden is not None:
                assert out.encode("utf-8") == (GOLDEN / golden).read_bytes(), argv
            elif "--out" in argv:
                assert out == ""
                golden_text = (GOLDEN / "optimize-monogamy_sum.json").read_text(encoding="utf-8")
                assert (tmp_path / "m.json").read_text(encoding="utf-8") == golden_text
            else:
                assert json.loads(out)["artifacts"]["outcome"] == "+"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qhist", "scenario", "example1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["name"] == "example1"

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qhist", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for sub in ("scenario", "lgi", "chained", "monogamy", "optimize", "weight", "abl"):
            assert sub in proc.stdout
