"""Command line behavior: outputs, formats, exit codes."""

import json

import jsonschema
import numpy as np
import pytest

import cubicmonodromy.cli as cli
from cubicmonodromy.errors import AmbiguousMatching
from cubicmonodromy.report import REPORT_SCHEMA, Check, VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert cli.parse_complex("0.5") == 0.5
    assert cli.parse_complex("1+2j") == 1 + 2j
    assert cli.parse_complex("0.3,0.1") == 0.3 + 0.1j
    assert cli.parse_complex(" -2 , 0.5 ") == -2 + 0.5j
    with pytest.raises(ValueError):
        cli.parse_complex("pi")


def test_cycle_notation():
    assert cli.cycle_notation(np.array([0, 1, 2])) == "()"
    assert cli.cycle_notation(np.array([2, 0, 1, 3])) == "(0 2 1)"
    assert cli.cycle_notation(np.array([1, 0, 3, 2])) == "(0 1)(2 3)"


def test_lines_text(capsys):
    code, out, _ = run(capsys, "lines", "--lambda", "0")
    assert code == 0
    assert "27 lines" in out
    assert out.count("\n") > 27


def test_lines_json(capsys):
    code, out, _ = run(capsys, "lines", "--lambda", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["lines"]) == 27
    assert set(data["incidenceDegrees"]) == {10}
    assert len(data["concurrentTriples"]) == 9
    assert len(data["sixer"]) == 6


def test_lines_json_complex_parameter(capsys):
    code, out, _ = run(capsys, "lines", "--lambda", "0.3,0.1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["lines"]) == 27


def test_lines_csv(capsys):
    code, out, _ = run(capsys, "lines", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("index,flex,sheet,")
    assert len(rows) == 28


def test_lines_singular_parameter_exits_2(capsys):
    code, _, err = run(capsys, "lines", "--lambda", "1")
    assert code == 2
    assert "error" in err


def test_lines_bad_parameter_exits_2(capsys):
    code, _, err = run(capsys, "lines", "--lambda", "pi")
    assert code == 2
    assert "error" in err


def test_lines_rejects_precision(capsys):
    # lines tracks no loop, so it takes no root-refinement arithmetic
    with pytest.raises(SystemExit) as exc:
        cli.main(["lines", "--precision", "extended"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_monodromy_text(capsys):
    code, out, _ = run(capsys, "monodromy", "gamma-minus")
    assert code == 0
    assert "(0 2 1)" in out
    assert "lattice matrix" in out


def test_monodromy_json(capsys):
    code, out, _ = run(capsys, "monodromy", "gamma-plus", "--steps", "50",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["loop"] == "gamma-plus"
    assert data["steps"] == 50
    assert data["rootPermutation"] == [0, 2, 3, 1]
    assert len(data["latticeMatrix"]) == 7


def test_monodromy_constant_identity(capsys):
    code, out, _ = run(capsys, "monodromy", "constant", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rootPermutation"] == [0, 1, 2, 3]
    assert data["flexPermutation"] == list(range(9))
    assert np.array_equal(np.array(data["latticeMatrix"]),
                          np.eye(7, dtype=np.int64))


def test_monodromy_csv_blocks(capsys):
    code, out, _ = run(capsys, "monodromy", "gamma-minus", "--steps", "32",
                       "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "step,t,root_index,re,im"
    flex_header = rows.index("step,t,flex_index,re,im")
    assert flex_header == 1 + 33 * 4
    assert len(rows) == 2 + 33 * 4 + 33 * 8


def test_monodromy_rejects_unknown_loop(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["monodromy", "gamma-both"])
    assert exc.value.code == 2


def test_verify_fixtures_json(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "fixtures",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["overall"] == "pass"
    assert len(data["checks"]) >= 10


def test_verify_all_has_enough_checks(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "all",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["overall"] == "pass"
    assert len(data["checks"]) >= 20


def test_verify_failure_exits_1(capsys, monkeypatch):
    bad = VerificationReport("all", [
        Check("x-1", "forced failure", "fail", 0, 1, 0.1),
    ])
    monkeypatch.setattr(cli, "run_checks", lambda scope, cfg: bad)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "overall=fail" in out


def test_ambiguity_exits_3(capsys, monkeypatch):
    def boom(scope, cfg):
        raise AmbiguousMatching("stuck at maximum refinement")

    monkeypatch.setattr(cli, "run_checks", boom)
    code, _, err = run(capsys, "verify")
    assert code == 3
    assert "stuck" in err


def test_monodromy_ambiguity_exits_3(capsys, monkeypatch):
    def boom(loop, cfg):
        raise AmbiguousMatching("matching margin exhausted")

    monkeypatch.setattr(cli, "trace_loop", boom)
    code, _, err = run(capsys, "monodromy", "gamma-minus")
    assert code == 3
    assert "margin" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("argv", [["lines"], ["monodromy", "gamma-minus"],
                                  ["verify", "--scope", "pipeline"]])
def test_tolerance_must_be_finite_and_positive(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tol", tol])
    assert exc.value.code == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["explode"])
    assert exc.value.code == 2


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [["monodromy", "gamma-minus"], ["verify"]])
def test_step_count_is_bounded(capsys, monkeypatch, argv):
    # rejected by TrackingConfig before any tracking starts
    monkeypatch.setattr(cli, "trace_loop", None)
    monkeypatch.setattr(cli, "run_checks", None)
    code, _, err = run(capsys, *argv, "--steps", "1000000000")
    assert code == 2
    assert "steps" in err
