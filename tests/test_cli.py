"""Command line behavior: outputs, formats, exit codes."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cubicmonodromy.cli as cli
import cubicmonodromy.lines as lines_module
from cubicmonodromy.errors import AmbiguousMatching
from cubicmonodromy.lines import base_surface
from cubicmonodromy.numeric import PRECISIONS
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


def _complexes(entries):
    return np.array([complex(z["re"], z["im"]) for z in entries])


def test_lines_json_matches_the_pinned_output(capsys):
    # integer fields exactly; covectors to 1e-12, which leaves room for the
    # rounding of another but equivalent order of operations
    code, out, _ = run(capsys, "lines", "--lambda", "0.3,0.1", "--format", "json")
    assert code == 0
    got = json.loads(out)
    want = json.loads((Path(__file__).parent / "data" /
                       "lines_lambda_0.3_0.1.json").read_text())
    for key in ("familyParameter", "incidenceDegrees", "concurrentTriples",
                "sixer", "classes"):
        assert got[key] == want[key]
    assert len(got["lines"]) == len(want["lines"]) == 27
    for g, w in zip(got["lines"], want["lines"]):
        assert (g["index"], g["flex"], g["sheet"]) == (w["index"], w["flex"], w["sheet"])
        for key in ("hyperplane1", "hyperplane2"):
            assert np.abs(_complexes(g[key]) - _complexes(w[key])).max() <= 1e-12


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


def test_lines_wrong_incidence_graph_exits_2(capsys, monkeypatch):
    flipped = base_surface().adjacency.copy()
    flipped[0, 1] = flipped[1, 0] = not flipped[0, 1]
    monkeypatch.setattr(lines_module, "incidence_graph", lambda lines: flipped)
    code, out, err = run(capsys, "lines", "--lambda", "0.3")
    assert code == 2
    assert out == ""
    assert "(27, 10, 1, 5) graph" in err


@pytest.mark.parametrize("lam", ["2000", "1e6", "1.5e6"])
def test_lines_far_from_the_nodes(capsys, lam):
    code, out, _ = run(capsys, "lines", "--lambda", lam, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data["incidenceDegrees"]) == {10}
    assert len(data["concurrentTriples"]) == 9


def test_lines_refuse_a_member_whose_flexes_collide(capsys):
    # from about 2e6 on, double precision no longer tells the nine apart
    code, out, err = run(capsys, "lines", "--lambda", "2e6")
    assert (code, out) == (2, "")
    assert "inflection points collide" in err


def test_lines_refuse_a_member_off_the_surface_on_one_line(capsys, monkeypatch):
    # flex 4 moved off the curve and fed with the form l of the flex it was:
    # its lines miss the surface; the point is printed whole, not wrapped
    # the way numpy prints it
    found = lines_module.inflection_points

    def planted(f, tol):
        flexes, forms = found(f, tol)
        flexes = flexes.copy()
        flexes[4] = [0.2, 0.5, 1.0]
        return flexes, forms

    monkeypatch.setattr(lines_module, "inflection_points", planted)
    code, out, err = run(capsys, "lines", "--lambda", "0.3")
    assert (code, out) == (2, "")
    assert re.match(r"error: flex 4: line residual .* over point \[0\.2.*\]$", err)
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", ["1e10", "1e40j", "1e77", "1e80", "1e100", "3e99", "1e99j",
                                 "1e163", "-1e163", "1e163j", "1e300", "-1e300", "1e300j",
                                 "1.7e308"])
def test_lines_at_a_huge_parameter_exit_2_without_a_warning(capsys, lam):
    # the flexes are found on f / f.scale(), and the chart route scales the
    # Hessian form to unit size, so that neither the Hessian nor the route's
    # companion matrix overflows; the member is refused in one line
    code, out, err = run(capsys, "lines", f"--lambda={lam}")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "non-finite" not in err
    assert "Array must not contain" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", ["1e9", "1e12", "1e300"])
def test_lines_at_a_huge_parameter_names_the_cause(capsys, lam):
    code, out, err = run(capsys, "lines", f"--lambda={lam}")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: inflection points collide")
    assert "expected 9 inflection points" not in err


@pytest.mark.parametrize("lam", ["-0.5,0.2", "-8.5e5"])
def test_lines_takes_a_negative_lambda_in_the_equals_form(capsys, lam):
    code, out, _ = run(capsys, "lines", f"--lambda={lam}", "--format", "json")
    assert code == 0
    assert set(json.loads(out)["incidenceDegrees"]) == {10}
    # argparse reads a value that starts with "-" and is not a plain
    # negative decimal as an option, so the spaced form is refused
    with pytest.raises(SystemExit) as exc:
        cli.main(["lines", "--lambda", lam])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


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


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("loop", sorted(cli.LOOPS))
def test_monodromy_json_equals_the_golden_file(capsys, loop, precision):
    # JSON only: the CSV prints roots to 12 digits, which the LAPACK build moves
    code, out, _ = run(capsys, "monodromy", loop, "--format", "json",
                       "--precision", precision)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / f"monodromy_{loop}.json").read_text()


def test_monodromy_reports_the_refined_step_count(capsys):
    # 8 samples miss the matching margin; the trace that succeeds has 32
    code, out, _ = run(capsys, "monodromy", "gamma-minus", "--steps", "8")
    assert code == 0
    assert out.startswith("loop gamma-minus at 32 steps\n")
    code, out, _ = run(capsys, "monodromy", "gamma-minus", "--steps", "8",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["steps"] == 32


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
    monkeypatch.setattr(cli, "run_checks", lambda scope: bad)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "overall=fail" in out


def test_schema_breaking_report_exits_2(capsys, monkeypatch):
    bad = VerificationReport("all", [
        Check("x-1", "undecided check", "maybe", 0, 1, 0.1),
    ])
    monkeypatch.setattr(cli, "run_checks", lambda scope: bad)
    code, out, err = run(capsys, "verify", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "status" in err


# Runs `verify --scope all` cold as `python -m` does; the report goes to
# stdout.  Then it reports on stderr the exit code, whether jsonschema was
# ever imported, and on the reflection group the run left behind: whether
# its element stack and its product table were built, how many class walks
# it keeps, and whether the class map a caller gets from conjugacy_class can
# be changed.
_COLD_RUN = """
import gc, json, runpy, sys
sys.argv = ["cubicmonodromy", "verify", "--scope", "all", "--format", "json"]
try:
    runpy.run_module("cubicmonodromy.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
state = {"code": code, "jsonschema": "jsonschema" in sys.modules,
         "frozen": gc.get_freeze_count() > 0}
from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.weyl import conjugacy_class, weyl_group
w = weyl_group()
state.update(stackBuilt="elements" in vars(w),
             transitionsBuilt="transitions" in vars(w), walks=len(w.class_walks))
members = conjugacy_class(load_fixtures().deck, w)
try:
    members[b"x"] = None
except TypeError:
    state["mapReadOnly"] = True
try:
    next(iter(members.values()))[0, 0] = 5
except ValueError:
    state["carrierReadOnly"] = True
state["walksAfter"] = len(w.class_walks)
print(json.dumps(state), file=sys.stderr)
"""


def _child_env(src):
    """The test environment for a child interpreter: the package on its
    path, and every warning an error there too."""
    return {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error"}


@pytest.fixture(scope="module")
def cold_run():
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", _COLD_RUN],
                          env=_child_env(src),
                          capture_output=True, text=True, timeout=300)


def _cold_state(cold_run):
    return json.loads(cold_run.stderr.strip().splitlines()[-1])


def test_verify_runs_without_importing_jsonschema(cold_run):
    state = _cold_state(cold_run)
    assert state["code"] == 0 and state["jsonschema"] is False
    report = json.loads(cold_run.stdout)
    assert report["overall"] == "pass"
    assert len(report["checks"]) == 32


def test_cold_verify_never_builds_the_reflection_group_stack(cold_run):
    assert _cold_state(cold_run) == {
        "code": 0, "jsonschema": False, "frozen": True, "stackBuilt": False,
        "transitionsBuilt": False, "walks": 2,
        "mapReadOnly": True, "carrierReadOnly": True, "walksAfter": 2}


def test_main_in_process_leaves_the_collector_alone(capsys):
    # only the process entry point freezes the heap; a caller of main keeps
    # every object it makes collectable
    frozen = gc.get_freeze_count()
    code, out, _ = run(capsys, "verify", "--scope", "fixtures")
    assert code == 0 and "overall=pass" in out
    assert gc.get_freeze_count() == frozen


def _without_runtimes(report):
    return {**report, "checks": [{k: v for k, v in c.items() if k != "runtimeMs"}
                                 for c in report["checks"]]}


def _golden_report():
    return json.loads((Path(__file__).parent / "data" /
                       "report_all.json").read_text())


def test_full_report_equals_the_golden_report(cold_run):
    assert _without_runtimes(json.loads(cold_run.stdout)) == _golden_report()


@pytest.mark.parametrize("scope, prefix", [("fixtures", "fx-"),
                                           ("pipeline", "pl-")])
def test_cold_scope_reproduces_its_slice_of_the_golden_report(scope, prefix):
    # each scope in a fresh interpreter: no cache warmed by the other half
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "cubicmonodromy.cli", "verify",
                          "--scope", scope, "--format", "json"],
                         env=_child_env(src),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    golden = _golden_report()
    want = {**golden, "scope": scope, "checks": [
        c for c in golden["checks"] if c["id"].startswith(prefix)]}
    assert _without_runtimes(json.loads(out.stdout)) == want


def test_closed_stdout_exits_141_without_a_traceback():
    # about 1 MB of track, far more than a pipe holds, so the command is
    # still writing when the reader closes its end after the first line
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "cubicmonodromy.cli", "monodromy",
                           "gamma-minus", "--steps", "2000", "--format", "csv"],
                          env=_child_env(src),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first.startswith(b"step,t,root_index,")
    assert (proc.wait(timeout=300), err) == (141, b"")


def test_ambiguity_exits_3(capsys, monkeypatch):
    def boom(scope):
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


# lines takes --tol and rejects a bad one; the tracked subcommands end-match
# at numeric.TOL_MATCH and take no --tol at all
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("argv", [["lines"], ["monodromy", "gamma-minus"],
                                  ["verify", "--scope", "pipeline"]])
def test_tolerance_must_be_finite_and_positive(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv == ["lines"]:
        assert "tolerance must be finite and positive" in err
    else:
        assert "unrecognized arguments: --tol" in err


@pytest.mark.parametrize("argv", [["monodromy", "gamma-minus"],
                                  ["verify", "--scope", "pipeline"]])
def test_only_lines_takes_a_tolerance(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["explode"])
    assert exc.value.code == 2


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


# monodromy takes --steps and TrackingConfig bounds it; verify runs the
# battery at the default configuration only and takes no --steps at all
@pytest.mark.parametrize("argv", [["monodromy", "gamma-minus"], ["verify"]])
def test_step_count_is_bounded(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "trace_loop", None)
    monkeypatch.setattr(cli, "run_checks", None)
    if argv == ["verify"]:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--steps", "1000000000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --steps" in capsys.readouterr().err
        return
    # rejected by TrackingConfig before any tracking starts
    code, _, err = run(capsys, *argv, "--steps", "1000000000")
    assert code == 2
    assert "steps" in err


def test_verify_rejects_precision(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--precision", "extended"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision" in capsys.readouterr().err
