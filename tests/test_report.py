"""Report assembly, JSON schema, and the three renderers."""

import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmonodromy.report import (REPORT_SCHEMA, SCHEMA_VERSION, SCOPES, Check,
                                   VerificationReport, jsonable, render_csv,
                                   render_json, render_text)


def _check(check_id="c-1", status="pass", description="a demo check",
           observed=1, expected=1, ms=2.5):
    return Check(check_id, description, status, observed, expected, ms)


def test_jsonable_scalars_and_containers():
    assert jsonable(3) == 3
    assert jsonable(2.5) == 2.5
    assert jsonable("x") == "x"
    assert jsonable(None) is None
    assert jsonable(True) is True
    assert jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}
    assert jsonable((1, 2)) == [1, 2]
    assert jsonable({"k": (1,)}) == {"k": [1]}


def test_jsonable_numpy_values():
    assert jsonable(np.int64(4)) == 4
    assert jsonable(np.bool_(True)) is True
    assert jsonable(np.eye(2, dtype=np.int64)) == [[1, 0], [0, 1]]
    # regression: numpy complex scalars and arrays must not leak complex
    assert jsonable(np.complex128(1 + 1j)) == {"re": 1.0, "im": 1.0}
    out = jsonable(np.array([1j, 2.0]))
    assert out == [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 0.0}]
    json.dumps(jsonable({"vals": np.array([0.5j])}))


def test_jsonable_fallback_repr():
    class Odd:
        def __repr__(self):
            return "<odd>"

    assert jsonable(Odd()) == "<odd>"


def test_check_to_dict():
    d = _check(ms=2.5199).to_dict()
    assert d["id"] == "c-1"
    assert d["runtimeMs"] == 2.52
    assert set(d) == {"id", "description", "status", "observed", "expected",
                      "runtimeMs"}


def test_check_to_dict_rounds_a_huge_numpy_runtime_as_a_float():
    # numpy's round goes through x * 1000, which overflows past 1.8e305
    d = _check(ms=np.float64(1e306)).to_dict()
    assert d["runtimeMs"] == 1e306 and type(d["runtimeMs"]) is float


def test_overall_logic():
    ok = VerificationReport("all", [_check()])
    assert ok.overall == "pass"
    mixed = VerificationReport("all", [_check(), _check("c-2", "fail")])
    assert mixed.overall == "fail"
    # no checks means nothing was verified
    assert VerificationReport("all", []).overall == "fail"


def test_a_skipped_check_breaks_the_schema():
    # a check either passes or fails; nothing produces another status
    rep = VerificationReport("all", [_check(), _check("c-2", "skipped")])
    assert rep.overall == "fail"
    with pytest.raises(ValueError, match=r"\$\.checks\[1\]\.status"):
        rep.to_dict()


def test_duplicate_ids_rejected():
    rep = VerificationReport("all", [_check(), _check()])
    with pytest.raises(ValueError):
        rep.to_dict()


def test_json_roundtrips_schema():
    rep = VerificationReport("fixtures", [
        _check(observed={"n": (1, 2j)}, expected={"n": [1, 2j]}),
        _check("c-2"),
    ])
    data = json.loads(render_json(rep))
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["schemaVersion"] == SCHEMA_VERSION
    assert data["scope"] == "fixtures"
    assert data["overall"] == "pass"


def test_schema_rejects_bad_documents():
    good = json.loads(render_json(VerificationReport("all", [_check()])))
    for breakage in (
        lambda d: d.pop("scope"),
        lambda d: d["checks"][0].update(status="maybe"),
        lambda d: d["checks"][0].update(runtimeMs=-1.0),
        lambda d: d.update(scope="everything"),
    ):
        bad = json.loads(json.dumps(good))
        breakage(bad)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, REPORT_SCHEMA)


def test_render_text_shows_failures():
    rep = VerificationReport("all", [
        _check(),
        Check("c-2", "broken thing", "fail", 2, 3, 1.0),
    ])
    text = render_text(rep)
    assert "overall=fail" in text
    assert "[fail] c-2" in text
    assert "observed: 2" in text


def test_render_text_aligns_descriptions():
    ids = ("c-1", "fx-conjugation-relations", "pl-root-cycle-gammaPlus")
    rep = VerificationReport("all", [
        _check(check_id, description=f"about {check_id}") for check_id in ids
    ])
    rows = [row for row in render_text(rep).splitlines() if row.startswith("  [")]
    assert len(rows) == len(ids)
    assert len({row.index(f"about {check_id}")
                for row, check_id in zip(rows, ids)}) == 1


def test_render_csv_quotes_commas():
    rep = VerificationReport("all", [
        Check("c-1", "has, comma", "pass", {"a": 1}, {"a": 1}, 0.4),
    ])
    lines = render_csv(rep).splitlines()
    assert lines[0].startswith("id,")
    assert '"has, comma"' in lines[1]


def test_render_rejects_a_report_that_breaks_the_schema():
    rep = VerificationReport("all", [_check(status="maybe")])
    for render in (render_json, render_text, render_csv):
        with pytest.raises(ValueError, match=r"\$\.checks\[0\]\.status"):
            render(rep)


def test_json_renderers_refuse_nan_and_infinity():
    # the schema admits them, but a strict JSON parser does not
    rep = VerificationReport("all", [Check("c", "d", "pass", math.nan, math.inf,
                                           math.nan)])
    for render in (render_json, render_csv):
        with pytest.raises(ValueError):
            render(rep)


def _document(report: VerificationReport) -> dict:
    """The document to_dict builds, without its checks: jsonschema's input."""
    return {"schemaVersion": SCHEMA_VERSION, "scope": report.scope,
            "overall": report.overall,
            "checks": [c.to_dict() for c in report.checks]}


_NOT_TEXT = st.sampled_from((None, 0, 1.5, True, b"x", ["x"]))
# a flawed field is drawn from values the schema admits and values it refuses
_FLAWED = {
    "scope": st.one_of(st.sampled_from(SCOPES),
                       st.sampled_from(("everything", "", "ALL")), _NOT_TEXT),
    "id": st.one_of(st.just("valid"), st.just(""), _NOT_TEXT),
    "description": st.one_of(st.text(max_size=3), _NOT_TEXT),
    "status": st.one_of(st.sampled_from(("pass", "fail")),
                        st.sampled_from(("skipped", "PASS", "")), _NOT_TEXT),
    "runtime": st.one_of(
        st.floats(), st.integers(-3, 10**6),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.sampled_from((-1e-9, -1e-3, 0, True, False, math.nan, math.inf,
                         np.float64(math.nan), np.float32(2.5), np.int64(-1)))),
}


@st.composite
def _report(draw) -> VerificationReport:
    """A report built by the constructors, with up to two flawed fields."""
    n = draw(st.integers(0, 3))
    flawed = draw(st.sets(st.sampled_from(
        [("scope", None)] + [(key, k) for key in _FLAWED if key != "scope"
                             for k in range(n)]), max_size=2))

    def value(key, k, valid):
        return draw(_FLAWED[key]) if (key, k) in flawed else valid

    scope = value("scope", None, "all")
    checks = []
    for k in range(n):
        # valid ids are distinct, since the schema does not ask for that
        check_id = value("id", k, "valid")
        checks.append(Check(f"c-{k}" if check_id == "valid" else check_id,
                            value("description", k, "a check"),
                            value("status", k, "pass"), k, k,
                            value("runtime", k, 1.5)))
    return VerificationReport(scope, checks)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(report=_report())
def test_to_dict_refuses_what_jsonschema_refuses(report):
    try:
        jsonschema.validate(_document(report), REPORT_SCHEMA)
        valid = True
    except jsonschema.ValidationError:
        valid = False
    if valid:
        report.to_dict()
    else:
        with pytest.raises(ValueError, match=r"^report breaks its schema at \$"):
            report.to_dict()
