"""Report assembly, JSON schema, and the three renderers."""

import copy
import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmonodromy.report import (REPORT_SCHEMA, SCHEMA_VERSION, Check,
                                   VerificationReport, jsonable, render_csv,
                                   render_json, render_text, validate)
from cubicmonodromy.verify import run_checks


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
        rep.validated_dict()


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


def test_validate_refuses_a_keyword_it_does_not_implement():
    with pytest.raises(ValueError, match="pattern"):
        validate("x", {"type": "string", "pattern": "^x$"})


@pytest.fixture(scope="module")
def real_payload():
    return run_checks("all").to_dict()


_CHECK_KEYS = ("id", "description", "status", "observed", "expected", "runtimeMs")
_TOP_KEYS = ("schemaVersion", "scope", "overall", "checks")
_ANY = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.text(max_size=8), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def _mutation(draw):
    """One edit of a report payload, as a function that applies it in place."""
    k = draw(st.integers(0, 63))  # a check index, taken modulo their number
    kind = draw(st.sampled_from((
        "drop-top", "drop-check", "extra-top", "extra-check", "runtime",
        "empty-checks", "empty-text", "status", "scope", "version",
        "non-object-check")))
    if kind == "drop-top":
        key = draw(st.sampled_from(_TOP_KEYS))
        return lambda d: d.pop(key, None)
    if kind == "drop-check":
        key = draw(st.sampled_from(_CHECK_KEYS))
        return lambda d: d["checks"][k % len(d["checks"])].pop(key, None)
    if kind in ("extra-top", "extra-check"):
        key, value = draw(st.text(max_size=12)), draw(_ANY)
        if kind == "extra-top":
            return lambda d: d.__setitem__(key, value)
        return lambda d: d["checks"][k % len(d["checks"])].__setitem__(key, value)
    if kind == "empty-checks":
        return lambda d: d.__setitem__("checks", [])
    if kind == "non-object-check":
        value = draw(_ANY)
        return lambda d: d["checks"].__setitem__(k % len(d["checks"]), value)
    key, value = {
        # each edit is as likely to keep the payload valid as to break it
        "runtime": ("runtimeMs", st.one_of(
            st.floats(0), st.integers(0), st.just(-1e-9), st.booleans(),
            st.text(max_size=4), st.floats(max_value=-1e-300))),
        "empty-text": (draw(st.sampled_from(("id", "description"))),
                       st.sampled_from(("", "x"))),
        "status": ("status", st.one_of(
            st.sampled_from(("pass", "fail")),
            st.sampled_from(("skipped", "maybe", "PASS")), _ANY)),
        "scope": ("scope", st.one_of(
            st.sampled_from(("fixtures", "pipeline", "all")),
            st.sampled_from(("everything", "")), _ANY)),
        "version": ("schemaVersion", st.one_of(
            st.sampled_from((SCHEMA_VERSION, 1.0)),
            st.sampled_from((True, 2, 0, "1", None, [1])))),
    }[kind]
    value = draw(value)
    if kind in ("scope", "version"):
        return lambda d: d.__setitem__(key, value)
    return lambda d: d["checks"][k % len(d["checks"])].__setitem__(key, value)


def _raises(validator, payload, error) -> bool:
    try:
        validator(payload, REPORT_SCHEMA)
    except error:
        return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(_mutation(), max_size=2))
def test_validate_agrees_with_jsonschema(real_payload, edits):
    payload = copy.deepcopy(real_payload)
    for edit in edits:
        if payload.get("checks"):  # edits address a check by index
            edit(payload)
    ours = _raises(validate, payload, ValueError)
    assert ours == _raises(jsonschema.validate, payload, jsonschema.ValidationError)
    if not edits:
        assert not ours
