"""Report assembly, JSON schema, and the three renderers."""

import json

import jsonschema
import numpy as np
import pytest

from cubicmonodromy.report import (REPORT_SCHEMA, SCHEMA_VERSION, Check,
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


def test_overall_logic():
    ok = VerificationReport("all", [_check()])
    assert ok.overall == "pass"
    mixed = VerificationReport("all", [_check(), _check("c-2", "fail")])
    assert mixed.overall == "fail"
    skipped = VerificationReport("all", [_check(), _check("c-2", "skipped")])
    assert skipped.overall == "pass"
    # no decidable checks means nothing was verified
    assert VerificationReport("all", []).overall == "fail"
    only_skips = VerificationReport("all", [_check(status="skipped")])
    assert only_skips.overall == "fail"


def test_duplicate_ids_rejected():
    rep = VerificationReport("all", [_check(), _check()])
    with pytest.raises(ValueError):
        rep.to_dict()


def test_json_roundtrips_schema():
    rep = VerificationReport("fixtures", [
        _check(observed={"n": (1, 2j)}, expected={"n": [1, 2j]}),
        _check("c-2", "skipped"),
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
