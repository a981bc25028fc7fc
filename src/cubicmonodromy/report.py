"""Verification report plumbing: typed checks, JSON schema, renderers.

REPORT_SCHEMA is the published contract of the JSON report.  The document is
built in one place, `VerificationReport.to_dict`, which fixes every key and
type but six values and checks those six there, so every renderer emits only
documents that match the schema; a report that would break it raises
ValueError naming the JSON path.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass, field
from typing import Any

SCHEMA_VERSION = 1
# the check families a report can cover, as verify --scope names them
SCOPES = ("fixtures", "pipeline", "all")

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schemaVersion", "scope", "overall", "checks"],
    "additionalProperties": False,
    "properties": {
        "schemaVersion": {"const": SCHEMA_VERSION},
        "scope": {"enum": list(SCOPES)},
        "overall": {"enum": ["pass", "fail"]},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "description", "status", "observed",
                             "expected", "runtimeMs"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "description": {"type": "string", "minLength": 1},
                    "status": {"enum": ["pass", "fail"]},
                    "observed": {},
                    "expected": {},
                    "runtimeMs": {"type": "number", "minimum": 0},
                },
            },
        },
    },
}


def jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and containers into plain JSON values."""
    if hasattr(value, "tolist"):
        # numpy scalars satisfy this too; their tolist may still be complex
        return jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class Check:
    check_id: str
    description: str
    status: str
    observed: Any
    expected: Any
    runtime_ms: float

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "description": self.description,
            "status": self.status,
            "observed": jsonable(self.observed),
            "expected": jsonable(self.expected),
            "runtimeMs": round(jsonable(self.runtime_ms), 3),
        }


@dataclass(frozen=True)
class VerificationReport:
    scope: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> str:
        ok = self.checks and all(c.status == "pass" for c in self.checks)
        return "pass" if ok else "fail"

    def to_dict(self) -> dict:
        """The report as a REPORT_SCHEMA document, or ValueError naming the path.

        Keys, schemaVersion and overall are fixed here and jsonable makes
        observed and expected JSON, so six values are left to check.
        """
        def fail(path: str, why: str) -> None:
            raise ValueError(f"report breaks its schema at {path}: {why}")

        if self.scope not in SCOPES:
            fail("$.scope", f"{self.scope!r} is not one of {list(SCOPES)!r}")
        if not self.checks:
            fail("$.checks", "fewer than 1 items")
        checks = [c.to_dict() for c in self.checks]
        for k, c in enumerate(checks):
            for key in ("id", "description"):
                if not (isinstance(c[key], str) and c[key]):
                    fail(f"$.checks[{k}].{key}", f"{c[key]!r} is not a non-empty string")
            if c["status"] not in ("pass", "fail"):
                fail(f"$.checks[{k}].status", f"{c['status']!r} is not 'pass' or 'fail'")
            # round has made a bool an int; as for the schema's minimum, NaN
            # is not below 0
            ms = c["runtimeMs"]
            if not isinstance(ms, numbers.Number) or ms < 0:
                fail(f"$.checks[{k}].runtimeMs", f"{ms!r} is not a number of at least 0")
        if len({c["id"] for c in checks}) != len(checks):
            raise ValueError("duplicate check ids in report")
        return {
            "schemaVersion": SCHEMA_VERSION,
            "scope": self.scope,
            "overall": self.overall,
            "checks": checks,
        }


def render_json(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, allow_nan=False)


def render_text(report: VerificationReport) -> str:
    payload = report.to_dict()
    lines = [f"verification scope={payload['scope']} overall={payload['overall']}"]
    width = max(len(c["id"]) for c in payload["checks"])
    for c in payload["checks"]:
        lines.append(f"  [{c['status']:>4}] {c['id']:<{width}} {c['description']} "
                     f"({c['runtimeMs']:.0f} ms)")
        if c["status"] == "fail":
            lines.append(f"         observed: {c['observed']}")
            lines.append(f"         expected: {c['expected']}")
    return "\n".join(lines)


def render_csv(report: VerificationReport) -> str:
    payload = report.to_dict()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "description", "status", "observed", "expected",
                     "runtime_ms"])
    for c in payload["checks"]:
        writer.writerow([c["id"], c["description"], c["status"],
                         json.dumps(c["observed"], allow_nan=False),
                         json.dumps(c["expected"], allow_nan=False),
                         c["runtimeMs"]])
    return buf.getvalue()
