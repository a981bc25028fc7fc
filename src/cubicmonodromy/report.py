"""Verification report plumbing: typed checks, JSON schema, renderers."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schemaVersion", "scope", "overall", "checks"],
    "additionalProperties": False,
    "properties": {
        "schemaVersion": {"const": SCHEMA_VERSION},
        "scope": {"enum": ["fixtures", "pipeline", "all"]},
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
                    "status": {"enum": ["pass", "fail", "skipped"]},
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
            "runtimeMs": round(self.runtime_ms, 3),
        }


@dataclass(frozen=True)
class VerificationReport:
    scope: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> str:
        statuses = [c.status for c in self.checks if c.status != "skipped"]
        return "pass" if statuses and all(s == "pass" for s in statuses) else "fail"

    def to_dict(self) -> dict:
        ids = [c.check_id for c in self.checks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate check ids in report")
        return {
            "schemaVersion": SCHEMA_VERSION,
            "scope": self.scope,
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.checks],
        }

    def validated_dict(self) -> dict:
        import jsonschema  # deferred: only report rendering needs it
        payload = self.to_dict()
        jsonschema.validate(payload, REPORT_SCHEMA)
        return payload


def render_json(report: VerificationReport) -> str:
    return json.dumps(report.validated_dict(), indent=2)


def render_text(report: VerificationReport) -> str:
    payload = report.validated_dict()
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
    payload = report.validated_dict()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "description", "status", "observed", "expected",
                     "runtime_ms"])
    for c in payload["checks"]:
        writer.writerow([c["id"], c["description"], c["status"],
                         json.dumps(c["observed"]), json.dumps(c["expected"]),
                         c["runtimeMs"]])
    return buf.getvalue()
