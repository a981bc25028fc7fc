"""Verification report plumbing: typed checks, JSON schema, renderers.

Every renderer validates the report against REPORT_SCHEMA first, with the
in-package `validate`: it implements the draft-07 meaning of exactly the
keywords the schema uses, so rendering needs no schema library.  A report
that breaks the schema raises ValueError naming the JSON path.
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


_TYPES = {"object": dict, "array": list, "string": str, "number": numbers.Number}
_KEYWORDS = {"$schema", "type", "required", "properties", "additionalProperties",
             "items", "const", "enum", "minItems", "minLength", "minimum"}


def _is(value: Any, kind: str) -> bool:
    # JSON has no bool among its numbers, though Python's bool is an int
    return isinstance(value, _TYPES[kind]) and not (
        kind == "number" and isinstance(value, bool))


def _same(value: Any, const: Any) -> bool:
    """JSON equality of a value and a scalar schema constant: True is not 1."""
    return value == const and isinstance(value, bool) == isinstance(const, bool)


def validate(value: Any, schema: dict, path: str = "$") -> None:
    """Raise ValueError, naming the JSON path, unless value matches schema.

    Draft-07 meaning for the keywords in _KEYWORDS, the ones REPORT_SCHEMA
    uses (`additionalProperties` only as false; `const` and `enum` only with
    scalars); a schema with any other keyword is refused.
    """
    def fail(why: str) -> None:
        raise ValueError(f"report breaks its schema at {path}: {why}")

    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not supported")
    if "type" in schema and not _is(value, schema["type"]):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "const" in schema and not _same(value, schema["const"]):
        fail(f"{schema['const']!r} was expected, not {value!r}")
    if "enum" in schema and not any(_same(value, c) for c in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _is(value, "string") and len(value) < schema.get("minLength", 0):
        fail(f"{value!r} is shorter than {schema['minLength']}")
    if _is(value, "number") and "minimum" in schema and value < schema["minimum"]:
        fail(f"{value!r} is less than {schema['minimum']!r}")
    if _is(value, "array"):
        if len(value) < schema.get("minItems", 0):
            fail(f"fewer than {schema['minItems']} items")
        if "items" in schema:
            for k, item in enumerate(value):
                validate(item, schema["items"], f"{path}[{k}]")
    if _is(value, "object"):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            fail(f"missing required {missing}")
        props = schema.get("properties", {})
        extra = [key for key in value if key not in props]
        if schema.get("additionalProperties", True) is False and extra:
            fail(f"unexpected {extra}")
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}")


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
        ok = self.checks and all(c.status == "pass" for c in self.checks)
        return "pass" if ok else "fail"

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
        payload = self.to_dict()
        validate(payload, REPORT_SCHEMA)
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
