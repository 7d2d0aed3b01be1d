"""Flat check reports with exact-scalar serialization.

The JSON layout is deliberately flat so golden-file diffs localize:
{"command": ..., "status": "pass"|"fail", "checks": [{"name", "expected",
"actual", "pass", "source"}, ...]}.  All scalar payloads are exact text
(never floats), and nothing time-dependent enters the checks array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .scalars import GQ
from .cochains import Cochain
from . import so32


@dataclass(frozen=True)
class Check:
    name: str
    expected: str
    actual: str
    ok: bool
    source: str

    def to_dict(self):
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.ok,
            "source": self.source,
        }


@dataclass
class Report:
    command: str
    checks: list = field(default_factory=list)

    def add(self, name, expected, actual, source, ok=None):
        expected = str(expected)
        actual = str(actual)
        if ok is None:
            ok = expected == actual
        self.checks.append(Check(name, expected, actual, bool(ok), source))
        return ok

    @property
    def status(self) -> str:
        return "pass" if all(c.ok for c in self.checks) else "fail"

    def to_dict(self):
        return {
            "command": self.command,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"[{self.status}] {self.command}"]
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"  {mark} {c.name}: expected {c.expected}, got {c.actual}")
        return "\n".join(lines)


# -- c-torsion JSON round trip -------------------------------------------------

_ARG_LABELS = ("e^-2", "e_1^-1", "e_2^-1")


def ctorsion_to_json(c: Cochain) -> dict:
    terms = []
    for (wedge, beta), coef in sorted(c.coeff_map().items()):
        terms.append(
            {
                "args": [_ARG_LABELS[a] for a in wedge],
                "value": so32.REAL_LABELS[beta],
                "coef": coef.to_str(),
            }
        )
    return {"k": c.k, "terms": terms}


def ctorsion_from_json(data) -> Cochain:
    """Inverse of ctorsion_to_json; input of any other shape raises
    ValueError."""
    if not (
        isinstance(data, dict)
        and isinstance(data.get("k"), int)
        and isinstance(data.get("terms"), list)
        and all(
            isinstance(t, dict)
            and isinstance(t.get("args"), list)
            and isinstance(t.get("value"), str)
            and isinstance(t.get("coef"), str)
            for t in data["terms"]
        )
    ):
        raise ValueError(
            'c-torsion input must be {"k": int, "terms": [{"args": [...], '
            '"value": str, "coef": str}, ...]}'
        )
    k = data["k"]
    table = {}
    for t in data["terms"]:
        wedge = tuple(_ARG_LABELS.index(a) for a in t["args"])
        beta = so32.REAL_LABELS.index(t["value"])
        key = (wedge, beta)
        table[key] = table.get(key, GQ(0)) + GQ.from_str(t["coef"])
    return Cochain.from_full_table(2, k, table)
