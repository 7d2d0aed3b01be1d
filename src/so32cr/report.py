"""Flat check reports with exact-scalar serialization.

The JSON layout is deliberately flat so golden-file diffs localize:
{"command": ..., "status": "pass"|"fail", "checks": [{"name", "expected",
"actual", "pass", "source"}, ...]}.  All scalar payloads are exact text
(never floats), and nothing time-dependent enters the checks array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
