"""Check reports shared by the checkers, the command-line front end and the verifier.

A Report is a flat list of named pass/fail results with witness
strings, renderable as text (one line per check) or as the JSON list
[{"check": name, "pass": bool, "witness": string}, ...].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """One named verdict; a failing one carries its witnesses."""

    check: str
    passed: bool
    witnesses: tuple = ()

    @property
    def witness(self):
        """The first three witnesses, joined into one line."""
        return "; ".join(self.witnesses[:3])

    def line(self):
        if self.passed:
            return "PASS %s" % self.check
        return "FAIL %s: %s" % (self.check, self.witness or "no witness")


@dataclass
class Report:
    results: list = field(default_factory=list)

    def add(self, check, passed, witness=""):
        witnesses = (witness,) if witness else ()
        self.results.append(CheckResult(check, bool(passed), witnesses))

    def item(self, check):
        """The result of the named check."""
        for r in self.results:
            if r.check == check:
                return r
        raise KeyError(check)

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def text(self):
        lines = [r.line() for r in self.results]
        lines.append(
            "%d/%d checks passed"
            % (sum(r.passed for r in self.results), len(self.results))
        )
        return "\n".join(lines)

    def json(self):
        return json.dumps(
            [
                {"check": r.check, "pass": r.passed, "witness": r.witness}
                for r in self.results
            ],
            indent=2,
        )
