"""Check reports shared by the checkers, the command-line front end and the verifier.

A Report is a flat list of named pass/fail results with witness
strings, renderable as text (one line per check) or as the JSON list
[{"check": name, "pass": bool, "witness": string}, ...].
"""

from __future__ import annotations

from ._record import Record


class CheckResult(Record):
    """One named verdict; a failing one carries its witnesses."""

    _fields = ("check", "passed", "witnesses")

    def __init__(self, check, passed, witnesses=()):
        self._set(check, passed, witnesses)

    @property
    def witness(self):
        """The first three witnesses, joined into one line."""
        return "; ".join(self.witnesses[:3])

    def line(self):
        if self.passed:
            return "PASS %s" % self.check
        return "FAIL %s: %s" % (self.check, self.witness or "no witness")


class Report(Record):
    """A list of CheckResults; unlike them, a Report can be changed."""

    _fields = ("results",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, results=None):
        self.results = [] if results is None else results

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
        import json

        return json.dumps(
            [
                {"check": r.check, "pass": r.passed, "witness": r.witness}
                for r in self.results
            ],
            indent=2,
        )
