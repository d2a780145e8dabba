"""Scenario files: a sectioned plain-text description of one setup.

A scenario collects a chart, an optional frame with anchor and
structure functions, named coordinate maps and matrices, an optional
control system with input signals, and the parameters for simulation
and Lagrange runs.  The format is line oriented:

    # comment
    [chart]
    coords = x1, x2

    [anchor]
    rho = [1, 0]
          [x1, 1]

Matrices are bracketed rows; rows after the first stand on their own
lines.  Scalar values are expressions in the documented grammar, lists
are comma separated.  See the README for the full grammar.

Everything is validated while loading: dimensions must match the
declarations and coordinate maps must pass their round-trip check, so
a Scenario that loads is ready to use.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction

from ._record import Record
from .algebroid import AlgebroidModel
from .bundle import Bundle, Chart, GeometryError, make_coord_map
from .control import ControlSystem, ELProblem, RegularityError, step_count
from .matcalc import FMatrix
from .symexpr import MAX_DIGITS, ExprError, ParseError, parse as parse_expr

__all__ = ["Scenario", "ScenarioError", "load_scenario"]

BUNDLED_SCENARIO = os.path.join(os.path.dirname(__file__), "scenarios", "worked_example.scn")

_PLAIN_SECTIONS = {
    "chart",
    "frame",
    "anchor",
    "structure",
    "control",
    "controls",
    "simulate",
    "euler_lagrange",
    "random",
}

_HEADER_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)( +[A-Za-z_][A-Za-z0-9_]*)?\]$")


class ScenarioError(Exception):
    """A scenario file that cannot be loaded; names the offending block."""


class SimulateSpec(Record):
    _fields = ("x0", "horizon", "dt")


class Scenario(Record):
    """A loaded and validated scenario."""

    _fields = (
        "chart", "bundle", "model", "maps", "matrices", "control", "controls",
        "simulate", "el", "seed", "samples",
    )


def _is_header(stripped):
    m = _HEADER_RE.match(stripped)
    if not m:
        return None
    head, arg = m.group(1), m.group(2)
    if arg is None:
        return (head, None) if head in _PLAIN_SECTIONS else None
    return (head, arg.strip()) if head in ("map", "matrix") else None


def _split_blocks(lines):
    """Group the file into blocks of (key, values, line, col) entries.

    A value is a list of (text, line, col) pieces: one piece for a
    scalar, one per bracketed row for a matrix.
    """
    blocks = []
    current = None
    open_rows = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        header = _is_header(stripped)
        if header is not None:
            current = {"header": header, "line": lineno, "entries": []}
            blocks.append(current)
            open_rows = None
            continue
        if stripped.startswith("[") and open_rows is not None:
            open_rows.append((stripped, lineno, raw.index("[") + 1))
            continue
        if "=" not in stripped:
            raise ScenarioError(
                "line %d: expected 'key = value' or a [section] header" % lineno
            )
        if current is None:
            raise ScenarioError(
                "line %d: content before the first [section] header" % lineno
            )
        key, _, value = raw.partition("=")
        col = len(key) + 2
        key = key.strip()
        value = value.strip()
        pieces = [(value, lineno, col)]
        current["entries"].append((key, pieces))
        open_rows = pieces if value.startswith("[") else None
    return blocks


class _Loader:
    def __init__(self, path):
        self.path = path
        with open(path, "rb") as f:
            data = f.read()
        try:
            lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as err:
            line = data.count(b"\n", 0, err.start) + 1
            raise ScenarioError("line %d: not UTF-8 text" % line) from None
        self.blocks = _split_blocks(lines)
        self.chart = None
        self.bundle = None
        self.anchor = None
        self.structure = {}
        self.maps = {}
        self.matrices = {}
        self.control = None
        self.controls = None
        self.simulate = None
        self.seed = 0
        self.samples = 20

    def fail(self, block, lineno, message):
        raise ScenarioError("line %d, [%s]: %s" % (lineno, block, message))

    def expr(self, block, piece, names):
        text, lineno, col = piece
        try:
            return parse_expr(text, names)
        except ParseError as err:
            self.fail(
                block,
                lineno,
                "column %d: %s" % (col + err.position, err),
            )
        except ExprError as err:
            self.fail(block, lineno, str(err))

    def number(self, block, piece):
        text, lineno, _ = piece
        try:
            # Fraction builds 10**exponent, so a huge one is refused first.
            exponent = text.upper().partition("E")[2]
            if exponent and abs(int(exponent)) > MAX_DIGITS:
                self.fail(block, lineno, "%r has an exponent beyond %d" % (text, MAX_DIGITS))
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            self.fail(block, lineno, "%r is not a rational number" % text)

    def whole(self, block, piece, least=None):
        value = self.number(block, piece)
        if value.denominator != 1 or (least is not None and value < least):
            kind = "a whole number" if least is None else "a whole number >= %d" % least
            self.fail(block, piece[1], "%r is not %s" % (piece[0], kind))
        return int(value)

    def steps(self, block, block_line, data):
        """horizon and dt of a block, checked by control.step_count."""
        horizon = self.number(block, data["horizon"][0])
        dt = self.number(block, data["dt"][0])
        try:
            step_count(horizon, dt)
        except ValueError as err:
            self.fail(block, block_line, str(err))
        return horizon, dt

    def names(self, pieces):
        return tuple(part.strip() for part in pieces[0][0].split(","))

    def numbers(self, block, pieces):
        """An initial state: comma-separated rationals within float range."""
        text, lineno, col = pieces[0]
        values = []
        for part in text.split(","):
            value = self.number(block, (part.strip(), lineno, col))
            if abs(value) > sys.float_info.max:
                self.fail(block, lineno, "%r is beyond float range" % part.strip())
            values.append(value)
        return tuple(values)

    def matrix(self, block, pieces, names):
        rows = []
        for text, lineno, col in pieces:
            if not (text.startswith("[") and text.endswith("]")):
                self.fail(block, lineno, "matrix rows must be bracketed, got %r" % text)
            inner = text[1:-1]
            row = []
            offset = col + 1
            for part in inner.split(","):
                lead = len(part) - len(part.lstrip())
                row.append(self.expr(block, (part.strip(), lineno, offset + lead), names))
                offset += len(part) + 1
            rows.append(row)
        if any(len(r) != len(rows[0]) for r in rows):
            self.fail(block, pieces[0][1], "matrix rows have unequal lengths")
        return FMatrix(rows)

    def entries_of(self, block):
        found = [b for b in self.blocks if b["header"] == (block, None)]
        if not found:
            return None
        if len(found) > 1:
            self.fail(block, found[1]["line"], "section appears twice")
        return found[0]

    def as_dict(self, block_obj, block_name, required=(), optional=()):
        out = {}
        for key, pieces in block_obj["entries"]:
            if key in out:
                self.fail(block_name, pieces[0][1], "duplicate key %r" % key)
            out[key] = pieces
        for key in required:
            if key not in out:
                self.fail(block_name, block_obj["line"], "missing key %r" % key)
        allowed = set(required) | set(optional)
        if allowed:
            for key in out:
                if key not in allowed:
                    self.fail(block_name, block_obj["line"], "unknown key %r" % key)
        return out

    def load(self):
        block = self.entries_of("chart")
        if block is None:
            raise ScenarioError("scenario needs a [chart] section")
        data = self.as_dict(block, "chart", required=("coords",), optional=("name",))
        name = data["name"][0][0] if "name" in data else "chart"
        coords = self.names(data["coords"])
        try:
            self.chart = Chart(name, coords)
        except GeometryError as err:
            self.fail("chart", block["line"], str(err))

        block = self.entries_of("frame")
        if block is not None:
            data = self.as_dict(block, "frame", required=("sections",))
            try:
                self.bundle = Bundle(self.chart, self.names(data["sections"]))
            except GeometryError as err:
                self.fail("frame", block["line"], str(err))

        block = self.entries_of("anchor")
        if block is not None:
            if self.bundle is None:
                self.fail("anchor", block["line"], "needs a [frame] section first")
            data = self.as_dict(block, "anchor", required=("rho",))
            m = self.matrix("anchor", data["rho"], self.chart.coords)
            if m.shape() != (self.bundle.rank, self.chart.dim):
                self.fail(
                    "anchor",
                    block["line"],
                    "rho must be %dx%d (frame rows, coordinate columns), got %dx%d"
                    % ((self.bundle.rank, self.chart.dim) + m.shape()),
                )
            self.anchor = m

        block = self.entries_of("structure")
        if block is not None:
            if self.anchor is None:
                self.fail("structure", block["line"], "needs an [anchor] section first")
            for key, pieces in block["entries"]:
                m = re.fullmatch(r"C\[(\d+),(\d+),(\d+)\]", key.replace(" ", ""))
                if not m:
                    self.fail(
                        "structure",
                        pieces[0][1],
                        "keys look like C[gamma,alpha,beta], got %r" % key,
                    )
                idx = tuple(int(g) for g in m.groups())
                self.structure[idx] = self.expr("structure", pieces[0], self.chart.coords)

        for b in self.blocks:
            head, arg = b["header"]
            if head == "map":
                self.load_map(arg, b)
            elif head == "matrix":
                self.load_matrix(arg, b)

        model = None
        if self.anchor is not None:
            try:
                model = AlgebroidModel.from_table(
                    self.bundle,
                    self.anchor,
                    self.structure,
                    h=self.maps.get("h"),
                    eta=self.maps.get("eta"),
                )
            except GeometryError as err:
                raise ScenarioError("[structure]: %s" % err) from None

        self.load_control()
        self.load_simulate()
        el = self.load_el(model)
        self.load_random()

        return Scenario(
            chart=self.chart,
            bundle=self.bundle,
            model=model,
            maps=dict(self.maps),
            matrices=dict(self.matrices),
            control=self.control,
            controls=self.controls,
            simulate=self.simulate,
            el=el,
            seed=self.seed,
            samples=self.samples,
        )

    def load_map(self, name, block):
        label = "map %s" % name
        if name in self.maps:
            self.fail(label, block["line"], "map declared twice")
        data = self.as_dict(block, label, required=("forward", "inverse"))
        fwd, inv = (
            [
                self.expr(label, (part.strip(),) + data[key][0][1:], self.chart.coords)
                for part in data[key][0][0].split(",")
            ]
            for key in ("forward", "inverse")
        )
        try:
            self.maps[name] = make_coord_map(self.chart, self.chart, fwd, inv)
        except GeometryError as err:
            self.fail(label, block["line"], str(err))

    def load_matrix(self, name, block):
        label = "matrix %s" % name
        if name in self.matrices:
            self.fail(label, block["line"], "matrix declared twice")
        data = self.as_dict(block, label, required=("rows",))
        self.matrices[name] = self.matrix(label, data["rows"], self.chart.coords)

    def load_control(self):
        block = self.entries_of("control")
        if block is None:
            return
        data = self.as_dict(
            block, "control", required=("M", "inputs", "lagrangian")
        )
        inputs = self.names(data["inputs"])
        m = self.matrix("control", data["M"], self.chart.coords)
        lag = self.expr("control", data["lagrangian"][0], self.chart.coords + inputs)
        try:
            self.control = ControlSystem(self.chart, m, inputs, lag)
        except GeometryError as err:
            self.fail("control", block["line"], str(err))

        cblock = self.entries_of("controls")
        if cblock is None:
            return
        signals = {}
        for key, pieces in cblock["entries"]:
            if key not in inputs:
                self.fail("controls", pieces[0][1], "%r is not a declared input" % key)
            signals[key] = self.expr("controls", pieces[0], ("t",))
        missing = [name for name in inputs if name not in signals]
        if missing:
            self.fail("controls", cblock["line"], "missing signals for %s" % missing)
        self.controls = signals

    def load_simulate(self):
        block = self.entries_of("simulate")
        if block is None:
            return
        if self.control is None:
            self.fail("simulate", block["line"], "needs a [control] section first")
        data = self.as_dict(block, "simulate", required=("x0", "horizon", "dt"))
        x0 = self.numbers("simulate", data["x0"])
        if len(x0) != self.chart.dim:
            self.fail("simulate", block["line"], "x0 needs %d entries" % self.chart.dim)
        horizon, dt = self.steps("simulate", block["line"], data)
        self.simulate = SimulateSpec(x0, horizon, dt)

    def load_el(self, model):
        block = self.entries_of("euler_lagrange")
        if block is None:
            return None
        if model is None:
            self.fail(
                "euler_lagrange", block["line"], "needs frame, anchor and structure"
            )
        data = self.as_dict(
            block,
            "euler_lagrange",
            required=("lagrangian", "velocities", "x0", "z0", "horizon", "dt"),
        )
        velocities = self.names(data["velocities"])
        lag = self.expr(
            "euler_lagrange", data["lagrangian"][0], self.chart.coords + velocities
        )
        x0 = self.numbers("euler_lagrange", data["x0"])
        z0 = self.numbers("euler_lagrange", data["z0"])
        horizon, dt = self.steps("euler_lagrange", block["line"], data)
        try:
            return ELProblem(model, lag, velocities, x0, z0, horizon, dt)
        except (GeometryError, RegularityError) as err:
            self.fail("euler_lagrange", block["line"], str(err))

    def load_random(self):
        block = self.entries_of("random")
        if block is None:
            return
        data = self.as_dict(block, "random", required=(), optional=("seed", "samples"))
        if "seed" in data:
            self.seed = self.whole("random", data["seed"][0])
        if "samples" in data:
            self.samples = self.whole("random", data["samples"][0], least=1)


def load_scenario(path):
    """Load and validate a scenario file."""
    return _Loader(path).load()
