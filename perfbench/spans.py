"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` wraps every public function of the layer modules, in
its defining module and in every `algebroids` module that bound it by
name (`cli` imports most of them with `from ... import`), plus the Expr
arithmetic operators, `Expr.diff`, `Expr.subs` and
`Trajectory.write_csv` on their classes.  Wrappers record nothing
unless `active` is set, so the checkers can call the same functions
untraced.

For each span name the tracer keeps calls, total time (outermost spans
of that name only, so recursion is not counted twice) and self time
(the span's duration minus the time covered by nested wrapped calls).
Every span is also kept in memory (name, parent, start, end) and
written out at the end by `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("scenario", "symexpr", "matcalc", "bundle", "algebroid", "control", "cli")

_ARITH = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "__neg__",
)

# Public functions whose span name is not "<module>.<function>".
_RENAMED = {"cli.run": "cli", "scenario.load_scenario": "scenario.load"}


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}  # span name -> [calls, total_s, self_s, open spans]
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]

    def wrap(self, name, fn):
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0, 0]
            self.names.append(name)
        stat = self.stats[name]
        name_id = self.names.index(name)
        stack = self._stack
        clock = time.perf_counter
        ids, parents, starts, ends = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            stat[0] += 1
            stat[3] += 1
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                stat[2] += duration - frame[1]
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += duration
                if stack:
                    stack[-1][1] += duration

        return traced

    def install(self):
        """Wrap the layer functions everywhere they are bound by name."""
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "algebroids"]
        for layer in LAYERS:
            module = sys.modules["algebroids." + layer]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                full = "%s.%s" % (layer, attr)
                wrapped = self.wrap(_RENAMED.get(full, full), fn)
                for other in package:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapped)
        expr = sys.modules["algebroids.symexpr"].Expr
        for attr in _ARITH:
            setattr(expr, attr, self.wrap("symexpr.arith", getattr(expr, attr)))
        expr.diff = self.wrap("symexpr.diff", expr.diff)
        expr.subs = self.wrap("symexpr.subs", expr.subs)
        traj = sys.modules["algebroids.control"].Trajectory
        traj.write_csv = self.wrap("control.write_csv", traj.write_csv)

    def metrics(self, names, speed=1.0):
        """{name.calls, name.total_s, name.self_s} for each span name asked for.

        Times are multiplied by `speed`, the run's factor to the
        reference speed.
        """
        out = {}
        for name in names:
            calls, total, self_s, _ = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[name + ".calls"] = (calls, "count")
            out[name + ".total_s"] = (total * speed, "s")
            out[name + ".self_s"] = (self_s * speed, "s")
        return out

    def dump(self, path):
        """Write the spans: a JSON header, then the four arrays back to back."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)
