"""Summarise one result set, or compare two, against BENCHMARK.json.

    python3 perfbench/compare.py results.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

Result sets are the JSON-lines files `sweep.py` writes.  For each
workload the table gives attempted and failed operations, then for each
metric its unit, the median and quartiles of every set, and the spread
(interquartile range over the median).  Given two sets, each end-to-end
metric gets a verdict by its bound from BENCHMARK.json:

  unresolved  a spread exceeds the bound and the runs overlap
  worse       the second median is worse than the first by more than the bound
  better      the second median is better by more than the first set's spread
  unchanged   otherwise

Per-layer metrics have no bound; they are listed without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                runs.setdefault(run["workload"], []).append(run["result"])
    return runs


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(a, b, metric):
    bound, lower = metric["bound"], metric["better"] == "lower"
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)

    def better(x, y):  # x better than y
        return x < y if lower else x > y

    if max(spread_a, spread_b) > bound:
        if all(better(y, x) for x in a for y in b):
            return "better"
        if all(better(x, y) for x in a for y in b) and _worse_by(med_a, med_b, lower) > bound:
            return "worse"
        return "unresolved"
    change = _worse_by(med_a, med_b, lower)
    if change > bound:
        return "worse"
    if -change > spread_a:
        return "better"
    return "unchanged"


def _worse_by(med_a, med_b, lower):
    change = (med_b - med_a) / med_a
    return change if lower else -change


def fmt(values):
    med, q1, q3, spread = summary(values)
    return "%.6g [%.6g, %.6g] %5.1f%%" % (med, q1, q3, 100 * spread)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCH.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(path) for path in argv]
    for workload in [w["name"] for w in spec["workloads"]]:
        present = [s.get(workload, []) for s in sets]
        if not any(present):
            continue
        counts = "  ".join(
            "set %d: %d runs, %d attempted, %d failed, correct %s"
            % (i + 1, len(runs), sum(r["attempted"] for r in runs),
               sum(r["failed"] for r in runs), all(r["correct"] for r in runs))
            for i, runs in enumerate(present)
        )
        print("%s  (%s)" % (workload, counts))
        names = []
        for runs in present:
            for run in runs:
                names += [n for n in run["metrics"] if n not in names]
        for name in names:
            series = [[r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                      for runs in present]
            unit = next(r["metrics"][name]["unit"] for runs in present for r in runs
                        if name in r["metrics"])
            cells = [fmt(v) if v else "-" for v in series]
            line = "  %-36s %-8s %s" % (name, unit, "   ".join(cells))
            if name in bounded:
                line += "   bound %g%%" % (100 * bounded[name]["bound"])
                if len(series) == 2 and all(series):
                    line += "  " + verdict(series[0], series[1], bounded[name])
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
