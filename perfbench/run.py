"""Run one workload of the benchmark; the last line of stdout is the result.

    python3 perfbench/run.py --workload rational-field --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: the program is imported from
`./src`, scratch files go to `./.perfbench/`.  Each operation is one
`algebroids.cli.run([...])` call on a freshly generated scenario file,
output written through `--out`, run closed loop: one client, one
thread, back to back, whole rounds until `--seconds` of operation time
have passed.  Every output is checked after the timed phase, once the
peak memory of the process has been read.

With `--trace 0` the result carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up is the median of SETUP_LAUNCHES launches, each paired with a
# launch that imports numpy alone; NUMPY_LAUNCH_REF_S is what that
# takes on the reference machine.
SETUP_LAUNCHES = 5
NUMPY_LAUNCH_REF_S = 0.16
# A run stops after the round in which this much wall time has passed,
# so that a program whose operations all fail at once still ends.
WALL_LIMIT_S = 120

# Seconds one untraced round takes on the reference machine (README.md).
# A traced run does round(seconds / ROUND_SECONDS) rounds however fast the
# program is, so its call counts repeat exactly for a given seed.
ROUND_SECONDS = {
    "rational-field": 2.8,
    "polynomial-ring": 2.4,
    "lagrange-flow": 2.8,
    "control-flow": 0.72,
}

# Span names reported by a traced run, each as .calls, .total_s and .self_s.
TRACED = (
    "symexpr.arith",
    "symexpr.subs",
    "symexpr.diff",
    "symexpr.parse",
    "matcalc.left_pseudo_inverse",
    "matcalc.determinant",
    "matcalc.adjugate_inverse",
    "matcalc.matmul",
    "bundle.compose",
    "bundle.apply_morphism",
    "bundle.make_coord_map",
    "bundle.tangent_lift",
    "algebroid.check_axioms",
    "algebroid.bracket",
    "algebroid.anchor_derivation",
    "control.solve_el",
    "control.el_rhs",
    "control.integrate",
    "control.write_csv",
    "scenario.load",
    "cli",
)

TRAJECTORY_COMMANDS = ("simulate", "euler-lagrange")

# The speed of a shared machine drifts by tens of percent over minutes,
# for every program alike.  Each timed interval is therefore bracketed
# by a fixed calibration loop and reported at the reference speed:
# seconds * CALIBRATION_REF_S / (calibration time around it).
# CALIBRATION_REF_S is the loop's usual time on the reference machine.
CALIBRATION_REF_S = 0.0134
CALIBRATION_MATRIX = np.array([[3.0, 1.0, 0.5], [1.0, 4.0, 0.2], [0.5, 0.2, 2.0]])


def calibration_loop():
    """Work of the kinds the program does: dicts, tuples, Fractions, floats.

    Every 20th pass also solves a 3x3 system in numpy, as the flows do
    per step: contention from other tenants slows numpy calls and the
    interpreter by different amounts, and with these solves in the loop
    ten seeds spread less on every workload than with pure Python.
    """
    table = {}
    acc = Fraction(0)
    x = 0.0
    for i in range(3000):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        x = x * 0.5 + (i % 13) ** 2
        if i % 20 == 0:
            x += float(np.linalg.solve(CALIBRATION_MATRIX, np.array([x, 1.0, 2.0]))[0])
    return acc, x


def calibration():
    """Seconds the calibration loop takes now: the best of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return min(times)


def at_reference_speed(seconds, before, after):
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


def measure_setup():
    """Seconds from launching a fresh interpreter until `algebroids.cli` is imported.

    At the reference speed: the numpy-only launch paired with each one
    is the yardstick for how fast this machine starts Python and loads
    extension modules right now.  The first pair, which may compile
    bytecode, is not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def launch(imports):
        code = "import %s, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", code % imports],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(done.stdout.split()[-1]) - start

    ratios = []
    for pair in range(SETUP_LAUNCHES + 1):
        ratio = launch("algebroids.cli") / launch("numpy")
        if pair:
            ratios.append(ratio)
    return statistics.median(ratios) * NUMPY_LAUNCH_REF_S


class Outcome:
    """What the operations of one run did."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # reasons, one per failed operation
        self.wrong = 0  # failures whose output was checked and found wrong
        self.latencies = []  # seconds at reference speed, operations that succeeded
        self.timed = 0.0  # seconds at reference speed inside cli.run, all operations
        self.raw_timed = 0.0  # the same, as the clock read them
        self.peak_rss_mb = 0.0  # at the end of the timed phase, before any check
        self.rk4_steps = 0
        self.rk4_time = 0.0


def run_rounds(cli, checks, gen, workload, seed, seconds, tracer):
    """Time whole rounds of operations, then check every output.

    Scenario and output files are kept until the timed phase is over, so
    no check runs before the peak memory of the process is read.
    """
    bundled = (SRC / "algebroids" / "scenarios" / "worked_example.scn").read_text()
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    outcome = Outcome()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    ran = []  # (op, scenario, out, check seed, seconds at reference speed)
    began = time.monotonic()
    try:
        index = 0
        while True:
            for k, op in enumerate(gen.round_ops(workload, seed, index, bundled)):
                scenario = workdir / ("%d-%d.scn" % (index, k))
                out = workdir / ("%d-%d.out" % (index, k))
                scenario.write_text(op.text)
                argv = [op.command, "--scenario", str(scenario), "--out", str(out), *op.args]
                outcome.attempted += 1
                gc.collect()
                before = calibration()
                status, error = None, None
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    if tracer:
                        tracer.active = True
                    start = time.perf_counter()
                    try:
                        status, _ = cli.run(argv)
                    except Exception as err:  # counted as a failed operation
                        error = "%s raised %r" % (op.label, err)
                    elapsed = time.perf_counter() - start
                    if tracer:
                        tracer.active = False
                outcome.raw_timed += elapsed
                elapsed = at_reference_speed(elapsed, before, calibration())
                outcome.timed += elapsed
                if error is None and status != op.status:
                    error = "%s exited %s, expected %s: %s" % (
                        op.label, status, op.status, sink.getvalue().strip()[-300:])
                if error is None:
                    check_seed = "check:%s:%d:%d:%d" % (workload, seed, index, k)
                    ran.append((op, scenario, out, check_seed, elapsed))
                else:
                    outcome.failures.append(error)
            index += 1
            done = index >= rounds if tracer else outcome.timed >= seconds
            if done or time.monotonic() - began > WALL_LIMIT_S:
                break
        outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for op, scenario, out, check_seed, elapsed in ran:
            problem = checks.check(op, scenario, out, random.Random(check_seed))
            if problem:
                outcome.wrong += 1
                outcome.failures.append("%s: %s" % (op.label, problem))
                continue
            outcome.latencies.append(elapsed)
            if op.command in TRAJECTORY_COMMANDS:
                outcome.rk4_steps += op.expect["steps"]
                outcome.rk4_time += elapsed
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "algebroids" / "cli.py").is_file():
        print("error: no src/algebroids here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    import algebroids.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "algebroids").resolve():
        print("error: imported algebroids from %s, not ./src" % cli.__file__,
              file=sys.stderr)
        return 2
    import checks
    import gen

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    outcome = run_rounds(cli, checks, gen, args.workload, args.seed, args.seconds, tracer)
    for reason in outcome.failures[:5]:
        print("failed: %s" % reason, file=sys.stderr)
    completed = len(outcome.latencies)
    ops_per_s = completed / outcome.timed if outcome.timed else 0.0
    if tracer:
        metrics = tracer.metrics(TRACED, outcome.timed / outcome.raw_timed)
        metrics["control.rk4_steps"] = (outcome.rk4_steps, "count")
        rate = outcome.rk4_steps / outcome.rk4_time if outcome.rk4_time else 0.0
        metrics["rk4_steps_per_s"] = (rate, "steps/s")
        metrics["trace.ops_per_s"] = (ops_per_s, "ops/s")
        tracer.dump(WORK / ("spans-%s-%d.bin" % (args.workload, args.seed)))
    else:
        p50 = statistics.median(outcome.latencies) * 1000 if completed else 0.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_p50_ms": (p50, "ms"),
            "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        }
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
