"""Run the benchmark over several workloads and seeds into one result set.

    python3 perfbench/sweep.py --out results.jsonl --seeds 1-10
    python3 perfbench/sweep.py --out traced.jsonl --seeds 1-2 --trace 1

Every workload of BENCHMARK.json runs for its `run_seconds`, so result
sets taken at different times can be compared.  Each line of the output
file is one run: workload, seed, trace flag and the JSON object that
`run.py` printed.  Seeds are the outer loop, so slow spells of a shared
machine spread over all workloads.  Read the
file with `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    spec = json.loads(BENCH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run workloads x seeds into a result set.")
    parser.add_argument("--out", required=True, help="JSON-lines file to append to")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(args.out, "a") as sink:
        for seed in args.seeds:
            for workload in names:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                ]
                start = time.monotonic()
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                wall = time.monotonic() - start
                if done.returncode != 0:
                    print("%s seed %d exited %d:\n%s" % (workload, seed, done.returncode,
                          done.stderr[-2000:]), file=sys.stderr)
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                line = {"workload": workload, "seed": seed, "trace": args.trace,
                        "wall_s": wall, "result": result}
                sink.write(json.dumps(line) + "\n")
                sink.flush()
                print("%-16s seed %-3d %5.1fs  attempted %d failed %d correct %s" % (
                    workload, seed, wall, result["attempted"], result["failed"],
                    result["correct"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
