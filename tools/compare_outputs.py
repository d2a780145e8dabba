"""Compare what the command line prints in two checkouts, case by case.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  Each one runs its
cases in a fresh interpreter of its own, importing `algebroids` from
its own `src/`; a case is one `algebroids.cli.run` call, and the tool
compares its stdout, its stderr, the bytes it wrote to `--out` and its
exit status.  The cases are every subcommand on the bundled scenario;
`check`, `compose`, `pinv` and `simulate` on a twisted copy of it, whose
model has base map h = s_O and so fails `check`; and every operation
that `perfbench/gen.py` generates for the four benchmark workloads at
seeds 1, 2 and 7, rounds 0 and 1.  Each runs as text and with `--json`,
to stdout and to `--out`.  Both sides read the same
scenario files and write the same `--out` path, so a path in a message
is no difference.

Exit status: 0 when every case agrees, 1 when some differ (each one is
named on stdout), 2 on a usage error or when a checkout cannot run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 7)
ROUNDS = (0, 1)
BUNDLED = (
    ("check",),
    ("compose",),
    ("pinv", "--matrix", "R"),
    ("simulate",),
    ("euler-lagrange",),
    ("verify-paper",),
)
TWISTED = (("check",), ("compose",), ("pinv", "--matrix", "R"), ("simulate",))
BUNDLED_FILE = Path("src", "algebroids", "scenarios", "worked_example.scn")

# The child's side: import the checkout's cli and run each case in turn.
_WORKER = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import compare_outputs; compare_outputs.collect(sys.argv[2], sys.argv[3])"
)


def twisted(bundled):
    """The bundled scenario with h = s_O and without its [euler_lagrange] block.

    A twisted model has no Lagrange flow, so the block would stop every
    subcommand at load.
    """
    start = bundled.index("[euler_lagrange]")
    text = bundled[:start] + bundled[bundled.index("\n[", start) + 1 :]
    s_o = bundled[bundled.index("[map s_O]") :].split("\n\n")[0]
    return text + "\n" + s_o.replace("[map s_O]", "[map h]") + "\n"


def cases(parent, workdir):
    """(name, argv) pairs of every case; scenario files go into workdir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    bundled = (Path(parent) / BUNDLED_FILE).read_text(encoding="utf-8")
    commands = [(" ".join(argv), list(argv)) for argv in BUNDLED]
    path = Path(workdir, "twisted.scn")
    path.write_text(twisted(bundled), encoding="utf-8")
    for command, *rest in TWISTED:
        name = " ".join(["twisted", command, *rest])
        commands.append((name, [command, "--scenario", str(path), *rest]))
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            for index in ROUNDS:
                for k, op in enumerate(gen.round_ops(workload, seed, index, bundled)):
                    path = Path(workdir, "%s-%d-%d-%d.scn" % (workload, seed, index, k))
                    path.write_text(op.text, encoding="utf-8")
                    args = [a for a in op.args if a != "--json"]
                    name = "%s seed %d round %d op %d (%s)" % (
                        workload, seed, index, k, op.label)
                    commands.append((name, [op.command, "--scenario", str(path), *args]))
    out = []
    for name, argv in commands:
        for fmt in ([], ["--json"]):
            for dest in ([], ["--out", str(Path(workdir, "out"))]):
                label = " ".join([name] + fmt + dest[:1])
                out.append((label, argv + fmt + dest))
    return out


def collect(checkout, case_file):
    """Run every case of case_file in this process; print their digests as JSON."""
    sys.path.insert(0, str(Path(checkout, "src")))
    import algebroids.cli as cli

    if Path(cli.__file__).resolve().parent != Path(checkout, "src", "algebroids").resolve():
        sys.exit("imported algebroids from %s, not from %s" % (cli.__file__, checkout))
    with open(case_file, encoding="utf-8") as f:
        todo = json.load(f)
    digests = {}
    for name, argv in todo:
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out and os.path.exists(out):
            os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = cli.run(argv)[0]
            except Exception as err:  # a crash is an outcome to compare too
                status = "raised %r" % (err,)
        written = None
        if out and os.path.exists(out):
            with open(out, "rb") as f:
                written = hashlib.sha256(f.read()).hexdigest()
        digests[name] = {
            "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
            "out": written,
            "status": status,
        }
    json.dump(digests, sys.stdout)


def _run_side(checkout, case_file, workdir):
    done = subprocess.run(
        [sys.executable, "-c", _WORKER, str(ROOT / "tools"), str(checkout), str(case_file)],
        cwd=workdir,
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise RuntimeError("%s: %s" % (checkout, done.stderr.strip()[-2000:]))
    return json.loads(done.stdout)


def compare(parent, change, todo, workdir):
    """The (case name, differing parts) of each case whose outputs differ."""
    case_file = Path(workdir, "cases.json")
    case_file.write_text(json.dumps(todo), encoding="utf-8")
    old = _run_side(parent, case_file, workdir)
    new = _run_side(change, case_file, workdir)
    differ = []
    for name, _ in todo:
        parts = [part for part in old[name] if old[name][part] != new[name][part]]
        if parts:
            differ.append((name, parts))
    return differ


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(p, "src", "algebroids").is_dir() for p in argv):
        print("usage: compare_outputs.py PARENT CHANGE (two checkout roots)", file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as workdir:
        todo = cases(parent, workdir)
        try:
            differ = compare(parent, change, todo, workdir)
        except RuntimeError as err:
            print("error: %s" % err, file=sys.stderr)
            return 2
    for name, parts in differ:
        print("differs: %s (%s)" % (name, ", ".join(parts)))
    print("%d of %d cases differ" % (len(differ), len(todo)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
