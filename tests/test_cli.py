"""End-to-end runs of the command-line front end via run()."""

import json
import os
import random
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from algebroids.cli import run


def write_scenario(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


COUNTEREXAMPLE = """\
    [chart]
    coords = xt1, xt2, xt3

    [frame]
    sections = t1, t2, t3

    [anchor]
    rho = [0, 0, 0]
          [0, 0, 0]
          [0, 0, 0]

    [structure]
    C[1,1,2] = 1
    C[2,1,3] = 1
"""

COUNTEREXAMPLE_JACOBI_WITNESS = (
    "cycle on (t1,t2,t3) leaves -t2; cycle on random sections leaves "
    "(-2*xt1*xt2*xt3 - 4*xt2*xt3^2 - 3*xt1*xt2 - 4*xt1*xt3 + 12*xt2*xt3"
    " - 16*xt3^2 - 12*xt1 + 36*xt3 - 6)*t2"
)

PLANE_FLOW = """\
    [chart]
    coords = xt1, xt2

    [frame]
    sections = t1, t2

    [anchor]
    rho = [1, 0]
          [0, 1]

    [euler_lagrange]
    lagrangian = {lagrangian}
    velocities = z1, z2
    x0 = 0, 1
    z0 = 1, 0
    horizon = 1
    dt = 1/10
"""


# ------------------------------------------------------------------- usage


def test_help_exits_zero(capsys):
    assert run(["--help"]) == (0, None)
    assert "usage" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    assert run(["bogus"]) == (2, None)
    assert run([]) == (2, None)


def test_seed_is_only_an_option_of_check(capsys):
    assert run(["verify-paper", "--seed", "3"]) == (2, None)
    assert run(["simulate", "--seed", "3"]) == (2, None)
    assert run(["verify-paper", "--scenario", "x.scn"]) == (2, None)
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_scenario_file_exits_three(capsys):
    status, report = run(["check", "--scenario", "/no/such/file.scn"])
    assert status == 3 and report is None
    assert capsys.readouterr().err.startswith("error:")


# ------------------------------------------------------------ verify-paper


def test_verify_paper_text(capsys):
    status, report = run(["verify-paper"])
    assert status == 0
    assert report.all_passed
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "10/10 checks passed"
    assert sum(line.startswith("PASS ") for line in lines) == 10


def test_verify_paper_json(capsys):
    status, _ = run(["verify-paper", "--json"])
    assert status == 0
    payload = json.loads(capsys.readouterr().out)
    assert [set(entry) for entry in payload] == [{"check", "pass", "witness"}] * 10
    assert all(entry["pass"] for entry in payload)


# ------------------------------------------------------------------- check


def test_check_bundled_model(capsys):
    status, report = run(["check"])
    assert status == 0
    out = capsys.readouterr().out
    assert "PASS antisymmetry" in out
    assert "PASS jacobi" in out
    assert "PASS leibniz" in out
    assert "PASS anchor-morphism" in out
    assert out.splitlines()[-1] == "4/4 checks passed"


def test_check_seed_override(capsys):
    assert run(["check", "--seed", "99"])[0] == 0
    capsys.readouterr()


def test_check_reports_broken_jacobi(tmp_path, capsys):
    path = write_scenario(tmp_path, COUNTEREXAMPLE)
    status, report = run(["check", "--scenario", path])
    assert status == 1
    assert capsys.readouterr().out == (
        "PASS antisymmetry\n"
        "FAIL jacobi: %s\n"
        "PASS leibniz\n"
        "PASS anchor-morphism\n"
        "3/4 checks passed\n" % COUNTEREXAMPLE_JACOBI_WITNESS
    )


def test_check_reports_broken_jacobi_as_json(tmp_path, capsys):
    path = write_scenario(tmp_path, COUNTEREXAMPLE)
    status, _ = run(["check", "--scenario", path, "--json"])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = [
        {"check": "antisymmetry", "pass": True, "witness": ""},
        {"check": "jacobi", "pass": False, "witness": COUNTEREXAMPLE_JACOBI_WITNESS},
        {"check": "leibniz", "pass": True, "witness": ""},
        {"check": "anchor-morphism", "pass": True, "witness": ""},
    ]
    assert captured.out == json.dumps(expected, indent=2) + "\n"


def test_check_needs_a_model(tmp_path, capsys):
    path = write_scenario(tmp_path, "[chart]\ncoords = a\n")
    assert run(["check", "--scenario", path])[0] == 3
    assert "no frame and anchor" in capsys.readouterr().err


def test_check_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    status, _ = run(["check", "--out", str(out_path)])
    assert status == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text().splitlines()[-1] == "4/4 checks passed"


# ----------------------------------------------------------------- compose


def test_compose_bundled_pairs(capsys):
    status, report = run(["compose"])
    assert status == 0
    out = capsys.readouterr().out
    for name in (
        "compose anchor*R",
        "compose T[s_O]*anchor",
        "compose T[s_O]*T[s_O]",
        "compose R*anchor",
        "compose R*T[s_O]",
    ):
        assert "PASS %s" % name in out
    assert out.splitlines()[-1] == "5/5 checks passed"


# -------------------------------------------------------------------- pinv


def test_pinv_prints_matrix_and_verdict(capsys):
    status, report = run(["pinv", "--matrix", "R"])
    assert status == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "[(-xt1)/(xt1^2 + 2), (xt1)/(xt1^2 + 2), (2)/(xt1^2 + 2)]"
    assert (
        lines[1]
        == "[(1)/(xt1^2 + 2), (xt1^2 + 1)/(xt1^2 + 2), (xt1)/(xt1^2 + 2)]"
    )
    assert "PASS left-inverse R" in captured.out
    assert "note: rank may drop where xt1^2 + 2 = 0" in captured.err


def test_pinv_matrix_and_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "pinv.txt"
    status, _ = run(["pinv", "--matrix", "R", "--out", str(out_path)])
    assert status == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "note: rank may drop where xt1^2 + 2 = 0\n"
    assert out_path.read_text() == (
        "[(-xt1)/(xt1^2 + 2), (xt1)/(xt1^2 + 2), (2)/(xt1^2 + 2)]\n"
        "[(1)/(xt1^2 + 2), (xt1^2 + 1)/(xt1^2 + 2), (xt1)/(xt1^2 + 2)]\n"
        "PASS left-inverse R\n"
        "1/1 checks passed\n"
    )


def test_pinv_json_holds_matrix_in_witness(capsys):
    status, _ = run(["pinv", "--matrix", "R", "--json"])
    assert status == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload) == 1
    assert payload[0]["check"] == "left-inverse R"
    assert "(xt1^2 + 2)" in payload[0]["witness"]


def test_pinv_unknown_matrix_name(capsys):
    status, _ = run(["pinv", "--matrix", "Q"])
    assert status == 3
    assert "no matrix named 'Q' (have: R)" in capsys.readouterr().err


def test_pinv_singular_matrix_fails(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        """\
        [chart]
        coords = a, b

        [matrix S]
        rows = [1, 0]
               [2, 0]
        """,
    )
    status, report = run(["pinv", "--scenario", path, "--matrix", "S"])
    assert status == 1
    assert "FAIL left-inverse S: no generic left inverse" in capsys.readouterr().out


# ------------------------------------------------------------ trajectories


def test_simulate_csv_on_stdout(capsys):
    status, _ = run(["simulate"])
    assert status == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "t,xt1,xt2,xt3,y1,y2,y3,E,cost"
    assert lines[1] == "0,0,0,0,1,0,0,0.5,0"
    assert len(lines) == 1002
    # the report must not pollute the CSV stream
    assert "PASS simulate" in captured.err


def test_simulate_csv_to_file(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    status, report = run(["simulate", "--out", str(out_path)])
    assert status == 0
    captured = capsys.readouterr()
    assert "PASS simulate" in captured.out
    assert "final cost 0.5" in report.results[0].witness
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,xt1,xt2,xt3,y1,y2,y3,E,cost"
    assert lines[-1].startswith("1,")


def test_simulate_needs_signals(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        """\
        [chart]
        coords = a

        [control]
        M = [1]
        inputs = u1
        lagrangian = u1^2

        [simulate]
        x0 = 0
        horizon = 1
        dt = 1/10
        """,
    )
    assert run(["simulate", "--scenario", path])[0] == 3
    assert "lacks a [controls] block" in capsys.readouterr().err


def test_euler_lagrange_endpoint(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        """\
        [chart]
        coords = xt1, xt2, xt3

        [frame]
        sections = t1, t2

        [anchor]
        rho = [1, 0, 0]
              [xt1, xt2, 1]

        [structure]
        C[1,1,2] = 1

        [euler_lagrange]
        lagrangian = 1/2*(z1^2 + z2^2)
        velocities = z1, z2
        x0 = 1, 1, 1
        z0 = 1, 0
        horizon = 1
        dt = 1/100
        """,
    )
    status, report = run(["euler-lagrange", "--scenario", path])
    assert status == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "t,xt1,xt2,xt3,z1,z2,E,cost"
    assert len(lines) == 102
    last = [float(v) for v in lines[-1].split(",")]
    import math

    assert last[0] == 1.0
    assert abs(last[1] - math.e) < 1e-8
    assert abs(last[2] - math.cosh(1)) < 1e-8
    assert abs(last[5] - math.tanh(1)) < 1e-8
    assert abs(last[6] - 0.5) < 1e-9
    assert "PASS euler-lagrange" in captured.err
    assert "energy drift" in report.results[0].witness


def test_euler_lagrange_needs_block(tmp_path, capsys):
    path = write_scenario(tmp_path, "[chart]\ncoords = a\n")
    assert run(["euler-lagrange", "--scenario", path])[0] == 3
    assert "lacks an [euler_lagrange] block" in capsys.readouterr().err


def test_euler_lagrange_pole_exits_three(tmp_path, capsys):
    text = PLANE_FLOW.format(lagrangian="1/2*(z1^2 + z2^2) + 1/xt1")
    path = write_scenario(tmp_path, text)
    assert run(["euler-lagrange", "--scenario", path]) == (3, None)
    err = capsys.readouterr().err
    assert err.startswith("error: pole in the Lagrange equations at t=0")
    assert len(err.splitlines()) == 1


def test_euler_lagrange_singular_hessian_exits_three(tmp_path, capsys):
    text = PLANE_FLOW.format(lagrangian="1/2*xt1*(z1^2 + z2^2)")
    path = write_scenario(tmp_path, text)
    assert run(["euler-lagrange", "--scenario", path]) == (3, None)
    err = capsys.readouterr().err
    assert err.startswith("error: velocity Hessian is singular at state")
    assert len(err.splitlines()) == 1


def test_simulate_blow_up_exits_three(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        """\
        [chart]
        coords = x1

        [control]
        M = [x1^2]
        inputs = u1
        lagrangian = u1^2

        [controls]
        u1 = 1

        [simulate]
        x0 = 1
        horizon = 2
        dt = 1/100
        """,
    )
    assert run(["simulate", "--scenario", path]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: blow-up in system matrix, Lagrangian or input signal at t=1."
    )
    assert len(captured.err.splitlines()) == 1


def test_deep_nesting_exits_three(tmp_path, capsys):
    entry = "(" * 3000 + "x1" + ")" * 3000
    path = write_scenario(
        tmp_path, "[chart]\ncoords = x1\n\n[matrix R]\nrows = [%s]\n" % entry
    )
    assert run(["pinv", "--scenario", path, "--matrix", "R"]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 5, [matrix R]: column 108: "
        "nesting deeper than 100 levels (at position 100)\n"
    )


def test_huge_exponent_exits_three(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "[chart]\ncoords = x1\n\n[matrix R]\nrows = [x1^999999999]\n"
    )
    assert run(["pinv", "--scenario", path, "--matrix", "R"]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 5, [matrix R]: column 11: "
        "exponent larger than 1000 (at position 3)\n"
    )


def test_product_over_term_budget_exits_three(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "[chart]\ncoords = x1, x2, x3\n\n[matrix R]\nrows = [(x1+x2+x3+1)^60]\n"
    )
    assert run(["pinv", "--scenario", path, "--matrix", "R"]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 5, [matrix R]: a product of 4495 by 6545 terms "
        "is over the budget of 4000000 term pairs\n"
    )


def test_overlong_integer_literal_exits_three(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "[chart]\ncoords = x1\n\n[matrix R]\nrows = [x1 + %s]\n" % ("5" * 5000)
    )
    assert run(["pinv", "--scenario", path, "--matrix", "R"]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 5, [matrix R]: column 13: "
        "integer literal too long (5000 digits) (at position 5)\n"
    )


@pytest.mark.parametrize(
    "entry, message",
    [
        ("(10^1000)^5", "line 5, [matrix R]: column 17: "
         "power may give a coefficient of more than 4300 digits (at position 9)"),
        ("*".join(["10^1000"] * 5), "a coefficient has too many digits to print"),
    ],
    ids=["power", "product"],
)
def test_overlong_coefficient_exits_three(tmp_path, capsys, entry, message):
    path = write_scenario(tmp_path, "[chart]\ncoords = x1\n\n[matrix R]\nrows = [%s]\n" % entry)
    assert run(["pinv", "--scenario", path, "--matrix", "R"]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_non_utf8_scenario_exits_three(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"[chart]\ncoords = x1\n# caf\xe9\n")
    assert run(["check", "--scenario", str(path)]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: not UTF-8 text\n"


def test_coefficient_beyond_float_range_exits_three(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        """\
        [chart]
        coords = x1

        [control]
        M = [1]
        inputs = y1
        lagrangian = 10^400*y1^2

        [controls]
        y1 = 1

        [simulate]
        x0 = 0
        horizon = 1
        dt = 1/10
        """,
    )
    assert run(["simulate", "--scenario", path]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficient of y1^2 is beyond float range\n"


def test_simulate_compiles_a_large_flow(tmp_path, capsys):
    # L expands to 4845 terms, too many for one + chain in Python's compiler.
    path = write_scenario(
        tmp_path,
        """\
        [chart]
        coords = xt1, xt2, xt3

        [control]
        M = [1, 0, 0]
            [0, 1, 0]
            [0, 0, 1]
        inputs = y1, y2, y3
        lagrangian = (xt1 + xt2 + xt3 + y1 + 1)^16

        [controls]
        y1 = 0
        y2 = 0
        y3 = 1

        [simulate]
        x0 = 0, 0, 0
        horizon = 1/10
        dt = 1/20
        """,
    )
    status, _ = run(["simulate", "--scenario", path])
    captured = capsys.readouterr()
    assert status == 0, captured.err
    rows = captured.out.splitlines()
    assert len(rows) == 4
    # x3 = t, so RK4 integrates (t + 1)^16 by Simpson's rule on each step.
    simpson = sum(
        (1 + t) ** 16 + 4 * (1.025 + t) ** 16 + (1.05 + t) ** 16 for t in (0, 0.05)
    ) * 0.05 / 6
    assert float(rows[-1].split(",")[-1]) == pytest.approx(simpson, rel=1e-9)


FUZZ_COMMANDS = (
    ["check"],
    ["compose"],
    ["pinv", "--matrix", "R"],
    ["simulate"],
    ["euler-lagrange"],
)
FUZZ_JUNK = (
    "]", "[", "1/0", "((", "x^", "=", ",", "xt1^", "^2", "^1001", "/", "/xt1", "0*", "-",
    "0", "C[", "9" * 5000, "10^400*", "(xt1+xt2+xt3+1)^60", "horizon = 10000000", "1e400",
)


def _mutant(rng, lines):
    """Delete, swap or insert junk into the lines, one to three times."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0 and lines:
            del lines[rng.randrange(len(lines))]
        elif kind == 1 and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            junk = rng.choice(FUZZ_JUNK)
            i = rng.randrange(len(lines) + 1)
            if i < len(lines) and rng.random() < 0.7:
                k = rng.randint(0, len(lines[i]))
                lines[i] = lines[i][:k] + junk + lines[i][k:]
            else:
                lines.insert(i, junk)
    return "\n".join(lines) + "\n"


def test_fuzzed_bundled_scenario_never_crashes(tmp_path, capsys):
    """Mutants of the bundled scenario exit 0, 1 or 3, never with a traceback.

    The trajectories and the random check are shortened first, so that
    the mutants that still load run quickly.
    """
    from algebroids.verify import BUNDLED_SCENARIO

    with open(BUNDLED_SCENARIO, encoding="utf-8") as f:
        text = f.read()
    text = text.replace("horizon = 5", "horizon = 1/10").replace("samples = 20", "samples = 2")
    lines = text.splitlines()
    rng = random.Random(4242)
    path = tmp_path / "mutant.scn"
    statuses = set()
    for k in range(200):
        path.write_text(_mutant(rng, lines), encoding="utf-8")
        argv = FUZZ_COMMANDS[k % len(FUZZ_COMMANDS)] + [
            "--scenario", str(path), "--out", str(tmp_path / "out")
        ]
        try:
            status, _ = run(argv)
        except Exception as crash:
            pytest.fail("%s raised %r on:\n%s" % (argv[0], crash, path.read_text()))
        err = capsys.readouterr().err
        assert status in (0, 1, 3), (argv, path.read_text(), err)
        assert "Traceback" not in err
        if status == 3:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        statuses.add(status)
    assert statuses >= {0, 3}


@pytest.mark.parametrize(
    "horizon, dt, message",
    [
        ("1", "0", "horizon and dt must be positive"),
        ("-1", "1/10", "horizon and dt must be positive"),
        ("1", "3/10", "horizon 1 is not a whole number of steps of dt = 3/10"),
        ("1000000000", "1", "horizon 1000000000 is 1000000000 steps of dt = 1, more than 1000000"),
    ],
)
def test_euler_lagrange_steps_are_validated(tmp_path, capsys, horizon, dt, message):
    text = PLANE_FLOW.format(lagrangian="1/2*(z1^2 + z2^2)")
    text = text.replace("horizon = 1", "horizon = " + horizon)
    path = write_scenario(tmp_path, text.replace("dt = 1/10", "dt = " + dt))
    assert run(["euler-lagrange", "--scenario", path]) == (3, None)
    err = capsys.readouterr().err
    assert err == "error: line 11, [euler_lagrange]: %s\n" % message


@pytest.mark.parametrize(
    "command, old, new, message",
    [
        ("simulate", "x0 = 0, 0, 0", "x0 = 1e400, 0, 0",
         "line 45, [simulate]: '1e400' is beyond float range"),
        ("euler-lagrange", "z0 = 1, 0", "z0 = 1e400, 0",
         "line 53, [euler_lagrange]: '1e400' is beyond float range"),
        ("simulate", "horizon = 1\ndt = 1/1000", "horizon = 1e400\ndt = 1e399",
         "line 44, [simulate]: horizon is beyond float range"),
        ("simulate", "horizon = 1\ndt = 1/1000", "horizon = 1e-397\ndt = 1e-400",
         "line 44, [simulate]: dt is below float range: it rounds to 0.0"),
        ("simulate", "x0 = 0, 0, 0", "x0 = 1e10000000, 0, 0",
         "line 45, [simulate]: '1e10000000' has an exponent beyond 4300"),
    ],
    ids=["x0", "z0", "horizon", "dt", "exponent"],
)
def test_numbers_past_float_range_exit_three(tmp_path, capsys, command, old, new, message):
    from algebroids.scenario import BUNDLED_SCENARIO

    with open(BUNDLED_SCENARIO, encoding="utf-8") as f:
        text = f.read()
    assert text.count(old) == 1
    path = tmp_path / "case.scn"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert run([command, "--scenario", str(path)]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize(
    "entry, message",
    [
        ("seed = 1/2", "line 17, [random]: '1/2' is not a whole number"),
        ("samples = -3", "line 17, [random]: '-3' is not a whole number >= 1"),
    ],
)
def test_random_block_needs_whole_numbers(tmp_path, capsys, entry, message):
    path = write_scenario(tmp_path, COUNTEREXAMPLE + "\n    [random]\n    " + entry + "\n")
    assert run(["check", "--scenario", path]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


# --------------------------------------------------------------- packaging


def test_module_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", "verify-paper"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "10/10 checks passed"


@pytest.fixture(scope="module")
def cli_imports():
    """The modules a fresh interpreter holds after importing algebroids.cli.

    Run with -S, so that no site hook preloads anything.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, algebroids.cli; print(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.mark.parametrize(
    "module",
    [
        "numpy", "dataclasses", "inspect", "json", "importlib.resources", "pathlib",
        "algebroids.verify",
    ],
)
def test_cli_does_not_import(cli_imports, module):
    assert "algebroids.cli" in cli_imports
    assert module not in cli_imports


def test_console_script_is_installed():
    exe = shutil.which("algebroids")
    if exe is None:
        pytest.skip("console script not on PATH")
    done = subprocess.run(
        [exe, "verify-paper"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "10/10 checks passed"
