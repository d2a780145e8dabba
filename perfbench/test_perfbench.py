"""Tests of the benchmark's generator and checkers.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench

The generator tests run the CLI on generated models; the checker tests
take a correct output, corrupt it, and confirm that it is flagged.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from algebroids import cli  # noqa: E402

BUNDLED = (HERE.parent / "src" / "algebroids" / "scenarios" / "worked_example.scn").read_text()


def run_op(op, tmp_path):
    scenario = tmp_path / "op.scn"
    out = tmp_path / "op.out"
    scenario.write_text(op.text)
    argv = [op.command, "--scenario", str(scenario), "--out", str(out), *op.args]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status, _ = cli.run(argv)
    return status, scenario, out


def find(workload, label, seed=3, index=1):
    for op in gen.round_ops(workload, seed, index, BUNDLED):
        if op.label == label:
            return op
    raise LookupError(label)


def rng():
    return random.Random(7)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs_and_no_input_repeats(workload):
    first = [op.text for i in range(2) for op in gen.round_ops(workload, 5, i, BUNDLED)]
    again = [op.text for i in range(2) for op in gen.round_ops(workload, 5, i, BUNDLED)]
    other = [op.text for i in range(2) for op in gen.round_ops(workload, 6, i, BUNDLED)]
    assert first == again
    assert first != other
    assert len(set(first)) == len(first)
    charts = [re.search(r"^name = (\S+)$", t, re.M).group(1) for t in first]
    assert len(set(charts)) == len(charts)


def test_round_zero_runs_the_bundled_example_verbatim():
    ops = gen.round_ops("lagrange-flow", 9, 0, BUNDLED)
    assert ops[0].text == BUNDLED
    assert gen.round_ops("lagrange-flow", 9, 1, BUNDLED)[0].text != BUNDLED


@pytest.mark.parametrize("workload", ["lagrange-flow", "control-flow"])
def test_horizons_are_whole_numbers_of_steps(workload):
    for op in gen.round_ops(workload, 4, 2, BUNDLED):
        section = "euler_lagrange" if op.command == "euler-lagrange" else "simulate"
        horizon = Fraction(gen.scn_value(op.text, section, "horizon"))
        dt = Fraction(gen.scn_value(op.text, section, "dt"))
        assert (horizon / dt).denominator == 1
        assert horizon / dt == op.expect["steps"]


@pytest.mark.parametrize("label", ["check-rational-frame", "check-so3"])
def test_built_frame_models_pass_check(label, tmp_path):
    workload = "rational-field" if label == "check-rational-frame" else "polynomial-ring"
    op = find(workload, label)
    status, scenario, out = run_op(op, tmp_path)
    assert status == 0
    assert all(item["pass"] for item in json.loads(out.read_text()))


def test_so3_structure_sign():
    rho, c = gen.rotation_rows(), gen.so3_structure()
    assert gen.anchor_defect(rho, c) == []
    flipped = [[[gen.scale(p, -1) for p in row] for row in plane] for plane in c]
    assert gen.anchor_defect(rho, flipped) != []


def test_perturbed_models_fail_jacobi_with_a_witness(tmp_path):
    op = find("polynomial-ring", "check-so3-perturbed")
    status, _, out = run_op(op, tmp_path)
    assert status == op.status == 1
    jacobi = [item for item in json.loads(out.read_text()) if item["check"] == "jacobi"]
    assert not jacobi[0]["pass"] and jacobi[0]["witness"]


# -- checkers -----------------------------------------------------------------


def correct_output(workload, label, tmp_path):
    op = find(workload, label)
    status, scenario, out = run_op(op, tmp_path)
    assert status == op.status
    assert checks.check(op, scenario, out, rng()) is None
    return op, scenario, out


def test_pinv_checker_flags_a_wrong_entry(tmp_path):
    op, scenario, out = correct_output("rational-field", "pinv-3x2-d2", tmp_path)
    report = json.loads(out.read_text())
    first_row = report[0]["witness"].splitlines()[0]
    entries = first_row[1:-1].split(", ")
    entries[0] = "(%s) + 1/7" % entries[0]
    report[0]["witness"] = report[0]["witness"].replace(first_row, "[" + ", ".join(entries) + "]")
    out.write_text(json.dumps(report))
    assert "L*R" in checks.check(op, scenario, out, rng())


def test_check_checker_flags_a_flipped_verdict(tmp_path):
    op, scenario, out = correct_output("polynomial-ring", "check-so3-perturbed", tmp_path)
    report = json.loads(out.read_text())
    for item in report:
        if item["check"] == "jacobi":
            item["pass"], item["witness"] = True, ""
    out.write_text(json.dumps(report))
    assert "jacobi" in checks.check(op, scenario, out, rng())


def test_compose_checker_flags_a_missing_pair(tmp_path):
    op, scenario, out = correct_output("polynomial-ring", "compose-3maps", tmp_path)
    report = json.loads(out.read_text())
    out.write_text(json.dumps(report[1:]))
    assert "pairs" in checks.check(op, scenario, out, rng())


def test_compose_checker_flags_a_wrong_composite(tmp_path, monkeypatch):
    op, scenario, out = correct_output("polynomial-ring", "compose-3maps", tmp_path)
    import algebroids.bundle as bundle

    right = bundle.compose

    def swapped(outer, inner):  # inner after outer: the classic order slip
        return right(inner, outer)

    monkeypatch.setattr(bundle, "compose", swapped)
    assert "wrong" in checks.check(op, scenario, out, rng())


def corrupt_csv(out, row, col, delta):
    lines = out.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")


def test_el_checker_flags_a_wrong_state(tmp_path):
    op, scenario, out = correct_output("lagrange-flow", "el-so3", tmp_path)
    corrupt_csv(out, 1500, 1, 1e-3)
    assert checks.check(op, scenario, out, rng()) is not None


def test_el_checker_flags_a_wrong_energy_and_a_short_run(tmp_path):
    op, scenario, out = correct_output("lagrange-flow", "el-worked-example", tmp_path)
    text = out.read_text()
    corrupt_csv(out, 10, -2, 1e-4)
    assert "E column" in checks.check(op, scenario, out, rng())
    out.write_text("\n".join(text.splitlines()[:-1]) + "\n")
    assert "samples" in checks.check(op, scenario, out, rng())


def test_simulate_checker_flags_a_wrong_sample(tmp_path):
    op, scenario, out = correct_output("control-flow", "simulate", tmp_path)
    corrupt_csv(out, 2000, 2, 1e-6)
    assert "recomputed" in checks.check(op, scenario, out, rng())


def test_el_checker_flags_a_first_order_integrator(tmp_path):
    # An explicit Euler run of the same equations, its E column recomputed
    # so that only the drift of the conserved quantities can give it away.
    op, scenario, out = correct_output("lagrange-flow", "el-so3", tmp_path)
    header, rows = checks._read_csv(out)
    nx, nv = op.expect["ncoords"], len(op.expect["z0"])
    field = checks.el_field(op.expect)
    energy = checks._energy_funs(op.expect["lagrangian"], nx, nv)
    h = float(op.expect["dt"])
    y = rows[0][1 : 1 + nx + nv]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) for v in [row[0], *y, energy(*y), row[-1]]))
        y = [a + h * b for a, b in zip(y, field(row[0], y))]
    out.write_text("\n".join(lines) + "\n")
    assert "drifts" in checks.check(op, scenario, out, rng())


@pytest.mark.parametrize("label", ["el-so3", "el-worked-example"])
def test_el_checker_flags_a_transposed_structure_term(label, tmp_path, monkeypatch):
    # Swapping the lower indices of C keeps energy and |x|^2 conserved;
    # only the recomputed start of the flow tells the two apart.
    import algebroids.control as control

    right = control._el_runtime

    def transposed(model, lagrangian, velocities):
        *head, c, l_fun, e_fun = right(model, lagrangian, velocities)
        r = len(c)  # c[g][b][a] = C^a_{g b}
        swapped = [[[c[b][g][a] for a in range(r)] for b in range(r)] for g in range(r)]
        return (*head, swapped, l_fun, e_fun)

    monkeypatch.setattr(control, "_el_runtime", transposed)
    op = find("lagrange-flow", label)
    status, scenario, out = run_op(op, tmp_path)
    assert status == 0
    assert "recomputed" in checks.check(op, scenario, out, rng())
