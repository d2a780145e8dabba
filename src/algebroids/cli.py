"""Command-line front end.

Subcommands:

  check           run the bracket/anchor axiom checks on a scenario's model
  compose         compose the morphisms a scenario declares and test them
                  against applying one after the other
  pinv            print the left pseudo-inverse of a named scenario matrix
  simulate        integrate the scenario's control system, write CSV
  euler-lagrange  integrate the scenario's variational problem, write CSV
  verify-paper    re-derive the bundled worked example (needs no scenario)

Exit status: 0 all checks passed, 1 some check failed, 2 usage error,
3 scenario or data error.  Reports go to stdout as text, or as JSON
with --json; when a CSV trajectory occupies stdout the report moves to
stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .algebroid import check_axioms, induced_anchor
from .bundle import (
    GeometryError,
    VBMorphism,
    apply_morphism,
    compose,
    identity_map,
    tangent_bundle,
    tangent_lift,
)
from .control import RegularityError, Trajectory, TrajectoryError, integrate, solve_el
from .matcalc import (
    FMatrix,
    RankDropWarning,
    SingularMatrixError,
    left_pseudo_inverse,
    matmul,
)
from .report import Report
from .scenario import BUNDLED_SCENARIO, ScenarioError, load_scenario
from .symexpr import Expr, ExprError, compile_expr

__all__ = ["run", "main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Symbolic checks and trajectories for anchored frame models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p):
        p.add_argument(
            "--out", metavar="PATH", help="write CSV or report here instead of stdout"
        )
        p.add_argument(
            "--json", action="store_true", help="emit the report as JSON"
        )
        return p

    def scenario_command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--scenario",
            metavar="PATH",
            help="scenario file (default: the bundled worked example)",
        )
        return common(p)

    scenario_command("check", "run axiom checks on the scenario model").add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario's random seed",
    )
    scenario_command("compose", "compose declared morphisms and verify")
    scenario_command("pinv", "left pseudo-inverse of a named matrix").add_argument(
        "--matrix", required=True, help="matrix name in the scenario"
    )
    scenario_command("simulate", "integrate the control system to CSV")
    scenario_command("euler-lagrange", "integrate the variational problem to CSV")
    common(sub.add_parser("verify-paper", help="re-derive the worked example"))
    return parser


def _load(args):
    return load_scenario(BUNDLED_SCENARIO if args.scenario is None else args.scenario)


def _emit(report, output, args):
    """Route a command's primary output and its report (see the README).

    A trajectory goes as CSV to --out or stdout; its report then goes
    to stdout or, when the CSV holds stdout, to stderr.  Any other
    output is text (the pinv matrix) printed ahead of the report, and
    both go to --out or stdout; in JSON mode the report stands alone.
    """
    payload = report.json() if args.json else report.text()
    if isinstance(output, Trajectory):
        if args.out:
            with open(args.out, "w") as f:
                output.write_csv(f)
            print(payload)
        else:
            output.write_csv(sys.stdout)
            print(payload, file=sys.stderr)
        return
    if output is not None and not args.json:
        payload = output + "\n" + payload
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)


def _cmd_check(args):
    scen = _load(args)
    if scen.model is None:
        raise ScenarioError("scenario declares no frame and anchor to check")
    seed = scen.seed if args.seed is None else args.seed
    return check_axioms(scen.model, seed=seed, samples=scen.samples), None


def _sample_sections(bundle):
    """Frame sections plus one mixed section with coordinate coefficients."""
    sections = [bundle.frame_section(i) for i in range(bundle.rank)]
    coords = bundle.base.coords
    coeffs = [
        Expr.variable(coords[i % len(coords)]) + Expr.constant(i + 1)
        for i in range(bundle.rank)
    ]
    sections.append(bundle.section(coeffs))
    return sections


def _morphism_pool(scen):
    pool = []
    tangent = tangent_bundle(scen.chart)
    ident = identity_map(scen.chart)
    if scen.model is not None:
        pool.append(("anchor", induced_anchor(scen.model)))
    for name, cmap in scen.maps.items():
        pool.append(("T[%s]" % name, tangent_lift(cmap)))
    for name, mat in scen.matrices.items():
        dim, rank = scen.chart.dim, scen.bundle.rank if scen.bundle else None
        if rank is None:
            continue
        if mat.shape() == (dim, rank):
            pool.append((name, VBMorphism(tangent, scen.bundle, ident, mat)))
        elif mat.shape() == (rank, dim):
            pool.append((name, VBMorphism(scen.bundle, tangent, ident, mat)))
    return pool


def _cmd_compose(args):
    scen = _load(args)
    pool = _morphism_pool(scen)
    report = Report()
    for outer_name, outer in pool:
        for inner_name, inner in pool:
            if inner.target != outer.source:
                continue
            name = "compose %s*%s" % (outer_name, inner_name)
            both = compose(outer, inner)
            witness = ""
            ok = True
            for z in _sample_sections(inner.source):
                if apply_morphism(both, z) != apply_morphism(
                    outer, apply_morphism(inner, z)
                ):
                    ok = False
                    witness = "acts differently on %s" % z
                    break
            report.add(name, ok, witness)
    return report, None


def _cmd_pinv(args):
    scen = _load(args)
    if args.matrix not in scen.matrices:
        raise ScenarioError(
            "scenario declares no matrix named %r (have: %s)"
            % (args.matrix, ", ".join(sorted(scen.matrices)) or "none")
        )
    mat = scen.matrices[args.matrix]
    name = "left-inverse %s" % args.matrix
    report = Report()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RankDropWarning)
            left = left_pseudo_inverse(mat)
        for w in caught:
            print("note: %s" % w.message, file=sys.stderr)
    except SingularMatrixError as err:
        report.add(name, False, str(err))
        return report, None
    text = str(left)
    if matmul(left, mat) == FMatrix.identity(mat.ncols):
        report.add(name, True, text)
    else:
        report.add(name, False, "product with %s is not the identity" % args.matrix)
    return report, text


def _cmd_simulate(args):
    scen = _load(args)
    if scen.control is None or scen.simulate is None:
        raise ScenarioError("scenario lacks a [control] or [simulate] block")
    if not scen.controls:
        raise ScenarioError("scenario lacks a [controls] block")
    signal = compile_expr([scen.controls[u] for u in scen.control.inputs], ("t",))
    traj = integrate(
        scen.control,
        signal,
        scen.simulate.x0,
        scen.simulate.horizon,
        scen.simulate.dt,
    )
    report = Report()
    report.add(
        "simulate",
        True,
        "%d samples, final cost %.12g" % (len(traj.times), traj.final_cost),
    )
    return report, traj


def _cmd_el(args):
    scen = _load(args)
    if scen.el is None:
        raise ScenarioError("scenario lacks an [euler_lagrange] block")
    traj = solve_el(scen.el)
    report = Report()
    report.add(
        "euler-lagrange",
        True,
        "%d samples, energy drift %.3g" % (len(traj.times), traj.energy_drift()),
    )
    return report, traj


def _cmd_verify_paper(args):
    from .verify import verify_paper

    return verify_paper(), None


_COMMANDS = {
    "check": _cmd_check,
    "compose": _cmd_compose,
    "pinv": _cmd_pinv,
    "simulate": _cmd_simulate,
    "euler-lagrange": _cmd_el,
    "verify-paper": _cmd_verify_paper,
}


def run(argv):
    """Parse argv and dispatch; returns (exit status, Report or None)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return (0 if not err.code else 2), None
    try:
        report, output = _COMMANDS[args.command](args)
        _emit(report, output, args)
    except (
        ScenarioError,
        TrajectoryError,
        RegularityError,
        GeometryError,
        ExprError,
        OSError,
    ) as err:
        print("error: %s" % err, file=sys.stderr)
        return 3, None
    return (0 if report.all_passed else 1), report


def main():
    status, _ = run(sys.argv[1:])
    sys.exit(status)


if __name__ == "__main__":
    main()
