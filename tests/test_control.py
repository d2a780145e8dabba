"""Integrator, Lagrange flow and symbolic system-equivalence checks."""

import math
from fractions import Fraction
from importlib import resources

import pytest

from algebroids import (
    ControlSystem,
    ELProblem,
    FMatrix,
    GeometryError,
    RegularityError,
    Trajectory,
    TrajectoryError,
    builtin_data,
    el_rhs,
    integrate,
    load_scenario,
    make_coord_map,
    parse,
    solve_el,
    verify_transform,
)
from algebroids.control import step_count

from helpers import chart


@pytest.fixture(scope="module")
def data():
    return builtin_data()


@pytest.fixture(scope="module")
def worked_el():
    path = resources.files("algebroids").joinpath("scenarios", "worked_example.scn")
    return load_scenario(str(path)).el


# ------------------------------------------------------------- construction


def test_control_system_shape_validation(data):
    tn = data.t_chart.coords
    with pytest.raises(GeometryError, match="system matrix must be 3x3"):
        ControlSystem(
            data.t_chart,
            FMatrix([[parse("1", tn)] * 2] * 2),
            ("y1", "y2", "y3"),
            data.sys_tilde.lagrangian,
        )
    with pytest.raises(GeometryError, match="3 distinct input names"):
        ControlSystem(
            data.t_chart,
            data.m_tilde,
            ("y1", "y1", "y3"),
            data.sys_tilde.lagrangian,
        )


def test_control_system_name_hygiene(data):
    tn = data.t_chart.coords
    foreign = FMatrix(
        [
            [parse("q7", ("q7",)), parse("0", tn), parse("0", tn)],
            [parse("0", tn)] * 3,
            [parse("0", tn)] * 3,
        ]
    )
    with pytest.raises(GeometryError, match="foreign variables"):
        ControlSystem(data.t_chart, foreign, ("y1", "y2", "y3"), data.sys_tilde.lagrangian)
    with pytest.raises(GeometryError, match="undeclared names"):
        ControlSystem(
            data.t_chart, data.m_tilde, ("y1", "y2", "y3"), parse("w1^2", ("w1",))
        )


# -------------------------------------------------------------- integration


def test_integrate_straight_line(data):
    # y = (1,0,0) drives M_tilde straight down the third axis
    traj = integrate(
        data.sys_tilde, lambda t: (1, 0, 0), (0, 0, 0), Fraction(1), Fraction(1, 100)
    )
    assert len(traj.times) == 101
    for t, x in zip(traj.times, traj.states):
        assert x[0] == 0.0 and x[1] == 0.0
        assert abs(x[2] + t) < 1e-12
    assert set(traj.energies) == {0.5}
    assert abs(traj.final_cost - 0.5) < 1e-12


def test_integrate_csv_format(data):
    traj = integrate(
        data.sys_tilde, lambda t: (1, 0, 0), (0, 0, 0), Fraction(1), Fraction(1, 4)
    )
    lines = list(traj.csv_lines())
    assert lines[0] == "t,xt1,xt2,xt3,y1,y2,y3,E,cost"
    assert lines[1] == "0,0,0,0,1,0,0,0.5,0"
    assert lines[2].startswith("0.25,0,0,-0.25,")
    assert len(lines) == 6


def test_integrate_mirrored_systems_agree_exactly(data):
    # M_tilde(x) = -M_hat(-x) entry by entry, so the two RK4 runs see
    # identical float operations up to sign and the drift is not just
    # small, it is zero.
    controls = lambda t: (1.0, t, t * t)
    x0 = (0.25, -0.5, 1.0)
    a = integrate(data.sys_hat, controls, x0, Fraction(1), Fraction(1, 100))
    b = integrate(
        data.sys_tilde, controls, tuple(-v for v in x0), Fraction(1), Fraction(1, 100)
    )
    drift = max(
        abs(p + q) for xa, xb in zip(a.states, b.states) for p, q in zip(xa, xb)
    )
    assert drift == 0.0


def test_integrate_reports_poles(data):
    ch = chart(1)
    rational = ControlSystem(
        ch,
        FMatrix([[parse("1/x1", ch.coords)]]),
        ("y1",),
        parse("y1^2", ("y1",)),
    )
    with pytest.raises(TrajectoryError, match="pole in system matrix") as err:
        integrate(rational, lambda t: (1,), (0,), Fraction(1), Fraction(1, 10))
    assert err.value.time == 0.0
    assert err.value.state == (0.0,)


def test_integrate_reports_blow_up():
    # xdot = x^2 from x = 1 leaves every float range shortly after t = 1.
    ch = chart(1)
    square = ControlSystem(
        ch, FMatrix([[parse("x1^2", ch.coords)]]), ("y1",), parse("y1^2", ("y1",))
    )
    with pytest.raises(TrajectoryError, match="blow-up in system matrix") as err:
        integrate(square, lambda t: (1,), (1,), Fraction(2), Fraction(1, 100))
    assert 1.0 < err.value.time < 2.0
    assert all(math.isfinite(v) for v in err.value.state)
    # Here the products go to inf without an OverflowError; the new
    # state is what gives the blow-up away.
    steep = ControlSystem(
        ch, FMatrix([[parse("10^200*x1", ch.coords)]]), ("y1",), parse("y1^2", ("y1",))
    )
    with pytest.raises(TrajectoryError, match="blow-up in system matrix") as err:
        integrate(steep, lambda t: (1,), (1,), Fraction(1), Fraction(1, 10))
    assert err.value.time == 0.0
    assert err.value.state == (1.0,)


@pytest.mark.parametrize(
    "horizon, dt, message",
    [
        (Fraction(1), Fraction(0), "horizon and dt must be positive"),
        (Fraction(-1), Fraction(1, 10), "horizon and dt must be positive"),
        (Fraction(1), Fraction(3, 10), "horizon 1 is not a whole number of steps"),
    ],
)
def test_library_runs_take_whole_steps(data, worked_el, horizon, dt, message):
    with pytest.raises(ValueError, match=message):
        step_count(horizon, dt)
    with pytest.raises(ValueError, match=message):
        integrate(data.sys_tilde, lambda t: (1, 0, 0), (0, 0, 0), horizon, dt)
    with pytest.raises(ValueError, match=message):
        ELProblem(
            worked_el.model,
            worked_el.lagrangian,
            worked_el.velocities,
            worked_el.x0,
            worked_el.z0,
            horizon,
            dt,
        )


def test_step_count():
    assert step_count(Fraction(1), Fraction(1, 1000)) == 1000
    assert step_count(3, Fraction(3, 10)) == 10
    assert step_count(Fraction(1, 2), Fraction(1, 2)) == 1
    assert step_count(1, Fraction(1, 10**6)) == 10**6
    with pytest.raises(ValueError, match="is 1000000000 steps of dt = 1, more than 1000000"):
        step_count(10**9, 1)


# ------------------------------------------------------------- Lagrange flow


def test_el_problem_validation(worked_el):
    with pytest.raises(GeometryError, match="distinct velocity names"):
        ELProblem(
            worked_el.model,
            worked_el.lagrangian,
            ("z1", "z1"),
            worked_el.x0,
            worked_el.z0,
            Fraction(1),
            Fraction(1, 10),
        )
    with pytest.raises(GeometryError, match="initial state sizes"):
        ELProblem(
            worked_el.model,
            worked_el.lagrangian,
            ("z1", "z2"),
            (1, 1),
            worked_el.z0,
            Fraction(1),
            Fraction(1, 10),
        )


def test_el_problem_requires_regular_lagrangian(worked_el):
    linear = parse("z1 + z2", ("z1", "z2"))
    with pytest.raises(RegularityError, match="identically singular"):
        ELProblem(
            worked_el.model,
            linear,
            ("z1", "z2"),
            worked_el.x0,
            worked_el.z0,
            Fraction(1),
            Fraction(1, 10),
        )


def test_el_rhs_worked_values(worked_el):
    # structure C^1_{12} = 1 feeds the z-equation, anchor feeds xdot
    xdot, zdot = el_rhs(worked_el, (1, 1, 1), (0.5, 0.25))
    assert xdot == [0.75, 0.25, 0.25]
    assert zdot == [-0.125, 0.25]


def test_el_rhs_flags_singular_states(worked_el):
    scaled = ELProblem(
        worked_el.model,
        parse("1/2*xt1*(z1^2 + z2^2)", ("xt1", "z1", "z2")),
        ("z1", "z2"),
        (1, 1, 1),
        (1, 0),
        Fraction(1),
        Fraction(1, 10),
    )
    with pytest.raises(RegularityError, match="singular at state"):
        el_rhs(scaled, (0, 1, 1), (1, 0))


def test_el_flow_is_derived_once_per_problem(worked_el, monkeypatch):
    import algebroids.control as control

    calls = []
    derive = control._el_runtime

    def counted(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(control, "_el_runtime", counted)
    problem = ELProblem(
        worked_el.model,
        worked_el.lagrangian,
        worked_el.velocities,
        worked_el.x0,
        worked_el.z0,
        Fraction(1, 10),
        Fraction(1, 100),
    )
    assert el_rhs(problem, (1, 1, 1), (0.5, 0.25)) == ([0.75, 0.25, 0.25], [-0.125, 0.25])
    el_rhs(problem, (2, 1, 1), (1, 0))
    solve_el(problem)
    assert len(calls) == 1


def test_solve_el_matches_closed_forms(worked_el):
    short = ELProblem(
        worked_el.model,
        worked_el.lagrangian,
        worked_el.velocities,
        worked_el.x0,
        worked_el.z0,
        Fraction(1),
        Fraction(1, 100),
    )
    traj = solve_el(short)
    x = traj.states[-1]
    z = traj.velocities[-1]
    assert abs(x[0] - math.e) < 1e-8
    assert abs(x[1] - math.cosh(1)) < 1e-8
    assert abs(x[2] - (1 + math.log(math.cosh(1)))) < 1e-8
    assert abs(z[0] - 1 / math.cosh(1)) < 1e-8
    assert abs(z[1] - math.tanh(1)) < 1e-8
    assert traj.energy_drift() < 1e-9
    assert abs(traj.final_cost - 0.5) < 1e-8


# --------------------------------------------------------------- Trajectory


def _tiny_traj():
    return Trajectory(
        (0.0, 0.5, 1.0),
        ((0.0,), (1.0,), (2.0,)),
        ((1.0,), (1.0,), (1.0,)),
        (0.5, 0.5, 0.625),
        (0.0, 0.25, 0.5),
        ("x1",),
        ("y1",),
    )


def test_trajectory_validation():
    with pytest.raises(ValueError, match="equal length"):
        Trajectory((0.0, 1.0), ((0.0,),), ((0.0,),), (0.0,), (0.0,), ("x1",), ("y1",))
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(
            (0.0, 1.0, 1.0),
            ((0.0,),) * 3,
            ((0.0,),) * 3,
            (0.0,) * 3,
            (0.0,) * 3,
            ("x1",),
            ("y1",),
        )


def test_trajectory_summaries():
    traj = _tiny_traj()
    assert traj.final_cost == 0.5
    assert traj.energy_drift() == 0.125
    lines = list(traj.csv_lines())
    assert lines[0] == "t,x1,y1,E,cost"
    assert lines[2] == "0.5,1,1,0.5,0.25"


def test_trajectory_csv_precision():
    traj = Trajectory(
        (0.0, 0.123456789012345),
        ((0.0,), (0.0,)),
        ((0.0,), (0.0,)),
        (0.0, 0.0),
        (0.0, 0.0),
        ("x1",),
        ("y1",),
    )
    assert list(traj.csv_lines())[2 - 1 + 1].split(",")[0] == "0.123456789012"


# -------------------------------------------------------- system equivalence


def test_verify_transform_accepts_mirror(data):
    assert verify_transform(data.sys_hat, data.sys_tilde, data.mirror)


def test_verify_transform_rejects_wrong_map(data):
    xn = data.x_chart.coords
    tn = data.t_chart.coords
    wrong = make_coord_map(
        data.x_chart,
        data.t_chart,
        tuple(parse(s, xn) for s in ("x1", "x2", "-x3")),
        tuple(parse(s, tn) for s in ("xt1", "xt2", "-xt3")),
    )
    assert not verify_transform(data.sys_hat, data.sys_tilde, wrong)


def test_verify_transform_checks_charts(data):
    with pytest.raises(GeometryError, match="system A's chart"):
        verify_transform(data.sys_tilde, data.sys_hat, data.mirror)
