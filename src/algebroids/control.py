"""Numeric integration of anchored control systems and Lagrange flows.

Structure data stays symbolic right up to the integrator loop: every
Expr that the loop needs is compiled once into a float-evaluating
closure, then a classical fixed-step fourth-order Runge-Kutta scheme
does the rest.  The running cost rides along as an extra state with
cdot = L, so its quadrature uses the same nodes as the trajectory
(Simpson's rule on the RK4 grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebroid import AlgebroidModel
from .bundle import Chart, GeometryError
from .matcalc import FMatrix, determinant
from .symexpr import Expr, compile_expr

__all__ = [
    "ControlSystem",
    "ELProblem",
    "Trajectory",
    "TrajectoryError",
    "RegularityError",
    "integrate",
    "el_rhs",
    "solve_el",
    "verify_transform",
]


class TrajectoryError(Exception):
    """Integration hit a pole; carries the time and state."""

    def __init__(self, message, time, state):
        super().__init__("%s at t=%g, state=%s" % (message, time, tuple(state)))
        self.time = time
        self.state = tuple(state)


class RegularityError(Exception):
    """The velocity Hessian of the Lagrangian is singular."""


@dataclass(frozen=True)
class ControlSystem:
    """xdot = M(x) * y with a running-cost Lagrangian L(x, y)."""

    chart: Chart
    matrix: FMatrix
    inputs: tuple
    lagrangian: Expr

    def __post_init__(self):
        inputs = tuple(self.inputs)
        object.__setattr__(self, "inputs", inputs)
        n = self.chart.dim
        if self.matrix.shape() != (n, n):
            raise GeometryError(
                "system matrix must be %dx%d, got %dx%d"
                % ((n, n) + self.matrix.shape())
            )
        if len(inputs) != n or len(set(inputs)) != n:
            raise GeometryError("need %d distinct input names" % n)
        allowed = set(self.chart.coords)
        for row in self.matrix.entries:
            for e in row:
                if set(e.vars) - allowed:
                    raise GeometryError("matrix entry %s uses foreign variables" % e)
        if set(self.lagrangian.vars) - allowed - set(inputs):
            raise GeometryError("Lagrangian uses undeclared names")


@dataclass(frozen=True)
class ELProblem:
    """Lagrange dynamics on a classical model (h = eta = identity).

    lagrangian is an Expr in the base coordinates and the velocity
    names z^1..z^r; regularity (symbolically nonsingular velocity
    Hessian) is checked at construction.
    """

    model: AlgebroidModel
    lagrangian: Expr
    velocities: tuple
    x0: tuple
    z0: tuple
    horizon: Fraction
    dt: Fraction

    def __post_init__(self):
        velocities = tuple(self.velocities)
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "x0", tuple(self.x0))
        object.__setattr__(self, "z0", tuple(self.z0))
        if not self.model.is_classical():
            raise GeometryError(
                "Lagrange dynamics here need identity base maps h and eta"
            )
        r = self.model.bundle.rank
        if len(velocities) != r or len(set(velocities)) != r:
            raise GeometryError("need %d distinct velocity names" % r)
        if len(self.x0) != self.model.bundle.base.dim or len(self.z0) != r:
            raise GeometryError("initial state sizes do not match the model")
        allowed = set(self.model.bundle.base.coords) | set(velocities)
        if set(self.lagrangian.vars) - allowed:
            raise GeometryError("Lagrangian uses undeclared names")
        hess = FMatrix(
            [
                [self.lagrangian.diff(a).diff(b) for b in velocities]
                for a in velocities
            ]
        )
        if determinant(hess).is_zero():
            raise RegularityError(
                "velocity Hessian of the Lagrangian is identically singular"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled states, velocities/inputs, energy and running cost."""

    times: tuple
    states: tuple
    velocities: tuple
    energies: tuple
    costs: tuple
    state_names: tuple
    velocity_names: tuple

    def __post_init__(self):
        k = len(self.times)
        if not (
            len(self.states)
            == len(self.velocities)
            == len(self.energies)
            == len(self.costs)
            == k
        ):
            raise ValueError("trajectory arrays must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    @property
    def final_cost(self):
        return self.costs[-1]

    def energy_drift(self):
        e0 = self.energies[0]
        return max(abs(e - e0) for e in self.energies)

    def csv_lines(self):
        yield ",".join(
            ["t", *self.state_names, *self.velocity_names, "E", "cost"]
        )
        for t, x, v, e, c in zip(
            self.times, self.states, self.velocities, self.energies, self.costs
        ):
            row = [t, *x, *v, e, c]
            yield ",".join("%.12g" % value for value in row)

    def write_csv(self, f):
        for line in self.csv_lines():
            f.write(line + "\n")


def _rk4(f, sample, y0, horizon, dt, what):
    """Fixed-step RK4 of y' = f(t, y), sampled at t = 0 and after every step.

    The last component of y is the running cost; sample(t, y) gives the
    state, velocity and energy of one sample.  A division by zero while
    stepping or sampling is a pole of the system and ends the run with
    a TrajectoryError.  Returns the Trajectory columns times, states,
    velocities, energies and costs.
    """
    steps = int(round(float(horizon) / float(dt)))
    if steps <= 0:
        raise ValueError("horizon must cover at least one step")
    h = float(dt)
    t = 0.0
    y = list(y0)
    columns = times, states, vels, energies, costs = [], [], [], [], []
    try:
        for i in range(steps + 1):
            if i:
                k1 = f(t, y)
                k2 = f(t + h / 2, _axpy(y, h / 2, k1))
                k3 = f(t + h / 2, _axpy(y, h / 2, k2))
                k4 = f(t + h, _axpy(y, h, k3))
                y = [
                    yi + (h / 6) * (a + 2 * b + 2 * c + d)
                    for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
                ]
                t = i * h
            x, v, e = sample(t, y)
            times.append(t)
            states.append(x)
            vels.append(v)
            energies.append(e)
            costs.append(y[-1])
    except ZeroDivisionError:
        raise TrajectoryError("pole in %s" % what, t, y[:-1]) from None
    return tuple(tuple(column) for column in columns)


def _axpy(y, a, k):
    return [yi + a * ki for yi, ki in zip(y, k)]


def integrate(system, controls, x0, horizon, dt):
    """RK4 trajectory of xdot = M(x) * y(t) with running cost int L dt."""
    names = system.chart.coords
    n = len(names)
    all_names = names + system.inputs
    m_funs = [[compile_expr(e, names) for e in row] for row in system.matrix.entries]
    l_fun = compile_expr(system.lagrangian, all_names)
    e_fun = compile_expr(_energy_expr(system.lagrangian, system.inputs), all_names)

    def f(t, y):
        x = y[:n]
        u = [float(v) for v in controls(t)]
        rows = [[fun(*x) for fun in row] for row in m_funs]
        xdot = [sum(rows[i][j] * u[j] for j in range(n)) for i in range(n)]
        return xdot + [l_fun(*x, *u)]

    def sample(t, y):
        x = y[:n]
        u = [float(v) for v in controls(t)]
        return tuple(x), tuple(u), e_fun(*x, *u)

    y0 = list(map(float, x0)) + [0.0]
    what = "system matrix, Lagrangian or input signal"
    columns = _rk4(f, sample, y0, horizon, dt, what)
    return Trajectory(*columns, names, system.inputs)


def _energy_expr(lagrangian, velocity_names):
    # E = z . dL/dz - L
    e = -lagrangian
    for name in velocity_names:
        e = e + Expr.variable(name) * lagrangian.diff(name)
    return e


def _el_runtime(model, lagrangian, velocities):
    coords = model.bundle.base.coords
    r = model.bundle.rank
    n = len(coords)
    names = coords + velocities
    rho = [
        [compile_expr(model.anchor[a, i], coords) for i in range(n)] for a in range(r)
    ]
    dldz = [compile_expr(lagrangian.diff(z), names) for z in velocities]
    dldx = [compile_expr(lagrangian.diff(x), names) for x in coords]
    hess = [
        [compile_expr(lagrangian.diff(a).diff(b), names) for b in velocities]
        for a in velocities
    ]
    mixed = [
        [compile_expr(lagrangian.diff(z).diff(x), names) for x in coords]
        for z in velocities
    ]
    # c[g][b][a] = C^a_{g b}, the coefficient pattern the z-equation needs.
    c = [
        [
            [compile_expr(model.structure[g][b][a], coords) for a in range(r)]
            for b in range(r)
        ]
        for g in range(r)
    ]
    l_fun = compile_expr(lagrangian, names)
    e_fun = compile_expr(_energy_expr(lagrangian, velocities), names)
    return rho, dldz, dldx, hess, mixed, c, l_fun, e_fun


def _el_field(problem):
    """Compile the Lagrange equations once: (field, l_fun, e_fun).

    field(x, z) returns (xdot, zdot) for float lists x and z.
    """
    rho, dldz, dldx, hess, mixed, c, l_fun, e_fun = _el_runtime(
        problem.model, problem.lagrangian, problem.velocities
    )

    def field(x, z):
        n, r = len(x), len(z)
        rho_vals = [[rho[a][i](*x) for i in range(n)] for a in range(r)]
        xdot = [sum(z[a] * rho_vals[a][i] for a in range(r)) for i in range(n)]
        dldz_vals = [f(*x, *z) for f in dldz]
        dldx_vals = [f(*x, *z) for f in dldx]
        b = []
        for g in range(r):
            total = sum(rho_vals[g][i] * dldx_vals[i] for i in range(n))
            for beta in range(r):
                if z[beta] == 0.0:
                    continue
                for alpha in range(r):
                    cv = c[g][beta][alpha](*x)
                    if cv:
                        total -= cv * z[beta] * dldz_vals[alpha]
            total -= sum(mixed[g][i](*x, *z) * xdot[i] for i in range(n))
            b.append(total)
        h_mat = np.array([[hess[a][s](*x, *z) for s in range(r)] for a in range(r)])
        try:
            zdot = np.linalg.solve(h_mat, np.array(b))
        except np.linalg.LinAlgError:
            raise RegularityError(
                "velocity Hessian is singular at state %s" % ((tuple(x), tuple(z)),)
            ) from None
        return xdot, [float(v) for v in zdot]

    return field, l_fun, e_fun


def el_rhs(problem, x, z):
    """Right-hand side (xdot, zdot) of the Lagrange equations at (x, z).

    xdot^i = rho^i_alpha z^alpha, and zdot solves

        H zdot = rho^i_gamma dL/dx^i - C^alpha_{gamma beta} z^beta dL/dz^alpha
                 - d2L/dx dz . xdot

    with H the velocity Hessian, inverted numerically at the state.
    """
    field, _, _ = _el_field(problem)
    return field([float(v) for v in x], [float(v) for v in z])


def solve_el(problem):
    """RK4 trajectory of the Lagrange flow, with energy per sample."""
    coords = problem.model.bundle.base.coords
    n, r = len(coords), problem.model.bundle.rank
    field, l_fun, e_fun = _el_field(problem)

    def f(t, y):
        x, z = y[:n], y[n : n + r]
        xdot, zdot = field(x, z)
        return xdot + zdot + [l_fun(*x, *z)]

    def sample(t, y):
        x, z = y[:n], y[n : n + r]
        return tuple(x), tuple(z), e_fun(*x, *z)

    y0 = list(map(float, problem.x0)) + list(map(float, problem.z0)) + [0.0]
    columns = _rk4(f, sample, y0, problem.horizon, problem.dt, "the Lagrange equations")
    return Trajectory(*columns, coords, problem.velocities)


def verify_transform(sys_a, sys_b, cmap):
    """True iff cmap turns system A into system B symbolically.

    The condition is M_B(x~) = J(x) * M_A(x) composed with the inverse
    map, J being the Jacobian of the forward components.
    """
    if sys_a.chart != cmap.src or sys_b.chart != cmap.dst:
        raise GeometryError("map must go from system A's chart to system B's chart")
    jac = cmap.jacobian()
    pushed = jac * sys_a.matrix
    to_b = dict(zip(cmap.src.coords, cmap.inverse))
    return pushed.subs(to_b) == sys_b.matrix
