"""Numeric integration of anchored control systems and Lagrange flows.

Structure data stays symbolic right up to the integrator loop: the
whole state derivative of a flow, running cost included, is derived as
exact Exprs and compiled once into one float-evaluating function, then
a classical fixed-step fourth-order Runge-Kutta scheme does the rest.
The running cost rides along as an extra state with cdot = L, so its
quadrature uses the same nodes as the trajectory (Simpson's rule on the
RK4 grid).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .bundle import GeometryError
from .matcalc import FMatrix, adjugate_inverse, determinant
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
    "step_count",
]

# A run keeps every sample: 10^5 steps of the bundled control system
# hold 38 MB, so the cap bounds a run at a few hundred MB.
_MAX_STEPS = 10**6


class TrajectoryError(Exception):
    """Integration hit a pole or blew up; carries the time and state."""

    def __init__(self, message, time, state):
        super().__init__("%s at t=%g, state=%s" % (message, time, tuple(state)))
        self.time = time
        self.state = tuple(state)


class RegularityError(Exception):
    """The velocity Hessian of the Lagrangian is singular."""


class ControlSystem(Record):
    """xdot = M(x) * y with a running-cost Lagrangian L(x, y)."""

    _fields = ("chart", "matrix", "inputs", "lagrangian")

    def __init__(self, chart, matrix, inputs, lagrangian):
        inputs = tuple(inputs)
        n = chart.dim
        if matrix.shape() != (n, n):
            raise GeometryError(
                "system matrix must be %dx%d, got %dx%d" % ((n, n) + matrix.shape())
            )
        if len(inputs) != n or len(set(inputs)) != n:
            raise GeometryError("need %d distinct input names" % n)
        allowed = set(chart.coords)
        for row in matrix.entries:
            for e in row:
                if set(e.vars) - allowed:
                    raise GeometryError("matrix entry %s uses foreign variables" % e)
        if set(lagrangian.vars) - allowed - set(inputs):
            raise GeometryError("Lagrangian uses undeclared names")
        self._set(chart, matrix, inputs, lagrangian)


class ELProblem(Record):
    """Lagrange dynamics on a classical model (h = eta = identity).

    lagrangian is an Expr in the base coordinates and the velocity
    names z^1..z^r; regularity (symbolically nonsingular velocity
    Hessian) and whole steps (step_count) are checked at construction,
    and the Lagrange equations are compiled once, on first use.  The
    velocity Hessian is kept as hessian, outside the fields.
    """

    _fields = ("model", "lagrangian", "velocities", "x0", "z0", "horizon", "dt")

    def __init__(self, model, lagrangian, velocities, x0, z0, horizon, dt):
        velocities, x0, z0 = tuple(velocities), tuple(x0), tuple(z0)
        if not model.is_classical():
            raise GeometryError(
                "Lagrange dynamics here need identity base maps h and eta"
            )
        r = model.bundle.rank
        if len(velocities) != r or len(set(velocities)) != r:
            raise GeometryError("need %d distinct velocity names" % r)
        if len(x0) != model.bundle.base.dim or len(z0) != r:
            raise GeometryError("initial state sizes do not match the model")
        allowed = set(model.bundle.base.coords) | set(velocities)
        if set(lagrangian.vars) - allowed:
            raise GeometryError("Lagrangian uses undeclared names")
        step_count(horizon, dt)
        hess = FMatrix(
            [[lagrangian.diff(a).diff(b) for b in velocities] for a in velocities]
        )
        if determinant(hess).is_zero():
            raise RegularityError(
                "velocity Hessian of the Lagrangian is identically singular"
            )
        self._set(model, lagrangian, velocities, x0, z0, horizon, dt)
        self.__dict__["hessian"] = hess

    @cached_property
    def _flow(self):
        """The Lagrange flow, derived exactly and compiled once: (flow, e_fun).

        flow(*x, *z) gives [*xdot, *zdot, L] (see el_rhs) and e_fun(*x, *z)
        the energy.  Where det H is 0.0, flow raises RegularityError.
        """
        names = self.model.bundle.base.coords + self.velocities
        xdot, force, c, momenta, energy = _el_runtime(
            self.model, self.lagrangian, self.velocities
        )
        z = [Expr.variable(v) for v in self.velocities]
        r, n = len(z), len(xdot)
        b = [
            force[g]
            - sum(c[g][s][a] * z[s] * momenta[a] for s in range(r) for a in range(r))
            for g in range(r)
        ]
        zdot = (adjugate_inverse(self.hessian) * FMatrix([[v] for v in b])).transpose()
        flow = compile_expr([*xdot, *zdot.entries[0], self.lagrangian], names)
        det = compile_expr(determinant(self.hessian), names)

        def checked(*state):
            try:
                return flow(*state)
            except ZeroDivisionError:
                if det(*state) == 0.0:
                    raise RegularityError(
                        "velocity Hessian is singular at state %s"
                        % ((state[:n], state[n:]),)
                    ) from None
                raise

        return checked, compile_expr(energy, names)


class Trajectory(Record):
    """Sampled states, velocities/inputs, energy and running cost."""

    _fields = (
        "times", "states", "velocities", "energies", "costs",
        "state_names", "velocity_names",
    )

    def __init__(
        self, times, states, velocities, energies, costs, state_names, velocity_names
    ):
        if len(set(map(len, (times, states, velocities, energies, costs)))) != 1:
            raise ValueError("trajectory arrays must have equal length")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        self._set(times, states, velocities, energies, costs, state_names, velocity_names)

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


def step_count(horizon, dt):
    """Number of RK4 steps in horizon, at most _MAX_STEPS.

    horizon and dt must be positive, horizon/dt whole, horizon within
    float range, and dt must not round to 0.0 as a float.
    """
    horizon, dt = Fraction(horizon), Fraction(dt)
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be positive")
    if horizon > sys.float_info.max:
        raise ValueError("horizon is beyond float range")
    if not float(dt):
        raise ValueError("dt is below float range: it rounds to 0.0")
    steps = horizon / dt
    if steps.denominator != 1:
        raise ValueError(
            "horizon %s is not a whole number of steps of dt = %s" % (horizon, dt)
        )
    if steps > _MAX_STEPS:
        raise ValueError(
            "horizon %s is %s steps of dt = %s, more than %d" % (horizon, steps, dt, _MAX_STEPS)
        )
    return int(steps)


def _rk4(f, sample, y0, horizon, dt, what):
    """Fixed-step RK4 of y' = f(t, y), sampled at t = 0 and after every step.

    The last component of y is the running cost; sample(t, y) gives the
    state, velocity and energy of one sample.  A division by zero (a
    pole) and an overflow or a non-finite new state (a blow-up) end the
    run with a TrajectoryError dated at the start of the failing step.
    Returns the Trajectory columns times, states, velocities, energies
    and costs.
    """
    steps = step_count(horizon, dt)
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
                y_next = [
                    yi + (h / 6) * (a + 2 * b + 2 * c + d)
                    for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
                ]
                # A sum is finite only if every term is.
                if not math.isfinite(sum(y_next)):
                    raise OverflowError
                y = y_next
                t = i * h
            x, v, e = sample(t, y)
            times.append(t)
            states.append(x)
            vels.append(v)
            energies.append(e)
            costs.append(y[-1])
    except ZeroDivisionError:
        raise TrajectoryError("pole in %s" % what, t, y[:-1]) from None
    except OverflowError:
        raise TrajectoryError("blow-up in %s" % what, t, y[:-1]) from None
    return tuple(tuple(column) for column in columns)


def _axpy(y, a, k):
    return [yi + a * ki for yi, ki in zip(y, k)]


def integrate(system, controls, x0, horizon, dt):
    """RK4 trajectory of xdot = M(x) * y(t) with running cost int L dt."""
    names = system.chart.coords
    n = len(names)
    all_names = names + system.inputs
    inputs = [Expr.variable(u) for u in system.inputs]
    xdot = [sum(m * u for m, u in zip(row, inputs)) for row in system.matrix.entries]
    flow = compile_expr([*xdot, system.lagrangian], all_names)
    e_fun = compile_expr(_energy_expr(system.lagrangian, system.inputs), all_names)

    def f(t, y):
        return flow(*y[:n], *[float(v) for v in controls(t)])

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
    return sum(Expr.variable(v) * lagrangian.diff(v) for v in velocity_names) - lagrangian


def _el_runtime(model, lagrangian, velocities):
    """Exact pieces of the Lagrange equations: (xdot, force, c, momenta, E).

    xdot^i = rho^i_a z^a, force_g = rho^i_g dL/dx^i - d2L/dz^g dx^i xdot^i,
    c[g][b][a] = C^a_{g b}, momenta_a = dL/dz^a, and E is the energy.
    """
    coords, r = model.bundle.base.coords, model.bundle.rank
    z = [Expr.variable(v) for v in velocities]
    xdot = [sum(z[a] * model.anchor[a, i] for a in range(r)) for i in range(len(coords))]
    momenta = [lagrangian.diff(v) for v in velocities]
    force = [
        sum(
            model.anchor[g, i] * lagrangian.diff(x) - p.diff(x) * xdot[i]
            for i, x in enumerate(coords)
        )
        for g, p in enumerate(momenta)
    ]
    return xdot, force, model.structure, momenta, _energy_expr(lagrangian, velocities)


def el_rhs(problem, x, z):
    """Right-hand side (xdot, zdot) of the Lagrange equations at (x, z).

    xdot^i = rho^i_alpha z^alpha and zdot = H^-1 b, derived exactly,
    with H the velocity Hessian and

        b = rho^i_gamma dL/dx^i - C^alpha_{gamma beta} z^beta dL/dz^alpha
            - d2L/dx dz . xdot

    A state where H is singular raises RegularityError.
    """
    flow, _ = problem._flow
    values = flow(*map(float, x), *map(float, z))
    return values[: len(x)], values[len(x) : -1]


def solve_el(problem):
    """RK4 trajectory of the Lagrange flow, with energy per sample."""
    coords = problem.model.bundle.base.coords
    n = len(coords)
    flow, e_fun = problem._flow

    def f(t, y):
        return flow(*y[:-1])

    def sample(t, y):
        state = y[:-1]
        return tuple(state[:n]), tuple(state[n:]), e_fun(*state)

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
