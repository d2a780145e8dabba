"""Correctness checks on the program's outputs, recomputed apart from it.

`check(op, scenario_path, out_path, rng)` returns None when the output
of one operation is right and a one-line reason otherwise; the caller
has already compared the exit status with `op.status`.  The
exact checks evaluate at seeded rational points in Fraction arithmetic;
the trajectory checks recompute energy, |x|^2 and, in floats from the
generator's own formulas, the whole RK4 run of `simulate` and the first
EL_PREFIX_STEPS steps of `euler-lagrange`.  Only the
`compose` check calls into the program, to rebuild the composites that
the CLI does not print.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

import poly

# Relative agreement asked of a trajectory recomputed here; both sides
# run the same RK4 on the same polynomials, so only float rounding and
# the 12 printed digits separate them.
RK4_AGREEMENT = 1e-8
# Drift allowed in a conserved quantity: RK4's global error is O(dt^4),
# so the bound is DRIFT_FACTOR * dt^4 * horizon * (1 + |initial value|).
# The factor leaves room for fast trajectories (the error constant grows
# with the rotation rate); a first-order integrator drifts far more.
DRIFT_FACTOR = 1e4
# Steps at the start of each Euler-Lagrange run that are recomputed here.
# Conserved quantities do not see the sign or index order of the
# structure term; the recomputed flow does, long before it leaves the
# neighbourhood where two RK4 runs of the same equations stay together.
EL_PREFIX_STEPS = 50


def check(op, scenario_path, out_path, rng):
    try:
        return _CHECKERS[op.command](op, scenario_path, out_path, rng)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return "%s: unreadable output (%s)" % (op.label, err)


def drift_bound(dt, steps, initial):
    dt = float(dt)
    return DRIFT_FACTOR * dt**4 * (steps * dt) * (1 + abs(initial))


def _points(rng, coords, count=3):
    for _ in range(count):
        yield {c: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for c in coords}


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _read_report(out_path):
    with open(out_path) as f:
        return json.load(f)


def check_pinv(op, scenario_path, out_path, rng):
    report = _read_report(out_path)
    if len(report) != 1 or not report[0]["pass"]:
        return "pinv report is not one passing check: %r" % report
    rows = [line.strip() for line in report[0]["witness"].splitlines() if line.strip()]
    left = [[e.strip() for e in line[1:-1].split(",")] for line in rows]
    r, coords = op.expect["matrix"], op.expect["coords"]
    if len(left) != len(r[0]) or any(len(row) != len(r) for row in left):
        return "pinv printed a %dx%d matrix for a %dx%d input" % (
            len(left), len(left[0]) if left else 0, len(r), len(r[0]))
    ncols = len(r[0])
    ident = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    tried = 0
    for point in _points(rng, coords, 8):
        rv = [[poly.evaluate(p, [point[c] for c in coords]) for p in row] for row in r]
        try:
            lv = [[poly.evaluate_text(e, point) for e in row] for row in left]
        except ZeroDivisionError:
            continue
        tried += 1
        if _matmul(lv, rv) != ident:
            return "L*R != I at %s" % point
        rt = _transpose(rv)
        if _matmul(_matmul(rt, rv), lv) != rt:
            return "(R^t R) L != R^t at %s" % point
        if tried == 3:
            return None
    return "pinv result has poles at %d of 8 sampled points" % (8 - tried)


def check_axioms_report(op, scenario_path, out_path, rng):
    expected = op.expect["passes"]
    report = _read_report(out_path)
    names = [item["check"] for item in report]
    if sorted(names) != sorted(["antisymmetry", "jacobi", "leibniz", "anchor-morphism"]):
        return "check reported %s" % names
    for item in report:
        if item["pass"] != (item["check"] in expected):
            return "check %s: pass=%s, expected %s" % (
                item["check"], item["pass"], item["check"] in expected)
        if not item["pass"] and not item["witness"]:
            return "check %s failed without a witness" % item["check"]
    return None


def check_compose(op, scenario_path, out_path, rng):
    report = _read_report(out_path)
    names = [item["check"] for item in report]
    if sorted(names) != sorted(op.expect["pairs"]):
        return "compose reported pairs %s, expected %s" % (names, op.expect["pairs"])
    failed = [item["check"] for item in report if not item["pass"]]
    if failed:
        return "compose failed %s" % failed
    # The CLI prints no matrices: rebuild each pair with the program's
    # compose and test it against the chain rule computed here.
    import algebroids.bundle as bundle
    from algebroids.scenario import load_scenario

    scen = load_scenario(scenario_path)
    coords = op.expect["coords"]
    n = len(coords)
    maps = op.expect["maps"]
    jac = {
        name: [[poly.deriv(comp, i) for i in range(n)] for comp in fwd]
        for name, (fwd, _) in maps.items()
    }
    lifts = {name: bundle.tangent_lift(scen.maps[name]) for name in maps}
    points = list(_points(rng, coords, 2))
    for outer in maps:
        for inner in maps:
            both = bundle.compose(lifts[outer], lifts[inner])
            for point in points:
                p = [point[c] for c in coords]
                image = [poly.evaluate(comp, p) for comp in maps[inner][0]]
                outer_fwd = [poly.evaluate(comp, image) for comp in maps[outer][0]]
                got_fwd = [poly.evaluate_text(str(e), point) for e in both.base.forward]
                if got_fwd != outer_fwd:
                    return "compose T[%s]*T[%s]: base map wrong at %s" % (outer, inner, point)
                j_in = [[poly.evaluate(d, p) for d in row] for row in jac[inner]]
                j_out = [[poly.evaluate(d, image) for d in row] for row in jac[outer]]
                # Row i of a lift carries d/dx_i: entry (i, k) of the
                # composite is sum_j dinner_j/dx_i * douter_k/dy_j.
                want = _matmul(_transpose(j_in), _transpose(j_out))
                got = [
                    [poly.evaluate_text(str(e), point) for e in row]
                    for row in both.matrix.entries
                ]
                if got != want:
                    return "compose T[%s]*T[%s]: matrix wrong at %s" % (outer, inner, point)
    return None


def _read_csv(out_path):
    with open(out_path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _float_fun(p, nargs):
    args = ["a%d" % i for i in range(nargs)]
    return eval("lambda %s: %s" % (", ".join(args), poly.float_source(p, args)), {})


def _energy_funs(lag, nx, nv):
    """E = v . dL/dv - L as a float function of (x..., v...)."""
    e = poly.scale(lag, -1)
    for a in range(nv):
        e = poly.add(e, poly.mul(poly.var(nx + a, nx + nv), poly.deriv(lag, nx + a)))
    return _float_fun(e, nx + nv)


def _trajectory_common(op, header, rows, nx, nv):
    steps, dt = op.expect["steps"], op.expect["dt"]
    if len(header) != 1 + nx + nv + 2 or header[0] != "t" or header[-2:] != ["E", "cost"]:
        return "unexpected CSV header %s" % header
    if len(rows) != steps + 1:
        return "%d samples, expected %d" % (len(rows), steps + 1)
    if any(len(row) != len(header) for row in rows):
        return "ragged CSV rows"
    horizon = float(steps * dt)
    if abs(rows[-1][0] - horizon) > 1e-9 * max(1.0, horizon):
        return "final time %r, horizon %r" % (rows[-1][0], horizon)
    return None


def _rk4(f, y, h, steps):
    """Fixed-step RK4 of ydot = f(t, y); the samples (t, y) including t=0."""
    out = [(0.0, y)]
    for i in range(steps):
        t = i * h
        k1 = f(t, y)
        k2 = f(t + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
        k3 = f(t + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
        k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + (h / 6) * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        out.append(((i + 1) * h, y))
    return out


def _solve(a, b):
    """x with a x = b, by Gaussian elimination with partial pivoting."""
    n = len(b)
    m = [list(row) + [v] for row, v in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for k in range(col, n + 1):
                m[r][k] -= factor * m[col][k]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (m[r][n] - sum(m[r][k] * x[k] for k in range(r + 1, n))) / m[r][r]
    return x


def el_field(expect):
    """f(t, (x, z)) = (xdot, zdot) of the Lagrange equations on a Lie algebroid.

    Built from the generator's anchor rho[a][i], structure c[g][a][b] =
    C^g_ab and Lagrangian L(x, z):

        xdot^i = rho^i_a z^a
        H zdot_g = rho^i_g dL/dx^i - C^a_gb z^b dL/dz^a - d2L/dz^g dx^i xdot^i

    with H the velocity Hessian d2L/dz dz.
    """
    lag, rho, c = expect["lagrangian"], expect["anchor"], expect["structure"]
    nx, r = expect["ncoords"], len(rho)
    rho_f = [[_float_fun(p, nx) for p in row] for row in rho]
    c_f = [[[_float_fun(c[a][g][b], nx) for a in range(r)] for b in range(r)] for g in range(r)]
    dldx = [_float_fun(poly.deriv(lag, i), nx + r) for i in range(nx)]
    dldz = [_float_fun(poly.deriv(lag, nx + a), nx + r) for a in range(r)]
    hess = [
        [_float_fun(poly.deriv(poly.deriv(lag, nx + a), nx + b), nx + r) for b in range(r)]
        for a in range(r)
    ]
    mixed = [
        [_float_fun(poly.deriv(poly.deriv(lag, nx + g), i), nx + r) for i in range(nx)]
        for g in range(r)
    ]

    def f(t, y):
        x, z = y[:nx], y[nx:]
        rv = [[fun(*x) for fun in row] for row in rho_f]
        xdot = [sum(z[a] * rv[a][i] for a in range(r)) for i in range(nx)]
        pz = [fun(*y) for fun in dldz]
        px = [fun(*y) for fun in dldx]
        rhs = []
        for g in range(r):
            total = sum(rv[g][i] * px[i] for i in range(nx))
            total -= sum(
                c_f[g][b][a](*x) * z[b] * pz[a] for a in range(r) for b in range(r)
            )
            total -= sum(mixed[g][i](*y) * xdot[i] for i in range(nx))
            rhs.append(total)
        zdot = _solve([[fun(*y) for fun in row] for row in hess], rhs)
        return xdot + zdot

    return f


def check_el(op, scenario_path, out_path, rng):
    header, rows = _read_csv(out_path)
    nx = op.expect["ncoords"]
    nv = len(op.expect["z0"])
    problem = _trajectory_common(op, header, rows, nx, nv)
    if problem:
        return problem
    start = [float(v) for v in op.expect["x0"] + op.expect["z0"]]
    if any(abs(a - b) > 1e-12 * (1 + abs(b)) for a, b in zip(rows[0][1:], start)):
        return "first sample %s is not the initial state %s" % (rows[0][1:], start)
    energy = _energy_funs(op.expect["lagrangian"], nx, nv)
    values = [energy(*row[1 : 1 + nx + nv]) for row in rows]
    for row, e in zip(rows, values):
        if abs(row[-2] - e) > RK4_AGREEMENT * (1 + abs(e)):
            return "E column %r at t=%r, recomputed %r" % (row[-2], row[0], e)
    steps, dt = op.expect["steps"], op.expect["dt"]
    drift = max(abs(e - values[0]) for e in values)
    if drift > drift_bound(dt, steps, values[0]):
        return "energy drifts by %.3g" % drift
    if op.expect["sphere"]:
        radii = [sum(v * v for v in row[1 : 1 + nx]) for row in rows]
        drift = max(abs(r - radii[0]) for r in radii)
        if drift > drift_bound(dt, steps, radii[0]):
            return "|x|^2 drifts by %.3g" % drift
    prefix = _rk4(el_field(op.expect), start, float(dt), min(steps, EL_PREFIX_STEPS))
    for row, (_, want) in zip(rows, prefix):
        got = row[1 : 1 + nx + nv]
        if any(abs(a - b) > RK4_AGREEMENT * (1 + abs(b)) for a, b in zip(got, want)):
            return "state at t=%r is %s, recomputed %s" % (row[0], got, want)
    return None


def reference_simulation(expect):
    """RK4 of xdot = M(x) u(t), cdot = L(x, u(t)), as the program defines it.

    The right-hand side is generated as one function from the
    generator's polynomials; rows are (t, x, u, E, cost) per sample.
    """
    m, lag = expect["matrix"], expect["lagrangian"]
    n = len(m)
    xs = ["x%d" % i for i in range(n)]
    us = ["u%d" % i for i in range(n)]
    controls = ", ".join(
        "%r + %r * t + %r * t * t" % tuple(float(c) for c in row)
        for row in expect["controls"]
    )
    rows = [
        " + ".join("(%s) * %s" % (poly.float_source(m[i][j], xs), us[j]) for j in range(n))
        for i in range(n)
    ]
    source = (
        "def controls(t):\n    return [%s]\n"
        "def f(t, y):\n    %s, _ = y\n    %s = controls(t)\n    return [%s, %s]\n"
        % (controls, ", ".join(xs), ", ".join(us), ", ".join(rows),
           poly.float_source(lag, xs + us))
    )
    space = {}
    exec(source, space)
    f, controls = space["f"], space["controls"]

    y0 = [float(v) for v in expect["x0"]] + [0.0]
    out = _rk4(f, y0, float(expect["dt"]), expect["steps"])
    energy = _energy_funs(lag, n, n)
    return [
        [t, *y[:n], *controls(t), energy(*y[:n], *controls(t)), y[n]] for t, y in out
    ]


def check_simulate(op, scenario_path, out_path, rng):
    header, rows = _read_csv(out_path)
    n = len(op.expect["x0"])
    problem = _trajectory_common(op, header, rows, n, n)
    if problem:
        return problem
    for row, ref in zip(rows, reference_simulation(op.expect)):
        for got, want in zip(row, ref):
            if abs(got - want) > RK4_AGREEMENT * (1 + abs(want)):
                return "sample at t=%r is %s, recomputed %s" % (row[0], row, ref)
    radii = [sum(v * v for v in row[1 : 1 + n]) for row in rows]
    drift = max(abs(r - radii[0]) for r in radii)
    if drift > drift_bound(op.expect["dt"], op.expect["steps"], radii[0]):
        return "|x|^2 drifts by %.3g" % drift
    return None


_CHECKERS = {
    "pinv": check_pinv,
    "check": check_axioms_report,
    "compose": check_compose,
    "euler-lagrange": check_el,
    "simulate": check_simulate,
}
