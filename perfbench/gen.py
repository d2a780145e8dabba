"""Seeded scenario generator for the four benchmark workloads.

`round_ops(workload, seed, index, bundled)` returns the operations of
one round: each is a CLI subcommand plus the text of a fresh scenario
file and what the checker needs to know about it.  The same (workload,
seed, index) always gives the same scenarios.  Every operation gets a
chart name of its own, so no two operations of a run share an input and
no value-keyed cache inside the program can serve one from another.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from poly import add, compose, const, deriv, mul, scale, sub, to_text, var
import poly

WORKLOADS = ("rational-field", "polynomial-ring", "lagrange-flow", "control-flow")


@dataclass
class Op:
    command: str
    label: str
    text: str
    args: tuple = ()
    expect: dict = field(default_factory=dict)
    status: int = 0  # the exit status a correct program gives


def round_ops(workload, seed, index, bundled):
    """The operations of round `index`; `bundled` is the worked example's text."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    tag = "r%d" % index
    if workload == "rational-field":
        ops = [
            pinv_op(rng, "%sp%d" % (tag, k), rows, cols, deg)
            for k, (rows, cols, deg) in enumerate(PINV_SHAPES)
        ]
        return ops + [rational_frame_op(rng, tag + "c")]
    if workload == "polynomial-ring":
        bad = rng.randrange(SO3_CHECKS)
        ops = [
            compose_op(rng, "%sm%d" % (tag, k), nmaps)
            for k, nmaps in enumerate(COMPOSE_MAPS)
        ]
        ops += [
            so3_check_op(rng, "%sc%d" % (tag, k), perturb=(k == bad))
            for k in range(SO3_CHECKS)
        ]
        return ops
    if workload == "lagrange-flow":
        ops = [worked_example_op(rng, tag, bundled, verbatim=(index == 0))]
        ops += [so3_el_op(rng, "%se%d" % (tag, k)) for k in range(SO3_EL_RUNS)]
        return ops
    if workload == "control-flow":
        return [simulate_op(rng, "%ss%d" % (tag, k)) for k in range(SIMULATE_RUNS)]
    raise ValueError("unknown workload %r" % workload)


# Make-up of one round of each workload.
PINV_SHAPES = ((3, 2, 2), (3, 2, 3), (4, 2, 2), (4, 2, 2), (4, 3, 2))
RATIONAL_FRAME_SAMPLES = 4
COMPOSE_MAPS = (3, 4)
SO3_CHECKS = 4
SO3_CHECK_SAMPLES = 4
SO3_EL_RUNS = 3
EL_STEPS, EL_DT = 2000, Fraction(1, 500)
SIMULATE_RUNS = 3
SIM_STEPS, SIM_DT = 4000, Fraction(1, 200)


# ---------------------------------------------------------------------------
# Random pieces


def rand_fraction(rng, span=4, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def nonzero_int(rng, span=4):
    return rng.choice([c for c in range(-span, span + 1) if c])


def names(prefix, n):
    return tuple("%s%d" % (prefix, i + 1) for i in range(n))


def det(m, n):
    """Determinant of a square matrix of polynomials by cofactors."""
    if len(m) == 1:
        return m[0][0]
    total = {}
    for j, entry in enumerate(m[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = mul(entry, det(minor, n))
        total = add(total, term if j % 2 == 0 else scale(term, -1))
    return total


def matrix_text(rows, coords, indent):
    lines = ["[" + ", ".join(to_text(e, coords) for e in row) + "]" for row in rows]
    return ("\n" + " " * indent).join(lines)


# ---------------------------------------------------------------------------
# rational-field


def pinv_op(rng, label, nrows, ncols, degree):
    """A tall two-variable matrix of full column rank with nonconstant Gram det.

    Every entry off the pivot block is a*x1^i*x2^(degree-i) + b with
    i = (row + col) mod (degree + 1): the support is fixed by the shape,
    only the coefficients and the pivot rows are drawn.  A unit
    upper-triangular block in ncols of the rows keeps the columns
    independent.
    """
    coords = ("x1", "x2")
    while True:
        rows = []
        for i in range(nrows):
            row = []
            for j in range(ncols):
                k = (i + j) % (degree + 1)
                mono = {(degree - k, k): Fraction(nonzero_int(rng))}
                row.append(add(mono, const(nonzero_int(rng), 2)))
            rows.append(row)
        for j, i in enumerate(range(nrows - ncols, nrows)):
            for k in range(ncols):
                if k < j:
                    rows[i][k] = {}
                elif k == j:
                    rows[i][k] = const(1, 2)
        gram = [
            [
                _sum(mul(rows[i][a], rows[i][b]) for i in range(nrows))
                for b in range(ncols)
            ]
            for a in range(ncols)
        ]
        if poly.degree(det(gram, 2)) > 0:
            break
    text = "[chart]\nname = %s\ncoords = x1, x2\n\n[matrix R]\nrows = %s\n" % (
        label,
        matrix_text(rows, coords, 7),
    )
    return Op(
        "pinv",
        "pinv-%dx%d-d%d" % (nrows, ncols, degree),
        text,
        ("--matrix", "R", "--json"),
        {"coords": coords, "matrix": rows},
    )


def _sum(polys):
    total = {}
    for p in polys:
        total = add(total, p)
    return total


def rational_frame_op(rng, label):
    """T R^2 in the frame e_i = (1/f) d/dx_i, f a polynomial.

    With X_i = (1/f) d_i one has [X_1, X_2] = (f_2/f^2) X_1 - (f_1/f^2) X_2,
    so C^1_{12} = f_2/f^2 and C^2_{12} = -f_1/f^2 make a Lie algebroid.
    """
    coords = ("x1", "x2")
    f = {(0, 0): Fraction(rng.randint(1, 4)), (2, 0): Fraction(nonzero_int(rng)), (0, 1): Fraction(nonzero_int(rng))}
    ft = "(%s)" % to_text(f, coords)
    lines = [
        "[chart]",
        "name = %s" % label,
        "coords = x1, x2",
        "",
        "[frame]",
        "sections = e1, e2",
        "",
        "[anchor]",
        "rho = [1/%s, 0]" % ft,
        "      [0, 1/%s]" % ft,
        "",
        "[structure]",
    ]
    for gamma, partial in ((1, deriv(f, 1)), (2, scale(deriv(f, 0), -1))):
        if partial:
            lines.append("C[%d,1,2] = (%s)/%s^2" % (gamma, to_text(partial, coords), ft))
    lines += [
        "",
        "[random]",
        "samples = %d" % RATIONAL_FRAME_SAMPLES,
    ]
    return Op(
        "check",
        "check-rational-frame",
        "\n".join(lines) + "\n",
        ("--json",),
        {"passes": {"antisymmetry", "jacobi", "leibniz", "anchor-morphism"}},
    )


# ---------------------------------------------------------------------------
# polynomial-ring


def shear(rng, n, degree):
    """A triangular polynomial shear of R^n and its polynomial inverse.

    Coordinate i moves by a*x_{i+1}^degree + b*x_n (the last one by a
    constant), possibly flipping sign; each shift depends only on later
    coordinates, so back substitution inverts the map exactly.
    """
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shifts = []
    for i in range(n):
        shift = const(nonzero_int(rng, 2), n)
        if i + 1 < n:
            mono = tuple(degree if k == i + 1 else 0 for k in range(n))
            shift = add({mono: Fraction(nonzero_int(rng, 2))}, shift)
        if i + 2 < n:
            shift = add(scale(var(n - 1, n), nonzero_int(rng, 2)), shift)
        shifts.append(shift)
    fwd = [add(scale(var(i, n), signs[i]), shifts[i]) for i in range(n)]
    inv = [None] * n
    for i in reversed(range(n)):
        repl = [inv[j] if j > i else var(j, n) for j in range(n)]
        inv[i] = scale(sub(var(i, n), compose(shifts[i], repl, n)), signs[i])
    return fwd, inv


def compose_op(rng, label, nmaps):
    coords = names("y", 3)
    maps = [shear(rng, 3, 2 + k % 2) for k in range(nmaps)]
    lines = ["[chart]", "name = %s" % label, "coords = y1, y2, y3"]
    mnames = ["m%d" % (k + 1) for k in range(nmaps)]
    for name, (fwd, inv) in zip(mnames, maps):
        lines += [
            "",
            "[map %s]" % name,
            "forward = " + ", ".join(to_text(p, coords) for p in fwd),
            "inverse = " + ", ".join(to_text(p, coords) for p in inv),
        ]
    pairs = [
        "compose T[%s]*T[%s]" % (outer, inner) for outer in mnames for inner in mnames
    ]
    return Op(
        "compose",
        "compose-%dmaps" % nmaps,
        "\n".join(lines) + "\n",
        ("--json",),
        {"coords": coords, "maps": dict(zip(mnames, maps)), "pairs": pairs},
    )


def rotation_rows(n=3):
    """Rows L_a of the rotation fields: L_1 = x2 d3 - x3 d2 and cyclic."""
    x = [var(i, n) for i in range(n)]
    zero = {}
    return [
        [zero, scale(x[2], -1), x[1]],
        [x[2], zero, scale(x[0], -1)],
        [scale(x[1], -1), x[0], zero],
    ]


def so3_structure():
    """C[gamma][alpha][beta] for the rotation fields: [L_a, L_b] = -eps_abc L_c."""
    c = [[[{} for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for a, b, g in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[g][a][b] = const(-1, 3)
        c[g][b][a] = const(1, 3)
    return c


def apply_field(row, f):
    """The vector field with components `row` applied to the polynomial f."""
    return _sum(mul(row[i], deriv(f, i)) for i in range(len(row)))


def anchor_defect(rho, c):
    """Nonzero components of [X_a, X_b] - C^g_ab X_g over all a < b."""
    r, n = len(rho), len(rho[0])
    out = []
    for a in range(r):
        for b in range(a + 1, r):
            for i in range(n):
                lie = sub(apply_field(rho[a], rho[b][i]), apply_field(rho[b], rho[a][i]))
                img = _sum(mul(c[g][a][b], rho[g][i]) for g in range(r))
                if sub(lie, img):
                    out.append((a, b, i))
    return out


def jacobi_residual(rho, c):
    """Cyclic sum [e_a,[e_b,e_c]] + ... on the frame, for polynomial data (rank 3)."""
    r = len(rho)
    total = [{} for _ in range(r)]
    for a, b, cc in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        # [e_a, C^d_{b cc} e_d] = C^d C^g_{a d} e_g + X_a(C^g_{b cc}) e_g
        for g in range(r):
            term = apply_field(rho[a], c[g][b][cc])
            for d in range(r):
                term = add(term, mul(c[d][b][cc], c[g][a][d]))
            total[g] = add(total[g], term)
    return total


def so3_check_op(rng, label, perturb):
    """so(3) acting on R^3, with the frame rescaled by a polynomial g.

    For e'_a = g e_a the anchor is g L_a and
    C'^c_{ab} = g C^c_{ab} + L_a(g) delta^c_b - L_b(g) delta^c_a.
    A perturbed model adds a polynomial to one structure function,
    chosen so that the frame Jacobi sum no longer vanishes.
    """
    n = 3
    coords = names("y", n)
    g = {
        (0, 0, 0): Fraction(rng.randint(1, 3)),
        (2, 0, 0): Fraction(nonzero_int(rng, 2)),
        (0, 1, 1): Fraction(nonzero_int(rng, 2)),
    }
    base = rotation_rows(n)
    rho = [[mul(g, e) for e in row] for row in base]
    c0 = so3_structure()
    c = [[[mul(g, c0[gm][a][b]) for b in range(3)] for a in range(3)] for gm in range(3)]
    for a in range(3):
        for b in range(3):
            if a != b:
                c[b][a][b] = add(c[b][a][b], apply_field(base[a], g))
                c[a][a][b] = sub(c[a][a][b], apply_field(base[b], g))
    if anchor_defect(rho, c) or any(jacobi_residual(rho, c)):
        raise AssertionError("so(3) model is not a Lie algebroid")
    if perturb:
        while True:
            gm = rng.randrange(3)
            a, b = sorted(rng.sample(range(3), 2))
            bump = add(
                const(rng.choice((1, -1, 2)), n),
                scale(var(rng.randrange(n), n), rng.choice((1, -1))),
            )
            trial = [[list(row) for row in plane] for plane in c]
            trial[gm][a][b] = add(trial[gm][a][b], bump)
            trial[gm][b][a] = sub(trial[gm][b][a], bump)
            if any(jacobi_residual(rho, trial)):
                c = trial
                break
    lines = [
        "[chart]",
        "name = %s" % label,
        "coords = y1, y2, y3",
        "",
        "[frame]",
        "sections = e1, e2, e3",
        "",
        "[anchor]",
        "rho = " + matrix_text(rho, coords, 6),
        "",
        "[structure]",
    ]
    for gm in range(3):
        for a in range(3):
            for b in range(a + 1, 3):
                if c[gm][a][b]:
                    lines.append(
                        "C[%d,%d,%d] = %s" % (gm + 1, a + 1, b + 1, to_text(c[gm][a][b], coords))
                    )
    lines += [
        "",
        "[random]",
        "samples = %d" % SO3_CHECK_SAMPLES,
    ]
    passes = {"antisymmetry", "leibniz"}
    if not anchor_defect(rho, c):
        passes.add("anchor-morphism")
    if not perturb:
        passes.add("jacobi")
    return Op(
        "check",
        "check-so3-perturbed" if perturb else "check-so3",
        "\n".join(lines) + "\n",
        ("--json",),
        {"passes": passes},
        status=int(perturb),
    )


# ---------------------------------------------------------------------------
# lagrange-flow


def so3_el_op(rng, label):
    """Heavy-top-like flow on the so(3) action algebroid.

    L = 1/2 sum I_a z_a^2 + z_1^4/12 - V(x), V linear plus one product
    term.  Energy and |x|^2 are conserved by the exact flow.
    """
    n = 6  # x1..x3, z1..z3
    coords, vels = names("q", 3), names("z", 3)
    inertia = [Fraction(rng.randint(2, 6), 2) for _ in range(3)]
    lag = _sum(scale(mul(var(3 + a, n), var(3 + a, n)), inertia[a] / 2) for a in range(3))
    lag = add(lag, scale(poly.power(var(3, n), 4, n), Fraction(1, 12)))
    pot = _sum(scale(var(i, n), rand_fraction(rng, 2, 2)) for i in range(3))
    i, j = rng.sample(range(3), 2)
    pot = add(pot, scale(mul(var(i, n), var(j, n)), rand_fraction(rng, 1, 2)))
    lag = sub(lag, pot)
    x0 = [Fraction(rng.randint(-4, 4), 2) for _ in range(3)]
    if not any(x0):
        x0[0] = Fraction(1)
    z0 = [Fraction(nonzero_int(rng, 3), 3) for _ in range(3)]
    rho = rotation_rows(3)
    lines = [
        "[chart]",
        "name = %s" % label,
        "coords = q1, q2, q3",
        "",
        "[frame]",
        "sections = e1, e2, e3",
        "",
        "[anchor]",
        "rho = " + matrix_text(rho, coords, 6),
        "",
        "[structure]",
        "C[3,1,2] = -1",
        "C[1,2,3] = -1",
        "C[2,3,1] = -1",
        "",
        "[euler_lagrange]",
        "lagrangian = " + to_text(lag, coords + vels),
        "velocities = z1, z2, z3",
        "x0 = " + ", ".join(str(v) for v in x0),
        "z0 = " + ", ".join(str(v) for v in z0),
        "horizon = %s" % (EL_STEPS * EL_DT),
        "dt = %s" % EL_DT,
    ]
    return Op(
        "euler-lagrange",
        "el-so3",
        "\n".join(lines) + "\n",
        (),
        {
            "lagrangian": lag,
            "ncoords": 3,
            "x0": x0,
            "z0": z0,
            "steps": EL_STEPS,
            "dt": EL_DT,
            "sphere": True,
            "anchor": rho,
            "structure": so3_structure(),
        },
    )


def scn_value(text, section, key):
    block = re.search(r"^\[%s\]\s*$(.*?)(?=^\[|\Z)" % section, text, re.M | re.S)
    if block is None:
        raise ValueError("scenario has no [%s] section" % section)
    m = re.search(r"^%s\s*=\s*(.*)$" % key, block.group(1), re.M)
    if m is None:
        raise ValueError("scenario has no %s in [%s]" % (key, section))
    return m.group(1).strip()


def frame_data(text, coords):
    """Anchor rows and C[g][a][b] = C^g_ab of a scenario, read apart from the program."""
    text = "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))
    n = len(coords)
    point = {name: var(i, n) for i, name in enumerate(coords)}
    block = re.search(r"^\[anchor\]\s*$(.*?)(?=^\[\w|\Z)", text, re.M | re.S).group(1)
    rho = [
        [poly.evaluate_poly_text(e.strip(), point, n) for e in row.split(",")]
        for row in re.findall(r"\[([^\[\]]*)\]", block)
    ]
    r = len(rho)
    c = [[[{} for _ in range(r)] for _ in range(r)] for _ in range(r)]
    block = re.search(r"^\[structure\]\s*$(.*?)(?=^\[\w|\Z)", text, re.M | re.S).group(1)
    for g, a, b, value in re.findall(r"^C\[(\d+),\s*(\d+),\s*(\d+)\]\s*=\s*(.*)$", block, re.M):
        g, a, b = int(g) - 1, int(a) - 1, int(b) - 1
        c[g][a][b] = poly.evaluate_poly_text(value.strip(), point, n)
        c[g][b][a] = scale(c[g][a][b], -1)
    return rho, c


def worked_example_op(rng, tag, bundled, verbatim):
    """The bundled worked example: verbatim in round 0, then re-seeded.

    Later rounds rename its chart and draw a new initial state, so the
    model never repeats within a run.
    """
    text = bundled
    if not verbatim:
        x0 = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        z0 = [Fraction(nonzero_int(rng, 3), 3) for _ in range(2)]
        text = re.sub(r"^name = (\w+)$", r"name = \1_%s" % tag, text, count=1, flags=re.M)
        el = re.search(r"^\[euler_lagrange\]\s*$", text, re.M).end()
        tail = text[el:]
        tail = re.sub(r"^x0 = .*$", "x0 = " + ", ".join(map(str, x0)), tail, count=1, flags=re.M)
        tail = re.sub(r"^z0 = .*$", "z0 = " + ", ".join(map(str, z0)), tail, count=1, flags=re.M)
        text = text[:el] + tail
    coords = tuple(s.strip() for s in scn_value(text, "chart", "coords").split(","))
    vels = tuple(s.strip() for s in scn_value(text, "euler_lagrange", "velocities").split(","))
    all_names = coords + vels
    lag = poly.evaluate_poly_text(
        scn_value(text, "euler_lagrange", "lagrangian"),
        {name: var(i, len(all_names)) for i, name in enumerate(all_names)},
        len(all_names),
    )
    rho, c = frame_data(text, coords)
    horizon = Fraction(scn_value(text, "euler_lagrange", "horizon"))
    dt = Fraction(scn_value(text, "euler_lagrange", "dt"))
    nums = lambda key: [
        Fraction(v) for v in scn_value(text, "euler_lagrange", key).split(",")
    ]
    return Op(
        "euler-lagrange",
        "el-worked-example",
        text,
        (),
        {
            "lagrangian": lag,
            "ncoords": len(coords),
            "x0": nums("x0"),
            "z0": nums("z0"),
            "steps": int(horizon / dt),
            "dt": dt,
            "sphere": False,
            "anchor": rho,
            "structure": c,
        },
    )


# ---------------------------------------------------------------------------
# control-flow


def simulate_op(rng, label):
    """xdot = [x]_x S(x) y(t): every M(x) of this form preserves |x|^2."""
    n = 3
    coords = names("w", n)
    s = [
        [
            add(const(rand_fraction(rng, 2, 2), n), scale(var(rng.randrange(n), n), rand_fraction(rng, 1, 4)))
            if rng.random() < 0.3
            else const(rand_fraction(rng, 2, 2), n)
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    cross = rotation_rows(n)  # [x]_x: row i of x cross y
    m = [[_sum(mul(cross[i][k], s[k][j]) for k in range(n)) for j in range(n)] for i in range(n)]
    horizon = SIM_STEPS * SIM_DT
    # Polynomial controls, scaled so |y| stays of order one over the horizon.
    controls = [
        [rand_fraction(rng, 2, 2), rand_fraction(rng, 1, 2) / horizon, rand_fraction(rng, 1, 2) / horizon**2]
        for _ in range(n)
    ]
    nl = 2 * n
    lag = _sum(scale(mul(var(n + i, nl), var(n + i, nl)), Fraction(1, 2)) for i in range(n))
    lag = add(lag, scale(mul(var(0, nl), var(n, nl)), rand_fraction(rng, 1, 2)))
    lag = add(lag, scale(mul(var(1, nl), var(1, nl)), rand_fraction(rng, 1, 2)))
    x0 = [Fraction(rng.randint(-4, 4), 2) for _ in range(n)]
    if not any(x0):
        x0[2] = Fraction(1)
    tvar = ("t",)
    lines = [
        "[chart]",
        "name = %s" % label,
        "coords = w1, w2, w3",
        "",
        "[control]",
        "M = " + matrix_text(m, coords, 4),
        "inputs = u1, u2, u3",
        "lagrangian = " + to_text(lag, coords + names("u", n)),
        "",
        "[controls]",
    ]
    for i, (a, b, c) in enumerate(controls):
        p = add(add(const(a, 1), scale(var(0, 1), b)), scale(mul(var(0, 1), var(0, 1)), c))
        lines.append("u%d = %s" % (i + 1, to_text(p, tvar)))
    lines += [
        "",
        "[simulate]",
        "x0 = " + ", ".join(map(str, x0)),
        "horizon = %s" % horizon,
        "dt = %s" % SIM_DT,
    ]
    return Op(
        "simulate",
        "simulate",
        "\n".join(lines) + "\n",
        (),
        {
            "matrix": m,
            "controls": controls,
            "lagrangian": lag,
            "x0": x0,
            "steps": SIM_STEPS,
            "dt": SIM_DT,
        },
    )
