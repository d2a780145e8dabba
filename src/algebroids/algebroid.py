"""Anchored brackets on a framed bundle, and their axiom checkers.

A model consists of an anchor matrix rho (rows indexed by the frame,
columns by the base coordinates), structure functions C^gamma_{alpha
beta} expressing the brackets of frame sections, and two base
diffeomorphisms h and eta.  Only h twists how sections differentiate
functions:

    a(u)(f) = u^alpha * rho[alpha][i] * (d(f o h)/dx^i) o h^-1.

By the chain rule this is u^alpha * theta[alpha][j] * df/dx^j with
theta = rho * (Dh)^t o h^-1, so a model twisted by h is the ordinary
anchored model with anchor theta; the constructor derives theta once.
eta must map the base chart to itself like h; it is stored and
compared, and only is_classical reads it.

The bracket of arbitrary sections is the Leibniz extension of the
frame brackets:

    [u,v]^gamma = u^alpha v^beta C^gamma_{alpha beta}
                  + a(u)(v^gamma) - a(v)(u^gamma),

so the Leibniz rule holds by construction, while antisymmetry needs
C^gamma_{alpha beta} = -C^gamma_{beta alpha} (enforced structurally)
and Jacobi plus the anchor-morphism property remain genuine checks.

The Jacobi convention used throughout is the cyclic sum
[u,[v,z]] + [z,[u,v]] + [v,[z,u]].
"""

from __future__ import annotations

import random
from itertools import combinations

from ._record import Record
from .bundle import (
    GeometryError,
    Section,
    VBMorphism,
    identity_map,
    tangent_bundle,
)
from .report import CheckResult, Report
from .symexpr import Expr

__all__ = [
    "AlgebroidModel",
    "BulletInstance",
    "anchor_derivation",
    "induced_anchor",
    "bracket",
    "check_axioms",
    "bullet_apply",
    "bullet_rho",
    "bullet_bracket",
    "check_bullet_jacobi",
]

_ZERO = Expr.constant(0)


class AlgebroidModel(Record):
    """Frame bundle, anchor, structure functions and base maps h, eta.

    structure[alpha][beta][gamma] is C^gamma_{alpha beta}; the
    constructor checks antisymmetry in (alpha, beta).  Use from_table()
    to build the cube from a sparse {(gamma, alpha, beta): Expr} table
    (1-based, with antisymmetric partners filled in automatically).
    The anchor as vector fields, theta, is kept outside the fields.
    """

    _fields = ("bundle", "anchor", "h", "eta", "structure")

    def __init__(self, bundle, anchor, h, eta, structure):
        r = bundle.rank
        n = bundle.base.dim
        if anchor.shape() != (r, n):
            raise GeometryError(
                "anchor must be %dx%d (frame rows, coordinate columns), got %dx%d"
                % ((r, n) + anchor.shape())
            )
        allowed = set(bundle.base.coords)
        for row in anchor.entries:
            for e in row:
                if set(e.vars) - allowed:
                    raise GeometryError("anchor entry %s uses foreign variables" % e)
        for m, label in ((h, "h"), (eta, "eta")):
            if m.src != bundle.base or m.dst != bundle.base:
                raise GeometryError("base map %s must map the base chart to itself" % label)
        cube = tuple(tuple(tuple(row) for row in plane) for plane in structure)
        if len(cube) != r or any(
            len(plane) != r or any(len(row) != r for row in plane) for plane in cube
        ):
            raise GeometryError("structure cube must be rank^3")
        for a in range(r):
            for b in range(r):
                for g in range(r):
                    if cube[a][b][g] != -cube[b][a][g]:
                        raise GeometryError(
                            "structure functions are not antisymmetric: "
                            "C^%d_{%d,%d} != -C^%d_{%d,%d}"
                            % (g + 1, a + 1, b + 1, g + 1, b + 1, a + 1)
                        )
        self._set(bundle, anchor, h, eta, cube)
        if h.is_identity():
            theta = anchor
        else:
            back = dict(zip(bundle.base.coords, h.inverse))
            theta = anchor * h.jacobian().transpose().subs(back)
        self.__dict__["theta"] = theta

    @classmethod
    def from_table(cls, bundle, anchor, table, h=None, eta=None):
        """Build a model from sparse structure entries.

        table maps (gamma, alpha, beta), 1-based, to C^gamma_{alpha
        beta}.  Missing antisymmetric partners are filled in; giving
        both members of a pair inconsistently is an error.
        """
        r = bundle.rank
        cube = [[[_ZERO for _ in range(r)] for _ in range(r)] for _ in range(r)]
        seen = {}
        for (g, a, b), value in table.items():
            if not (1 <= g <= r and 1 <= a <= r and 1 <= b <= r):
                raise GeometryError("structure index C[%d,%d,%d] out of range" % (g, a, b))
            value = value if isinstance(value, Expr) else Expr.constant(value)
            if a == b and not value.is_zero():
                raise GeometryError("C[%d,%d,%d] must vanish (repeated lower index)" % (g, a, b))
            for key, val in (((g, a, b), value), ((g, b, a), -value)):
                if key in seen and seen[key] != val:
                    raise GeometryError(
                        "inconsistent structure entries for C[%d,%d,%d]" % key
                    )
                seen[key] = val
        for (g, a, b), value in seen.items():
            cube[a - 1][b - 1][g - 1] = value
        if h is None:
            h = identity_map(bundle.base)
        if eta is None:
            eta = identity_map(bundle.base)
        return cls(bundle, anchor, h, eta, cube)

    def is_classical(self):
        return self.h.is_identity() and self.eta.is_identity()


def anchor_derivation(model, u, f):
    """Apply the anchor image of section u to the function f."""
    partials = [f.diff(name) for name in model.bundle.base.coords]
    total = _ZERO
    for alpha in range(model.bundle.rank):
        if u.coeffs[alpha].is_zero():
            continue
        inner = _ZERO
        for i, p in enumerate(partials):
            inner = inner + model.theta[alpha, i] * p
        total = total + u.coeffs[alpha] * inner
    return total


def induced_anchor(model):
    """The classical anchor morphism (theta, Id) from F to the tangent bundle."""
    chart = model.bundle.base
    return VBMorphism(model.bundle, tangent_bundle(chart), identity_map(chart), model.theta)


def bracket(model, u, v):
    """The bracket [u, v] as a section of the model's bundle."""
    r = model.bundle.rank
    coeffs = []
    for gamma in range(r):
        total = _ZERO
        for alpha in range(r):
            ua = u.coeffs[alpha]
            if ua.is_zero():
                continue
            for beta in range(r):
                cab = model.structure[alpha][beta][gamma]
                if cab.is_zero():
                    continue
                total = total + ua * v.coeffs[beta] * cab
        total = total + anchor_derivation(model, u, v.coeffs[gamma])
        total = total - anchor_derivation(model, v, u.coeffs[gamma])
        coeffs.append(total)
    return Section(model.bundle, tuple(coeffs))


# ---------------------------------------------------------------------------
# Axiom checking


def _random_poly(rng, coords, degree=2, terms=3):
    e = _ZERO
    for _ in range(terms):
        term = Expr.constant(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, degree)):
            term = term * Expr.variable(rng.choice(coords))
        e = e + term
    return e


def _random_section(rng, bundle):
    return Section(
        bundle,
        tuple(
            _random_poly(rng, bundle.base.coords, degree=1, terms=2)
            for _ in range(bundle.rank)
        ),
    )


def check_axioms(model, seed=0, samples=20):
    """Report antisymmetry, Jacobi, Leibniz and the anchor-morphism rule.

    The constructor refuses a cube that is not antisymmetric, and the
    bracket is the Leibniz extension of the frame brackets, so Leibniz
    passes with no check.  Exact checks and seeded draws, in this order,
    decide the rest: [u,u] = 0 on `samples` random sections; the Jacobi
    cycle on every frame triple, then on max(2, samples // 4) random
    triples up to the first failure; a([t_a,t_b]) = [a(t_a), a(t_b)]
    for a < b on each coordinate function and on samples // 4 random
    polynomials.  The anchor defect is tensorial, so frame pairs decide
    it for all sections.
    """
    rng = random.Random(seed)
    bundle = model.bundle
    coords = bundle.base.coords
    items = []

    witnesses = []
    for _ in range(samples):
        u = _random_section(rng, bundle)
        if not bracket(model, u, u).is_zero():
            witnesses.append("[u,u] != 0 for u = %s" % u)
    items.append(CheckResult("antisymmetry", not witnesses, tuple(witnesses)))

    def br(u, v):
        return bracket(model, u, v)

    witnesses = _frame_cycles(br, bundle)
    for _ in range(max(2, samples // 4)):
        u, v, z = (_random_section(rng, bundle) for _ in range(3))
        res = _jacobi_residual(br, u, v, z)
        if not res.is_zero():
            witnesses.append("cycle on random sections leaves %s" % res)
            break
    items.append(CheckResult("jacobi", not witnesses, tuple(witnesses)))

    items.append(CheckResult("leibniz", True))

    witnesses = []
    fs = [Expr.variable(c) for c in coords]
    fs += [_random_poly(rng, coords) for _ in range(samples // 4)]
    for a, b in combinations(range(bundle.rank), 2):
        ta, tb = bundle.frame_section(a), bundle.frame_section(b)
        lie = bracket(model, ta, tb)
        for f in fs:
            lhs = anchor_derivation(model, lie, f)
            rhs = anchor_derivation(model, ta, anchor_derivation(model, tb, f))
            rhs = rhs - anchor_derivation(model, tb, anchor_derivation(model, ta, f))
            if lhs != rhs:
                witnesses.append(
                    "a([%s,%s]) and the commutator differ on f = %s: %s vs %s"
                    % (bundle.frame[a], bundle.frame[b], f, lhs, rhs)
                )
    items.append(CheckResult("anchor-morphism", not witnesses, tuple(witnesses)))

    return Report(items)


def _jacobi_residual(br, u, v, z):
    # [u,[v,z]] + [z,[u,v]] + [v,[z,u]] for the bracket br
    return br(u, br(v, z)) + br(z, br(u, v)) + br(v, br(z, u))


def _frame_cycles(br, bundle):
    """Witnesses of the Jacobi cycle of br failing on frame triples."""
    frames = [bundle.frame_section(i) for i in range(bundle.rank)]
    witnesses = []
    for i, j, k in combinations(range(bundle.rank), 3):
        res = _jacobi_residual(br, frames[i], frames[j], frames[k])
        if not res.is_zero():
            witnesses.append(
                "cycle on (%s,%s,%s) leaves %s"
                % (bundle.frame[i], bundle.frame[j], bundle.frame[k], res)
            )
    return witnesses


# ---------------------------------------------------------------------------
# The bullet bracket on derivations twisted by a module endomorphism


class BulletInstance(Record):
    """Derivations of the rational functions on a chart, twisted by rho.

    rho is an m x m matrix over the chart: the endomorphism sends the
    basis derivation d_j to rho[j][i] * d_i (row j = image of d_j).
    The bullet bracket is the anchored bracket with anchor rho and no
    structure functions; that model is kept outside the fields.
    """

    _fields = ("chart", "rho")

    def __init__(self, chart, rho):
        m = chart.dim
        if rho.shape() != (m, m):
            raise GeometryError(
                "endomorphism matrix must be %dx%d, got %dx%d" % ((m, m) + rho.shape())
            )
        self._set(chart, rho)
        self.__dict__["model"] = AlgebroidModel.from_table(tangent_bundle(chart), rho, {})

    @property
    def bundle(self):
        return self.model.bundle


def bullet_rho(inst, x, f):
    """The derivation rho(X) applied to f."""
    return anchor_derivation(inst.model, x, f)


def bullet_apply(inst, x, y, f):
    """The operator X*Y = Y^i (X o d_i) + rho(X)(Y^i) d_i applied to f.

    This is second order in f; the bracket subtracts the mirror image,
    and the mixed partial derivatives cancel.
    """
    coords = inst.chart.coords
    total = _ZERO
    for i, name in enumerate(coords):
        df = f.diff(name)
        x_df = sum((c * df.diff(n) for c, n in zip(x.coeffs, coords) if not c.is_zero()), _ZERO)
        total = total + y.coeffs[i] * x_df + bullet_rho(inst, x, y.coeffs[i]) * df
    return total


def bullet_bracket(inst, x, y):
    """The bracket [X,Y] = X*Y - Y*X, a first-order derivation."""
    return bracket(inst.model, x, y)


def check_bullet_jacobi(inst):
    """Decide the Jacobi identity of the bullet bracket exactly.

    With no structure functions the frame cycles vanish, and the
    Jacobiator obeys J(u, v, f*w) = f*J(u, v, w) - D(u, v)(f)*w with
    D(d_a, d_b) = -[rho(d_a), rho(d_b)].  So Jacobi holds iff the cycle
    vanishes on every (d_a, d_b, x^i*d_a) with a < b; each cycle that
    does not is a witness.  The cycle convention matches bracket().
    """
    bundle = inst.bundle
    frames = [bundle.frame_section(a) for a in range(bundle.rank)]

    def br(x, y):
        return bracket(inst.model, x, y)

    witnesses = []
    for a, b in combinations(range(bundle.rank), 2):
        for name in inst.chart.coords:
            w = inst.chart.var(name) * frames[a]
            res = _jacobi_residual(br, frames[a], frames[b], w)
            if not res.is_zero():
                witnesses.append(
                    "cycle on (%s,%s,%s) leaves %s" % (bundle.frame[a], bundle.frame[b], w, res)
                )
    return Report([CheckResult("jacobi", not witnesses, tuple(witnesses))])
