"""Charts, coordinate maps, vector bundles, sections and morphisms.

A bundle lives over a single global coordinate chart and is trivialized
by a named frame, so a section is just a tuple of rational-function
coefficients.  A morphism is a coefficient matrix together with a base
diffeomorphism; its action on sections follows the local representation

    w^a = (sum_alpha z^alpha * Phi[alpha][a]) composed with inverse base map,

with the matrix stored over the source chart, rows indexed by the
source frame.
"""

from __future__ import annotations

from ._record import Record
from .matcalc import FMatrix, matmul
from .symexpr import Expr, parse as parse_expr

__all__ = [
    "Chart",
    "CoordMap",
    "Bundle",
    "Section",
    "VBMorphism",
    "GeometryError",
    "NotDiffeomorphismError",
    "make_coord_map",
    "identity_map",
    "compose_maps",
    "tangent_bundle",
    "tangent_lift",
    "apply_morphism",
    "compose",
    "pullback",
]


class GeometryError(Exception):
    """Mismatched charts, bundles or dimensions."""


class NotDiffeomorphismError(GeometryError):
    """A coordinate map whose forward/inverse components do not invert."""


class Chart(Record):
    """A named global coordinate chart."""

    _fields = ("name", "coords")

    def __init__(self, name, coords):
        coords = tuple(coords)
        if len(coords) < 1:
            raise GeometryError("chart %s has no coordinates" % name)
        if len(set(coords)) != len(coords):
            raise GeometryError("chart %s repeats a coordinate name" % name)
        self._set(name, coords)

    @property
    def dim(self):
        return len(self.coords)

    def var(self, name):
        if name not in self.coords:
            raise GeometryError("%s is not a coordinate of chart %s" % (name, self.name))
        return Expr.variable(name)

    def parse(self, text):
        """Parse an expression over this chart's coordinates."""
        return parse_expr(text, self.coords)


class CoordMap(Record):
    """A rational diffeomorphism between charts.

    forward[j] writes target coordinate j in source coordinates;
    inverse[i] writes source coordinate i in target coordinates.  Both
    round trips are verified symbolically at construction.
    """

    _fields = ("src", "dst", "forward", "inverse")

    def __init__(self, src, dst, forward, inverse):
        fwd = tuple(forward)
        inv = tuple(inverse)
        if len(fwd) != dst.dim or len(inv) != src.dim:
            raise GeometryError(
                "map %s -> %s needs %d forward and %d inverse components"
                % (src.name, dst.name, dst.dim, src.dim)
            )
        to_src = dict(zip(src.coords, inv))
        to_dst = dict(zip(dst.coords, fwd))
        for j, comp in enumerate(fwd):
            if comp.subs(to_src) != Expr.variable(dst.coords[j]):
                raise NotDiffeomorphismError(
                    "not a diffeomorphism as presented: forward component %d "
                    "does not invert" % (j + 1)
                )
        for i, comp in enumerate(inv):
            if comp.subs(to_dst) != Expr.variable(src.coords[i]):
                raise NotDiffeomorphismError(
                    "not a diffeomorphism as presented: inverse component %d "
                    "does not invert" % (i + 1)
                )
        self._set(src, dst, fwd, inv)

    def inverse_map(self):
        return CoordMap(self.dst, self.src, self.inverse, self.forward)

    def is_identity(self):
        return self.src == self.dst and all(
            comp == Expr.variable(name)
            for comp, name in zip(self.forward, self.dst.coords)
        )

    def jacobian(self):
        """J[j][i] = d(forward_j)/d(source_i), over the source chart."""
        return FMatrix(
            [
                [comp.diff(name) for name in self.src.coords]
                for comp in self.forward
            ]
        )


def make_coord_map(src, dst, fwd, inv):
    """Build a CoordMap, verifying both round-trip identities."""
    return CoordMap(src, dst, tuple(fwd), tuple(inv))


def identity_map(chart):
    comps = tuple(Expr.variable(name) for name in chart.coords)
    return CoordMap(chart, chart, comps, comps)


def compose_maps(outer, inner):
    """The coordinate map outer after inner."""
    if inner.dst != outer.src:
        raise GeometryError(
            "cannot compose %s->%s after %s->%s"
            % (outer.src.name, outer.dst.name, inner.src.name, inner.dst.name)
        )
    to_inner_src = dict(zip(outer.src.coords, inner.forward))
    to_outer_dst = dict(zip(inner.dst.coords, outer.inverse))
    fwd = tuple(comp.subs(to_inner_src) for comp in outer.forward)
    inv = tuple(comp.subs(to_outer_dst) for comp in inner.inverse)
    return CoordMap(inner.src, outer.dst, fwd, inv)


def pullback(f, cmap):
    """Compose a function over the target chart with the map."""
    return f.subs(dict(zip(cmap.dst.coords, cmap.forward)))


class Bundle(Record):
    """A trivialized vector bundle: a base chart plus frame names."""

    _fields = ("base", "frame")

    def __init__(self, base, frame):
        frame = tuple(frame)
        if len(frame) < 1:
            raise GeometryError("bundle needs a nonempty frame")
        if len(set(frame)) != len(frame):
            raise GeometryError("bundle repeats a frame name")
        self._set(base, frame)

    @property
    def rank(self):
        return len(self.frame)

    def section(self, coeffs):
        parsed = tuple(
            self.base.parse(c) if isinstance(c, str) else _as_expr(c)
            for c in coeffs
        )
        return Section(self, parsed)

    def frame_section(self, index):
        """The section t_index (0-based) of the frame."""
        coeffs = [Expr.constant(0)] * self.rank
        coeffs[index] = Expr.constant(1)
        return Section(self, tuple(coeffs))


def _as_expr(value):
    if isinstance(value, Expr):
        return value
    return Expr.constant(value)


def tangent_bundle(chart):
    """The coordinate-frame tangent bundle of a chart (frame d<coord>)."""
    return Bundle(chart, tuple("d" + name for name in chart.coords))


class Section(Record):
    """A section written in the bundle's frame: sum of coeffs[a] * frame[a]."""

    _fields = ("bundle", "coeffs")

    def __init__(self, bundle, coeffs):
        coeffs = tuple(_as_expr(c) for c in coeffs)
        if len(coeffs) != bundle.rank:
            raise GeometryError(
                "section needs %d coefficients, got %d" % (bundle.rank, len(coeffs))
            )
        allowed = set(bundle.base.coords)
        for c in coeffs:
            extra = set(c.vars) - allowed
            if extra:
                raise GeometryError(
                    "section coefficient %s uses foreign variables %s"
                    % (c, sorted(extra))
                )
        self._set(bundle, coeffs)

    def __add__(self, other):
        if not isinstance(other, Section) or other.bundle != self.bundle:
            return NotImplemented
        return Section(
            self.bundle,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        if not isinstance(other, Section) or other.bundle != self.bundle:
            return NotImplemented
        return Section(
            self.bundle,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return Section(self.bundle, tuple(-c for c in self.coeffs))

    def __rmul__(self, scalar):
        return Section(self.bundle, tuple(_as_expr(scalar) * c for c in self.coeffs))

    __mul__ = __rmul__

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __str__(self):
        parts = []
        for c, name in zip(self.coeffs, self.bundle.frame):
            if c.is_zero():
                continue
            if c == Expr.constant(1):
                parts.append(name)
            elif c == Expr.constant(-1):
                parts.append("-%s" % name)
            else:
                parts.append("(%s)*%s" % (c, name))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class VBMorphism(Record):
    """A vector-bundle morphism: component matrix over a base map.

    matrix[alpha][a] is the coefficient of target frame element a in the
    image of source frame element alpha, written over the SOURCE chart.
    """

    _fields = ("source", "target", "base", "matrix")

    def __init__(self, source, target, base, matrix):
        if base.src != source.base or base.dst != target.base:
            raise GeometryError("base map does not connect the two bundles")
        if matrix.shape() != (source.rank, target.rank):
            raise GeometryError(
                "morphism matrix must be %dx%d, got %dx%d"
                % ((source.rank, target.rank) + matrix.shape())
            )
        allowed = set(source.base.coords)
        for row in matrix.entries:
            for e in row:
                extra = set(e.vars) - allowed
                if extra:
                    raise GeometryError(
                        "morphism entry %s uses foreign variables %s"
                        % (e, sorted(extra))
                    )
        self._set(source, target, base, matrix)

    def display_matrix(self):
        """The matrix with entries transported to the target chart.

        This is the form used when a morphism's images are written down
        as functions of the target coordinates.
        """
        return self.matrix.subs(dict(zip(self.source.base.coords, self.base.inverse)))

    @classmethod
    def from_display(cls, source, target, base, display):
        """Build a morphism from its target-chart display matrix."""
        stored = display.subs(dict(zip(target.base.coords, base.forward)))
        return cls(source, target, base, stored)


def apply_morphism(m, z):
    """Push a section through a morphism."""
    if z.bundle != m.source:
        raise GeometryError("section does not belong to the morphism's source")
    to_target = dict(zip(m.source.base.coords, m.base.inverse))
    coeffs = []
    for a in range(m.target.rank):
        total = Expr.constant(0)
        for alpha in range(m.source.rank):
            total = total + z.coeffs[alpha] * m.matrix[alpha, a]
        coeffs.append(total.subs(to_target))
    return Section(m.target, tuple(coeffs))


def compose(outer, inner):
    """The morphism acting as outer after inner.

    The matrix is inner.matrix times outer.matrix pulled back along
    inner's base map, which is exactly what makes apply_morphism of the
    result agree with applying inner then outer.
    """
    if inner.target != outer.source:
        raise GeometryError("inner target bundle differs from outer source bundle")
    pulled = outer.matrix.subs(dict(zip(outer.source.base.coords, inner.base.forward)))
    return VBMorphism(
        inner.source,
        outer.target,
        compose_maps(outer.base, inner.base),
        matmul(inner.matrix, pulled),
    )


def tangent_lift(cmap):
    """The induced morphism of tangent bundles over a coordinate map.

    Row i of the component matrix carries d/dx_i to its image, so the
    stored matrix is the transpose of the Jacobian.
    """
    jac = cmap.jacobian()
    return VBMorphism(
        tangent_bundle(cmap.src),
        tangent_bundle(cmap.dst),
        cmap,
        jac.transpose(),
    )
