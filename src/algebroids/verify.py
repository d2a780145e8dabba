"""The built-in worked example and its reproduction checks.

The bundled scenario describes one three-input control system on a
reflected chart, the point reflection s_O, the rank-2 frame (t1, t2)
spanning the transformed directions, and the reduction matrix R.
builtin_data() loads it and adds what the file lacks: the same system
on the unreflected chart and the matrices the worked example displays.
verify_paper() re-derives every displayed identity of that worked
example from scratch and compares exactly; it takes no tolerances and
no random seeds.

The expected matrices are kept in a mutable container so tests can
inject faults and watch the right check fail.
"""

from __future__ import annotations

import functools
import warnings

from ._record import Record
from .algebroid import AlgebroidModel, bracket, induced_anchor
from .bundle import (
    Chart,
    VBMorphism,
    apply_morphism,
    compose,
    identity_map,
    make_coord_map,
    pullback,
    tangent_bundle,
)
from .control import ControlSystem, verify_transform
from .matcalc import (
    FMatrix,
    RankDropWarning,
    adjugate_inverse,
    determinant,
    left_pseudo_inverse,
    matmul,
)
from .report import Report
from .scenario import BUNDLED_SCENARIO, load_scenario
from .symexpr import parse

__all__ = ["BUNDLED_SCENARIO", "WorkedExample", "builtin_data", "verify_paper"]

CHECKS = (
    "transform-equivalence",
    "factorization",
    "gram-matrix",
    "gram-determinant",
    "gram-inverse",
    "left-inverse",
    "reduction-inverse",
    "morphism-composition",
    "frame-bracket",
    "induced-anchor",
)


class WorkedExample(Record):
    """All inputs and expected outputs of the built-in example.

    mirror maps the x chart to the t chart, both components minus the
    identity; s_o is the same reflection as a self-map of the t chart.
    Unlike the other records, a WorkedExample can be changed.
    """

    _fields = (
        "x_chart", "t_chart", "mirror", "s_o", "sys_hat", "sys_tilde", "frame",
        "tangent", "rho", "r", "g_display", "m_tilde", "rtr_expected",
        "det_expected", "rtr_inv_expected", "r_left_expected",
        "g_tilde_x_expected", "classical", "generalized",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


def _mat(rows, names):
    return FMatrix([[parse(e, names) for e in row] for row in rows])


def builtin_data():
    """A fresh copy of the worked-example data, loaded from the bundled scenario.

    The generalized model is the scenario's classical model seen
    through the base maps h = eta = s_O.
    """
    scen = load_scenario(BUNDLED_SCENARIO)
    t_chart = scen.chart
    x_chart = Chart("sigma", ("x1", "x2", "x3"))
    xn, tn = x_chart.coords, t_chart.coords

    model, s_o = scen.model, scen.maps["s_O"]
    neg_x = tuple(-x_chart.var(c) for c in xn)
    mirror = make_coord_map(x_chart, t_chart, neg_x, s_o.inverse)

    sys_tilde = scen.control
    m_hat = _mat([["0", "-x2", "1"], ["-x1", "-x2", "1"], ["1", "0", "0"]], xn)
    sys_hat = ControlSystem(x_chart, m_hat, sys_tilde.inputs, sys_tilde.lagrangian)

    g_display = _mat([["xt1", "-1"], ["0", "-1"], ["-1", "0"]], tn)
    rtr_expected = _mat([["1 + xt1^2", "-xt1"], ["-xt1", "2"]], tn)
    det_expected = parse("2 + xt1^2", tn)
    rtr_inv_expected = _mat(
        [
            ["2/(2 + xt1^2)", "xt1/(2 + xt1^2)"],
            ["xt1/(2 + xt1^2)", "(1 + xt1^2)/(2 + xt1^2)"],
        ],
        tn,
    )
    r_left_expected = _mat(
        [
            ["-xt1/(2 + xt1^2)", "xt1/(2 + xt1^2)", "2/(2 + xt1^2)"],
            ["1/(2 + xt1^2)", "(1 + xt1^2)/(2 + xt1^2)", "xt1/(2 + xt1^2)"],
        ],
        tn,
    )
    g_tilde_x_expected = _mat(
        [
            ["x1/(2 + x1^2)", "-x1/(2 + x1^2)", "-2/(2 + x1^2)"],
            ["-1/(2 + x1^2)", "(-1 - x1^2)/(2 + x1^2)", "-x1/(2 + x1^2)"],
        ],
        xn,
    )

    return WorkedExample(
        x_chart=x_chart,
        t_chart=t_chart,
        mirror=mirror,
        s_o=s_o,
        sys_hat=sys_hat,
        sys_tilde=sys_tilde,
        frame=scen.bundle,
        tangent=tangent_bundle(t_chart),
        rho=model.anchor,
        r=scen.matrices["R"],
        g_display=g_display,
        m_tilde=sys_tilde.matrix,
        rtr_expected=rtr_expected,
        det_expected=det_expected,
        rtr_inv_expected=rtr_inv_expected,
        r_left_expected=r_left_expected,
        g_tilde_x_expected=g_tilde_x_expected,
        classical=model,
        generalized=AlgebroidModel(
            model.bundle, model.anchor, s_o, s_o, model.structure
        ),
    )


def _matrix_witness(got, want):
    if got.shape() != want.shape():
        return "shapes differ: %s vs %s" % (got.shape(), want.shape())
    for i in range(got.nrows):
        for j in range(got.ncols):
            if got[i, j] != want[i, j]:
                return "entry (%d,%d): got %s, wanted %s" % (
                    i + 1,
                    j + 1,
                    got[i, j],
                    want[i, j],
                )
    return ""


def verify_paper(data=None):
    """Re-derive the worked example's identities; all comparisons exact."""
    if data is None:
        data = builtin_data()
    report = Report()

    def run(name, fn):
        try:
            passed, witness = fn()
        except Exception as err:  # a broken input should fail its check, not the run
            passed, witness = False, "error: %s" % err
        report.add(name, passed, witness if not passed else "")

    # Shared inputs, derived on first use; an exception is not cached, so
    # it fails each check that needs the value and no other.
    @functools.cache
    def gram():
        return matmul(data.r.transpose(), data.r)

    @functools.cache
    def r_left():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDropWarning)
            return left_pseudo_inverse(data.r)

    def transform_equivalence():
        ok = verify_transform(data.sys_hat, data.sys_tilde, data.mirror)
        return ok, "pullback of the system matrix does not match"

    def factorization():
        got = matmul(data.g_display, data.rho)
        return got == data.m_tilde, _matrix_witness(got, data.m_tilde)

    def gram_matrix():
        got = gram()
        return got == data.rtr_expected, _matrix_witness(got, data.rtr_expected)

    def gram_determinant():
        got = determinant(gram())
        return got == data.det_expected, "got %s, wanted %s" % (
            got,
            data.det_expected,
        )

    def gram_inverse():
        got = adjugate_inverse(gram())
        return got == data.rtr_inv_expected, _matrix_witness(
            got, data.rtr_inv_expected
        )

    def left_inverse():
        got = r_left()
        if got != data.r_left_expected:
            return False, _matrix_witness(got, data.r_left_expected)
        prod = matmul(got, data.r)
        eye = FMatrix.identity(2)
        return prod == eye, _matrix_witness(prod, eye)

    def reduction_inverse():
        renaming = dict(zip(data.t_chart.coords, data.x_chart.coords))
        g_tilde = (-r_left()).rename(renaming)
        if g_tilde != data.g_tilde_x_expected:
            return False, _matrix_witness(g_tilde, data.g_tilde_x_expected)
        prod = matmul(g_tilde, data.g_display.rename(renaming))
        eye = FMatrix.identity(2)
        return prod == eye, _matrix_witness(prod, eye)

    def morphism_composition():
        ident = identity_map(data.t_chart)
        r_morph = VBMorphism(data.tangent, data.frame, ident, data.r)
        tso = VBMorphism(data.tangent, data.tangent, data.s_o, -FMatrix.identity(3))
        g_morph = VBMorphism.from_display(
            data.tangent, data.frame, data.s_o, data.g_display
        )
        got = compose(r_morph, tso)
        if got.matrix != g_morph.matrix:
            return False, _matrix_witness(got.matrix, g_morph.matrix)
        if got.base != g_morph.base:
            return False, "base maps differ"
        z = data.tangent.section(["xt2", "1 + xt1", "xt3^2"])
        lhs = apply_morphism(got, z)
        rhs = apply_morphism(r_morph, apply_morphism(tso, z))
        return lhs == rhs, "composite acts differently on a sample section"

    def frame_bracket():
        t1 = data.frame.frame_section(0)
        t2 = data.frame.frame_section(1)
        got = bracket(data.classical, t1, t2)
        return got == t1, "[t1,t2] = %s, wanted t1" % got

    def induced():
        theta = induced_anchor(data.generalized)
        if theta.matrix != -data.rho:
            return False, _matrix_witness(theta.matrix, -data.rho)
        if not theta.base.is_identity():
            return False, "induced anchor base map is not the identity"
        tso = VBMorphism(data.tangent, data.tangent, data.s_o, -FMatrix.identity(3))
        rho_eta = VBMorphism(data.frame, data.tangent, data.s_o, data.rho)
        got = compose(tso, rho_eta)
        if got.matrix != theta.matrix or got.base != theta.base:
            return False, "composition through the tangent lift differs"
        # the twisted derivation a(t_a)(f) = rho_a^i (d(f o h)/dx^i) o h^-1,
        # from its definition, on each coordinate function f
        model, coords = data.generalized, data.t_chart.coords
        back = dict(zip(coords, model.h.inverse))
        for a in range(data.frame.rank):
            for j, name in enumerate(coords):
                fh = pullback(data.t_chart.var(name), model.h)
                lhs = sum(
                    model.anchor[a, i] * fh.diff(x).subs(back) for i, x in enumerate(coords)
                )
                if lhs != theta.matrix[a, j]:
                    return False, "derivation of %s along %s is %s, not %s" % (
                        name,
                        data.frame.frame[a],
                        lhs,
                        theta.matrix[a, j],
                    )
        return True, ""

    run("transform-equivalence", transform_equivalence)
    run("factorization", factorization)
    run("gram-matrix", gram_matrix)
    run("gram-determinant", gram_determinant)
    run("gram-inverse", gram_inverse)
    run("left-inverse", left_inverse)
    run("reduction-inverse", reduction_inverse)
    run("morphism-composition", morphism_composition)
    run("frame-bracket", frame_bracket)
    run("induced-anchor", induced)
    return report
