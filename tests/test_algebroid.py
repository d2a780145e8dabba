"""Brackets, axiom checks and the twisted-derivation calculus."""

import random

import pytest

from algebroids import (
    AlgebroidModel,
    BulletInstance,
    Bundle,
    Chart,
    FMatrix,
    GeometryError,
    anchor_derivation,
    bracket,
    builtin_data,
    bullet_apply,
    bullet_bracket,
    check_axioms,
    check_bullet_jacobi,
    identity_map,
    induced_anchor,
    parse,
)
from algebroids.algebroid import bullet_rho

from helpers import bundle, random_poly, random_section, shear_map


@pytest.fixture(scope="module")
def data():
    return builtin_data()


def _rank2_model(data, table):
    tn = data.t_chart.coords
    b2 = Bundle(data.t_chart, ("t1", "t2"))
    rho = FMatrix([[parse("0", tn)] * 3] * 2)
    return AlgebroidModel.from_table(b2, rho, table)


# ---------------------------------------------------------------- from_table


def test_from_table_fills_antisymmetric_partner(data):
    one = parse("1", data.t_chart.coords)
    m = _rank2_model(data, {(1, 1, 2): one})
    # structure[alpha][beta][gamma], zero based
    assert m.structure[0][1][0] == one
    assert m.structure[1][0][0] == -one
    assert m.structure[0][0][0].is_zero()
    assert m.structure[0][1][1].is_zero()


def test_from_table_rejects_diagonal_entry(data):
    one = parse("1", data.t_chart.coords)
    with pytest.raises(GeometryError, match="repeated lower index"):
        _rank2_model(data, {(1, 1, 1): one})


def test_from_table_rejects_inconsistent_pair(data):
    one = parse("1", data.t_chart.coords)
    with pytest.raises(GeometryError, match="inconsistent structure entries"):
        _rank2_model(data, {(1, 1, 2): one, (1, 2, 1): one})


def test_from_table_accepts_redundant_consistent_pair(data):
    one = parse("1", data.t_chart.coords)
    m = _rank2_model(data, {(1, 1, 2): one, (1, 2, 1): -one})
    assert m.structure[0][1][0] == one


def test_from_table_rejects_out_of_range_index(data):
    one = parse("1", data.t_chart.coords)
    with pytest.raises(GeometryError, match="out of range"):
        _rank2_model(data, {(1, 1, 3): one})


def test_anchor_shape_is_checked(data):
    tn = data.t_chart.coords
    b2 = Bundle(data.t_chart, ("t1", "t2"))
    square = FMatrix([[parse("0", tn)] * 2] * 2)
    with pytest.raises(GeometryError, match=r"anchor must be 2x3"):
        AlgebroidModel.from_table(b2, square, {})


def test_anchor_rejects_foreign_variables(data):
    tn = data.t_chart.coords
    b2 = Bundle(data.t_chart, ("t1", "t2"))
    zero = parse("0", tn)
    bad = FMatrix([[parse("q1", ("q1",)), zero, zero], [zero, zero, zero]])
    with pytest.raises(GeometryError, match="foreign variables"):
        AlgebroidModel.from_table(b2, bad, {})


def test_base_maps_must_fix_the_base_chart(data):
    tn = data.t_chart.coords
    b2 = Bundle(data.t_chart, ("t1", "t2"))
    rho = FMatrix([[parse("0", tn)] * 3] * 2)
    stray = identity_map(Chart("other", ("w1", "w2", "w3")))
    with pytest.raises(GeometryError, match="base map h"):
        AlgebroidModel.from_table(b2, rho, {}, h=stray, eta=stray)


# ------------------------------------------------------------------ bracket


def test_bracket_of_frame_sections(data):
    u = data.frame.frame_section(0)
    v = data.frame.frame_section(1)
    assert bracket(data.classical, u, v) == u
    assert str(bracket(data.classical, u, v)) == "t1"


def test_bracket_function_coefficient(data):
    # [t1, xt1*t2] picks up the anchor derivative of the coefficient
    u = data.frame.frame_section(0)
    z = parse("xt1", data.t_chart.coords) * data.frame.frame_section(1)
    assert str(bracket(data.classical, u, z)) == "(xt1)*t1 + t2"


def test_bracket_antisymmetry_random(data):
    rng = random.Random(4101)
    for _ in range(10):
        u = random_section(rng, data.frame)
        v = random_section(rng, data.frame)
        lhs = bracket(data.classical, u, v)
        rhs = bracket(data.classical, v, u)
        assert all((a + b).is_zero() for a, b in zip(lhs.coeffs, rhs.coeffs))


def _rational_frame_model():
    # e_i = (1/f) d_i, so [e1, e2] = (f_2/f^2) e1 - (f_1/f^2) e2
    names = ("x1", "x2")
    f = parse("2 + 3*x1^2 - x2", names)
    zero = parse("0", names)
    rho = FMatrix([[1 / f, zero], [zero, 1 / f]])
    table = {(1, 1, 2): f.diff("x2") / (f * f), (2, 1, 2): -f.diff("x1") / (f * f)}
    return AlgebroidModel.from_table(Bundle(Chart("plane", names), ("e1", "e2")), rho, table)


# check_axioms reports Leibniz without testing it, so it is guarded here
# on each kind of model: classical, twisted by h = s_O, rational anchor.
@pytest.mark.parametrize("kind", ["classical", "generalized", "rational-frame"])
def test_bracket_leibniz_random(data, kind):
    model = _rational_frame_model() if kind == "rational-frame" else getattr(data, kind)
    rng = random.Random(4102)
    names = model.bundle.base.coords
    for _ in range(8):
        u = random_section(rng, model.bundle)
        v = random_section(rng, model.bundle)
        f = random_poly(rng, names, degree=2, terms=3)
        lhs = bracket(model, u, f * v)
        rhs = f * bracket(model, u, v) + anchor_derivation(model, u, f) * v
        assert lhs == rhs


# ------------------------------------------------------ anchors as derivations


def test_anchor_derivation_values(data):
    tn = data.t_chart.coords
    t1 = data.frame.frame_section(0)
    t2 = data.frame.frame_section(1)
    assert anchor_derivation(data.classical, t2, parse("xt1", tn)) == parse("xt1", tn)
    # twisted base maps flip the sign of constant rows
    assert str(anchor_derivation(data.generalized, t1, parse("xt1", tn))) == "-1"
    assert str(anchor_derivation(data.generalized, t2, parse("xt3", tn))) == "-1"


def test_induced_anchor_classical(data):
    theta = induced_anchor(data.classical)
    assert theta.matrix == data.rho
    assert theta.base.forward == tuple(
        parse(name, data.t_chart.coords) for name in data.t_chart.coords
    )
    assert theta.source is data.classical.bundle
    assert theta.target.frame == ("dxt1", "dxt2", "dxt3")


def test_induced_anchor_twisted(data):
    tn = data.t_chart.coords
    theta = induced_anchor(data.generalized)
    assert theta.matrix == data.rho * parse("-1", tn)
    # the matrix rows really are the derivations applied to coordinates
    for a in range(data.frame.rank):
        u = data.frame.frame_section(a)
        for j, name in enumerate(tn):
            got = anchor_derivation(data.generalized, u, parse(name, tn))
            assert got == theta.matrix[a, j]


def test_anchor_derivation_matches_pullback_definition():
    # a(u)(f) = u^alpha rho_alpha^i (d(f o h)/dx^i) o h^-1 for random shears h
    rng = random.Random(4106)
    for _ in range(6):
        b = bundle(rng.choice((2, 3)), 2)
        names = b.base.coords
        h = shear_map(rng, b.base, b.base)
        rho = FMatrix(
            [[random_poly(rng, names, degree=1, terms=2) for _ in names] for _ in range(2)]
        )
        model = AlgebroidModel.from_table(b, rho, {}, h=h)
        u = random_section(rng, b, degree=1)
        f = random_poly(rng, names)
        back = dict(zip(names, h.inverse))
        fh = f.subs(dict(zip(names, h.forward)))
        want = parse("0", names)
        for a in range(2):
            for i, name in enumerate(names):
                want = want + u.coeffs[a] * rho[a, i] * fh.diff(name).subs(back)
        assert anchor_derivation(model, u, f) == want


# -------------------------------------------------------------- axiom checks


def test_check_axioms_classical_all_pass(data):
    rep = check_axioms(data.classical, seed=5, samples=8)
    assert rep.all_passed
    assert [r.check for r in rep.results] == [
        "antisymmetry",
        "jacobi",
        "leibniz",
        "anchor-morphism",
    ]
    assert rep.text().splitlines() == [
        "PASS antisymmetry",
        "PASS jacobi",
        "PASS leibniz",
        "PASS anchor-morphism",
        "4/4 checks passed",
    ]


def test_check_axioms_flags_twisted_base_maps(data):
    # with h = eta = s_O the classical compatibility identities break
    rep = check_axioms(data.generalized, seed=5, samples=8)
    assert not rep.all_passed
    verdicts = {r.check: r.passed for r in rep.results}
    assert verdicts == {
        "antisymmetry": True,
        "jacobi": False,
        "leibniz": True,
        "anchor-morphism": False,
    }
    assert "differ on f" in rep.item("anchor-morphism").witnesses[0]


def test_jacobi_counterexample_witness(data):
    tn = data.t_chart.coords
    b3 = Bundle(data.t_chart, ("t1", "t2", "t3"))
    rho = FMatrix([[parse("0", tn)] * 3] * 3)
    one = parse("1", tn)
    m = AlgebroidModel.from_table(b3, rho, {(1, 1, 2): one, (2, 1, 3): one})
    rep = check_axioms(m, seed=5, samples=8)
    item = rep.item("jacobi")
    assert not item.passed
    assert item.witnesses[0] == "cycle on (t1,t2,t3) leaves -t2"
    assert rep.item("antisymmetry").passed
    assert rep.item("leibniz").passed


def test_report_item_lookup(data):
    rep = check_axioms(data.classical, seed=1, samples=2)
    assert rep.item("jacobi").passed
    with pytest.raises(KeyError):
        rep.item("nonsense")


# ------------------------------------------------------------ bullet bracket


def _plane_instance(rows):
    ch = Chart("plane", ("x1", "x2"))
    n = ch.coords
    rho = FMatrix([[parse(e, n) for e in row] for row in rows])
    return BulletInstance(ch, rho)


def test_bullet_instance_shape_checked():
    ch = Chart("plane", ("x1", "x2"))
    n = ch.coords
    with pytest.raises(GeometryError, match="must be 2x2"):
        BulletInstance(ch, FMatrix([[parse("1", n)] * 2] * 3))


def test_bullet_rho_and_apply_values():
    inst = _plane_instance([["1", "0"], ["0", "1"]])
    n = inst.chart.coords
    x = inst.bundle.section(["x2", "1"])
    y = inst.bundle.section(["x1*x2", "x1"])
    f = parse("x1*x2", n)
    assert bullet_rho(inst, x, f) == parse("x2^2 + x1", n)
    assert bullet_apply(inst, x, y, f) == parse("x2^3 + 4*x1*x2", n)


def test_bullet_bracket_identity_rho_is_lie_bracket():
    inst = _plane_instance([["1", "0"], ["0", "1"]])
    x = inst.bundle.section(["x2", "1"])
    y = inst.bundle.section(["x1*x2", "x1"])
    assert str(bullet_bracket(inst, x, y)) == "(x2^2)*dx1 + (x2)*dx2"


def test_bullet_bracket_identity_rho_random():
    # against the textbook formula [X,Y]^i = X(Y^i) - Y(X^i)
    inst = _plane_instance([["1", "0"], ["0", "1"]])
    names = inst.chart.coords
    rng = random.Random(4103)
    for _ in range(10):
        x = inst.bundle.section([random_poly(rng, names) for _ in names])
        y = inst.bundle.section([random_poly(rng, names) for _ in names])
        got = bullet_bracket(inst, x, y)
        for i, name in enumerate(names):
            want = sum(
                (
                    x.coeffs[j] * y.coeffs[i].diff(nj)
                    - y.coeffs[j] * x.coeffs[i].diff(nj)
                    for j, nj in enumerate(names)
                ),
                parse("0", names),
            )
            assert got.coeffs[i] == want


def test_bullet_bracket_leibniz_random():
    rng = random.Random(4104)
    names = ("x1", "x2")
    for _ in range(8):
        rows = [[random_poly(rng, names, degree=1, terms=2) for _ in names] for _ in names]
        inst = BulletInstance(Chart("plane", names), FMatrix(rows))
        x = inst.bundle.section([random_poly(rng, names) for _ in names])
        y = inst.bundle.section([random_poly(rng, names) for _ in names])
        f = random_poly(rng, names, degree=2, terms=3)
        lhs = bullet_bracket(inst, x, f * y)
        rhs = f * bullet_bracket(inst, x, y) + bullet_rho(inst, x, f) * y
        assert lhs == rhs


def test_bullet_bracket_alternating():
    inst = _plane_instance([["x2", "0"], ["x1", "1"]])
    names = inst.chart.coords
    rng = random.Random(4105)
    for _ in range(6):
        x = inst.bundle.section([random_poly(rng, names) for _ in names])
        f = random_poly(rng, names)
        z = bullet_bracket(inst, f * x, f * x)
        assert all(c.is_zero() for c in z.coeffs)


def test_check_bullet_jacobi_identity_passes():
    inst = _plane_instance([["1", "0"], ["0", "1"]])
    rep = check_bullet_jacobi(inst)
    assert rep.all_passed
    assert [r.check for r in rep.results] == ["jacobi"]


def test_check_bullet_jacobi_twisted_fails():
    # a non-constant endomorphism breaks Jacobi for the twisted bracket:
    # the anchor defect -[x2*d1, d2] = d1 is nonzero on x1 only
    inst = _plane_instance([["x2", "0"], ["0", "1"]])
    rep = check_bullet_jacobi(inst)
    assert not rep.all_passed
    assert rep.item("jacobi").witnesses == ("cycle on (dx1,dx2,(x1)*dx1) leaves -dx1",)


def test_check_bullet_jacobi_reads_every_coordinate():
    # the anchor defect -[d1, x1*d2] = -d2 vanishes on x1 and not on x2,
    # so only the cycle that multiplies by x2 finds the failure
    inst = _plane_instance([["1", "0"], ["0", "x1"]])
    rep = check_bullet_jacobi(inst)
    assert not rep.all_passed
    assert rep.item("jacobi").witnesses == ("cycle on (dx1,dx2,(x2)*dx1) leaves dx1",)
