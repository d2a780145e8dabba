import random

import pytest

from algebroids import (
    Bundle,
    Chart,
    Expr,
    FMatrix,
    GeometryError,
    NotDiffeomorphismError,
    Section,
    VBMorphism,
    apply_morphism,
    compose,
    compose_maps,
    identity_map,
    make_coord_map,
    parse,
    pullback,
    tangent_bundle,
    tangent_lift,
)
from helpers import chart, random_poly, random_section, shear_map

X3 = Chart("sigma", ("x1", "x2", "x3"))
T3 = Chart("sigma_tilde", ("xt1", "xt2", "xt3"))


def reflection(src, dst):
    neg_src = tuple(-src.var(c) for c in src.coords)
    neg_dst = tuple(-dst.var(c) for c in dst.coords)
    return make_coord_map(src, dst, neg_src, neg_dst)


def test_chart_basics():
    assert X3.dim == 3
    assert X3.var("x2") == Expr.variable("x2")
    assert X3.parse("x1 + x2") == parse("x1 + x2", X3.coords)
    with pytest.raises(GeometryError):
        Chart("bad", ("x1", "x1"))
    with pytest.raises(GeometryError):
        Chart("empty", ())


def test_identity_map():
    ident = identity_map(X3)
    assert ident.is_identity()
    assert pullback(parse("x1*x3", X3.coords), ident) == parse("x1*x3", X3.coords)


def test_reflection_is_a_valid_involution():
    s = reflection(T3, T3)
    assert compose_maps(s, s).is_identity()
    assert s.inverse_map() == s


def test_component_count_checked():
    with pytest.raises(GeometryError):
        make_coord_map(X3, X3, (X3.var("x1"),), tuple(X3.var(c) for c in X3.coords))


def test_square_is_not_a_diffeomorphism():
    one = Chart("line", ("x1",))
    with pytest.raises(NotDiffeomorphismError):
        make_coord_map(one, one, (parse("x1^2", ("x1",)),), (parse("x1", ("x1",)),))


def test_mismatched_inverse_is_rejected():
    one = Chart("line", ("x1",))
    with pytest.raises(NotDiffeomorphismError):
        make_coord_map(
            one, one, (parse("2*x1", ("x1",)),), (parse("x1", ("x1",)),)
        )


def test_jacobian():
    two = chart(2)
    m = make_coord_map(
        two,
        two,
        (parse("x1 + x2^2", two.coords), parse("x2", two.coords)),
        (parse("x1 - x2^2", two.coords), parse("x2", two.coords)),
    )
    jac = m.jacobian()
    assert jac == FMatrix(
        [
            [parse("1", two.coords), parse("2*x2", two.coords)],
            [parse("0", two.coords), parse("1", two.coords)],
        ]
    )


def test_pullback_examples():
    s = reflection(X3, X3)
    assert pullback(parse("x1", X3.coords), s) == parse("-x1", X3.coords)
    assert pullback(parse("2 + x1^2", X3.coords), s) == parse("2 + x1^2", X3.coords)


def test_compose_maps_associative_on_random_shears():
    rng = random.Random(31)
    c = chart(3)
    for _ in range(10):
        f = shear_map(rng, c, c)
        g = shear_map(rng, c, c)
        h = shear_map(rng, c, c)
        lhs = compose_maps(compose_maps(f, g), h)
        rhs = compose_maps(f, compose_maps(g, h))
        assert lhs == rhs


def test_bundle_and_sections():
    b = Bundle(T3, ("t1", "t2"))
    assert b.rank == 2
    z = b.section(["xt1", "1 + xt2"])
    assert z.coeffs == (parse("xt1", T3.coords), parse("1 + xt2", T3.coords))
    assert str(b.frame_section(0)) == "t1"
    assert b.section([0, 0]).is_zero()
    with pytest.raises(GeometryError):
        b.section(["xt1"])
    with pytest.raises(GeometryError):
        Bundle(T3, ("t1", "t1"))
    with pytest.raises(GeometryError):
        Section(b, (Expr.variable("q9"), Expr.constant(0)))


def test_section_algebra():
    b = Bundle(T3, ("t1", "t2"))
    z = b.section(["xt1", "1"])
    w = b.section(["1", "xt2"])
    assert (z + w).coeffs == (parse("xt1 + 1", T3.coords), parse("1 + xt2", T3.coords))
    assert (z - z).is_zero()
    assert (-z).coeffs == (parse("-xt1", T3.coords), parse("-1", T3.coords))
    f = parse("xt3", T3.coords)
    assert (f * z).coeffs == (parse("xt3*xt1", T3.coords), parse("xt3", T3.coords))
    assert str(b.section(["xt1", "-1"])) == "(xt1)*t1 - t2"


def test_tangent_bundle_frame_names():
    tb = tangent_bundle(T3)
    assert tb.frame == ("dxt1", "dxt2", "dxt3")


def anchor_morphism():
    frame = Bundle(T3, ("t1", "t2"))
    rho = FMatrix(
        [
            [parse(e, T3.coords) for e in row]
            for row in (("1", "0", "0"), ("xt1", "xt2", "1"))
        ]
    )
    return VBMorphism(frame, tangent_bundle(T3), identity_map(T3), rho)


def test_apply_morphism_anchor_rows():
    m = anchor_morphism()
    t1 = m.source.frame_section(0)
    t2 = m.source.frame_section(1)
    assert apply_morphism(m, t1).coeffs == (
        parse("1", T3.coords),
        parse("0", T3.coords),
        parse("0", T3.coords),
    )
    assert apply_morphism(m, t2).coeffs == (
        parse("xt1", T3.coords),
        parse("xt2", T3.coords),
        parse("1", T3.coords),
    )


def test_identity_morphism_acts_trivially():
    b = Bundle(T3, ("t1", "t2"))
    z = b.section(["xt1*xt2", "1/(1 + xt3^2)"])
    ident = VBMorphism(b, b, identity_map(T3), FMatrix.identity(2))
    assert apply_morphism(ident, z) == z


def test_morphism_validation():
    frame = Bundle(T3, ("t1", "t2"))
    tb = tangent_bundle(T3)
    with pytest.raises(GeometryError):
        VBMorphism(frame, tb, identity_map(T3), FMatrix.identity(2))
    with pytest.raises(GeometryError):
        VBMorphism(frame, tb, identity_map(X3), FMatrix.identity(2))
    foreign = FMatrix([[parse("y9", ("y9",))] * 3] * 2)
    with pytest.raises(GeometryError):
        VBMorphism(frame, tb, identity_map(T3), foreign)


def test_display_round_trip():
    frame = Bundle(T3, ("t1", "t2"))
    tb = tangent_bundle(T3)
    s = reflection(T3, T3)
    display = FMatrix(
        [
            [parse(e, T3.coords) for e in row]
            for row in (("xt1", "-1"), ("0", "-1"), ("-1", "0"))
        ]
    )
    g = VBMorphism.from_display(tb, frame, s, display)
    assert g.display_matrix() == display
    assert g.matrix == FMatrix(
        [
            [parse(e, T3.coords) for e in row]
            for row in (("-xt1", "-1"), ("0", "-1"), ("-1", "0"))
        ]
    )


def test_reduction_composition_identity():
    # Composing the coordinate-frame reduction with the tangent lift of
    # the reflection gives exactly the reduction morphism over the
    # reflection, matrix and base map alike.
    frame = Bundle(T3, ("t1", "t2"))
    tb = tangent_bundle(T3)
    s = reflection(T3, T3)
    r = FMatrix(
        [
            [parse(e, T3.coords) for e in row]
            for row in (("-xt1", "1"), ("0", "1"), ("1", "0"))
        ]
    )
    r_morph = VBMorphism(tb, frame, identity_map(T3), r)
    ts = tangent_lift(s)
    assert ts.matrix == -FMatrix.identity(3)
    got = compose(r_morph, ts)
    expected = VBMorphism.from_display(
        tb,
        frame,
        s,
        FMatrix(
            [
                [parse(e, T3.coords) for e in row]
                for row in (("xt1", "-1"), ("0", "-1"), ("-1", "0"))
            ]
        ),
    )
    assert got.matrix == expected.matrix
    assert got.base == expected.base


def test_compose_with_identity():
    m = anchor_morphism()
    src, dst = m.source, m.target
    ident_src = VBMorphism(src, src, identity_map(T3), FMatrix.identity(src.rank))
    ident_dst = VBMorphism(dst, dst, identity_map(T3), FMatrix.identity(dst.rank))
    assert compose(ident_dst, m).matrix == m.matrix
    assert compose(m, ident_src).matrix == m.matrix


def test_compose_rejects_mismatched_bundles():
    m = anchor_morphism()
    with pytest.raises(GeometryError):
        compose(m, m)


def test_naive_matrix_pairing_fails_functionally():
    # Multiplying component matrices without pulling the outer one back
    # along the inner base map gives a different morphism: it disagrees
    # with applying the two maps in sequence.  The composition rule is
    # not optional bookkeeping.
    frame = Bundle(T3, ("t1", "t2"))
    tb = tangent_bundle(T3)
    s = reflection(T3, T3)
    r = FMatrix(
        [
            [parse(e, T3.coords) for e in row]
            for row in (("-xt1", "1"), ("0", "1"), ("1", "0"))
        ]
    )
    r_morph = VBMorphism(tb, frame, identity_map(T3), r)
    ts = tangent_lift(s)
    from algebroids import matmul

    naive = VBMorphism(
        tb, frame, compose_maps(r_morph.base, ts.base), matmul(ts.matrix, r)
    )
    proper = compose(r_morph, ts)
    z = tb.frame_section(0)
    stepwise = apply_morphism(r_morph, apply_morphism(ts, z))
    assert apply_morphism(proper, z) == stepwise
    assert apply_morphism(naive, z) != stepwise


def test_functional_composition_random():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(2, 3)
        a = chart(n, "x", "a")
        b = chart(n, "y", "b")
        c = chart(n, "z", "c")
        ba = Bundle(a, tuple("e%d" % k for k in range(1, rng.randint(2, 4))))
        bb = Bundle(b, tuple("f%d" % k for k in range(1, rng.randint(2, 4))))
        bc = Bundle(c, tuple("g%d" % k for k in range(1, rng.randint(2, 4))))
        m1 = VBMorphism(
            ba,
            bb,
            shear_map(rng, a, b),
            FMatrix(
                [
                    [random_poly(rng, a.coords, 2) for _ in range(bb.rank)]
                    for _ in range(ba.rank)
                ]
            ),
        )
        m2 = VBMorphism(
            bb,
            bc,
            shear_map(rng, b, c),
            FMatrix(
                [
                    [random_poly(rng, b.coords, 2) for _ in range(bc.rank)]
                    for _ in range(bb.rank)
                ]
            ),
        )
        z = random_section(rng, ba)
        assert apply_morphism(compose(m2, m1), z) == apply_morphism(
            m2, apply_morphism(m1, z)
        )


def test_module_compatibility():
    # The function pulled back along the base map factors out of the
    # morphism's action; checked over a non-identity base map.
    rng = random.Random(33)
    frame = Bundle(T3, ("t1", "t2"))
    tb = tangent_bundle(T3)
    s = reflection(T3, T3)
    display = FMatrix(
        [
            [parse(e, T3.coords) for e in row]
            for row in (("xt1", "-1"), ("0", "-1"), ("-1", "0"))
        ]
    )
    m = VBMorphism.from_display(tb, frame, s, display)
    for _ in range(10):
        z = random_section(rng, m.source)
        g = random_poly(rng, T3.coords, 2)
        lhs = apply_morphism(m, pullback(g, m.base) * z)
        rhs = g * apply_morphism(m, z)
        assert lhs == rhs


def test_tangent_lift_respects_composition():
    rng = random.Random(34)
    a = chart(3, "x", "a")
    b = chart(3, "y", "b")
    c = chart(3, "z", "c")
    for _ in range(8):
        inner = shear_map(rng, a, b)
        outer = shear_map(rng, b, c)
        direct = tangent_lift(compose_maps(outer, inner))
        chained = compose(tangent_lift(outer), tangent_lift(inner))
        assert direct.matrix == chained.matrix
        assert direct.base == chained.base
