import random
from fractions import Fraction

import pytest

from algebroids import (
    Expr,
    ExprError,
    ParseError,
    PoleError,
    differentiate,
    equals,
    evaluate,
    parse,
    substitute,
)
from helpers import random_poly, random_rational

XY = ("x1", "x2")
XYZ = ("x1", "x2", "x3")


def test_parse_polynomial():
    e = parse("x1*x2 + 1", XY)
    assert str(e) == "x1*x2 + 1"
    assert e == Expr.variable("x1") * Expr.variable("x2") + Expr.constant(1)


def test_parse_rational():
    e = parse("x1/(2 + x1^2)", ("x1",))
    assert str(e) == "(x1)/(x1^2 + 2)"
    assert e * parse("2 + x1^2", ("x1",)) == Expr.variable("x1")


def test_parse_cancellation_to_zero():
    assert parse("x2 - x2", XY).is_zero()
    assert parse("x2 - x2", XY) == Expr.constant(0)


def test_parse_respects_precedence():
    assert parse("1 + 2*x1^3", ("x1",)) == Expr.constant(1) + Expr.constant(
        2
    ) * Expr.variable("x1") ** 3
    assert parse("-x1^2", ("x1",)) == -(Expr.variable("x1") ** 2)
    assert parse("(1 + x1)^2", ("x1",)) == (Expr.constant(1) + Expr.variable("x1")) ** 2


def test_parse_error_positions():
    cases = [
        ("x1 + (x2", 8),
        ("q9 + 1", 0),
        ("x1 ^ x2", 5),
        ("x1 + x2)", 7),
        ("", 0),
        ("x1 * * 2", 5),
        ("x1^-2", 3),
        ("3 $ x1", 2),
    ]
    for text, position in cases:
        with pytest.raises(ParseError) as info:
            parse(text, XY)
        assert info.value.position == position, text


def test_parse_literal_zero_denominator():
    with pytest.raises(PoleError):
        parse("1/0", XY)
    with pytest.raises(PoleError):
        parse("1/(x1 - x1)", XY)


def test_pole_error_is_zero_division():
    with pytest.raises(ZeroDivisionError):
        parse("1/0", XY)


def test_equality_examples():
    assert equals(parse("(x1+1)^2", XY), parse("x1^2 + 2*x1 + 1", XY))
    assert equals(parse("x1/x1", XY), parse("1", XY))
    assert not equals(parse("x1", XY), parse("x2", XY))


def test_quotient_cancellation():
    assert parse("(x1^2 - 1)/(x1 - 1)", ("x1",)) == parse("x1 + 1", ("x1",))
    three_ways = parse("(x1^2 + 2*x1 + 1)/(x1 + 1)", ("x1",))
    assert three_ways == parse("x1 + 1", ("x1",))


def test_denominator_sign_is_canonical():
    a = parse("1/(-2*x1 + 2)", ("x1",))
    b = parse("-1/(2*x1 - 2)", ("x1",))
    assert a == b
    assert str(a) == str(b)


def test_differentiate_examples():
    assert differentiate(parse("x1*x2", XY), "x1") == parse("x2", XY)
    assert differentiate(parse("2 + x1^2", XY), "x1") == parse("2*x1", XY)
    assert differentiate(parse("-x1", XY), "x1") == parse("-1", XY)
    assert differentiate(parse("x2", XY), "x1").is_zero()


def test_differentiate_quotient():
    assert differentiate(parse("1/x1", ("x1",)), "x1") == parse("-1/x1^2", ("x1",))
    e = parse("x1/(2 + x1^2)", ("x1",))
    expected = parse("(2 - x1^2)/(2 + x1^2)^2", ("x1",))
    assert differentiate(e, "x1") == expected


def test_substitute_examples():
    assert substitute(parse("x1^2", XYZ), {"x1": parse("-x1", XYZ)}) == parse(
        "x1^2", XYZ
    )
    reflect = {name: parse("-" + name, XYZ) for name in XYZ}
    assert substitute(parse("x2", XYZ), reflect) == parse("-x2", XYZ)
    assert substitute(parse("2 + x1^2", XYZ), reflect) == parse("2 + x1^2", XYZ)


def test_substitute_partial_map_keeps_other_variables():
    e = parse("x1 + x2", XY)
    assert substitute(e, {"x1": parse("7", XY)}) == parse("7 + x2", XY)


def test_substitute_pole():
    with pytest.raises(PoleError):
        substitute(parse("1/x1", XY), {"x1": parse("0*x1", XY)})


def test_evaluate_examples():
    assert evaluate(parse("2 + x1^2", ("x1",)), {"x1": 3}) == 11
    assert evaluate(parse("2 + x1^2", ("x1",)), {"x1": 1}) == 3
    assert evaluate(parse("x1/x2", XY), {"x1": 1, "x2": 3}) == Fraction(1, 3)
    with pytest.raises(PoleError):
        evaluate(parse("1/x1", ("x1",)), {"x1": 0})
    with pytest.raises(ExprError):
        evaluate(parse("x1 + x2", XY), {"x1": 1})


def test_power_rules():
    x = Expr.variable("x1")
    assert x**0 == Expr.constant(1)
    assert x**1 == x
    assert x**3 == x * x * x
    with pytest.raises(ValueError):
        x ** (-1)
    with pytest.raises(TypeError):
        x ** Fraction(1, 2)


def test_division_by_zero_expr():
    with pytest.raises(PoleError):
        parse("x1", XY) / Expr.constant(0)
    with pytest.raises(PoleError):
        parse("x1", XY) / parse("x2 - x2", XY)


def test_immutability_and_hash():
    e = parse("x1 + 1", ("x1",))
    with pytest.raises(AttributeError):
        e.num = None
    seen = {e: "a", parse("1 + x1", ("x1",)): "b"}
    assert len(seen) == 1 and seen[e] == "b"


def test_constant_predicates():
    assert parse("7/2", XY).is_constant()
    assert parse("7/2", XY).constant_value() == Fraction(7, 2)
    assert not parse("x1", XY).is_constant()


def test_printer_round_trip_on_goldens():
    for text in [
        "x1*x2 + 1",
        "(x1)/(x1^2 + 2)",
        "3/2*x1^2 - x2",
        "(x1^2 + 1)/(x1^2 + 2)",
        "-x1",
        "0",
    ]:
        e = parse(text, XY)
        assert parse(str(e), XY) == e
        assert str(parse(str(e), XY)) == str(e)


def test_mixed_arithmetic_with_ints():
    x = Expr.variable("x1")
    assert 1 + x == x + 1
    assert 2 * x == x + x
    assert x - 1 == -(1 - x)
    assert (x + 1) / 2 == parse("(x1 + 1)/2", ("x1",))
    assert 1 / (x + 1) == parse("1/(x1 + 1)", ("x1",))


def test_random_canonical_idempotence_and_round_trip():
    rng = random.Random(1001)
    for _ in range(200):
        e = random_rational(rng, XYZ)
        assert parse(str(e), XYZ) == e
        assert (e + Expr.constant(0)) == e
        assert (e * Expr.constant(1)) == e


def test_random_derivation_law():
    rng = random.Random(1002)
    for _ in range(150):
        a = random_rational(rng, XY)
        b = random_rational(rng, XY)
        v = rng.choice(XY)
        lhs = differentiate(a * b, v)
        rhs = differentiate(a, v) * b + a * differentiate(b, v)
        assert lhs == rhs


def test_random_chain_rule():
    rng = random.Random(1003)
    for _ in range(150):
        outer = random_rational(rng, ("u",))
        inner = random_poly(rng, ("x1",))
        try:
            composed = substitute(outer, {"u": inner})
        except PoleError:
            continue
        lhs = differentiate(composed, "x1")
        rhs = substitute(differentiate(outer, "u"), {"u": inner}) * differentiate(
            inner, "x1"
        )
        assert lhs == rhs


def test_random_mixed_partials_commute():
    rng = random.Random(1004)
    for _ in range(150):
        e = random_rational(rng, XYZ)
        a, b = rng.sample(XYZ, 2)
        assert differentiate(differentiate(e, a), b) == differentiate(
            differentiate(e, b), a
        )


def test_random_ring_axioms_at_points():
    rng = random.Random(1005)
    done = 0
    while done < 100:
        a = random_rational(rng, XY)
        b = random_rational(rng, XY)
        c = random_rational(rng, XY)
        point = {name: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for name in XY}
        try:
            va, vb, vc = (evaluate(e, point) for e in (a, b, c))
            assert evaluate(a + b, point) == va + vb
            assert evaluate(a * b, point) == va * vb
            assert evaluate(a * (b + c), point) == va * (vb + vc)
        except PoleError:
            continue
        done += 1


def test_exact_division_and_power_keep_the_coefficient_domain():
    from algebroids.symexpr import _pdivexact, _ppow

    # integer polys, as inside the gcd: divmod, results stay int
    x1 = {(1,): 1, (0,): 1}  # x + 1
    cube = _ppow({(1,): 2, (0,): 2}, 3)  # (2x + 2)^3
    assert cube == {(3,): 8, (2,): 24, (1,): 24, (0,): 8}
    quot = _pdivexact(cube, _ppow(x1, 2))
    assert quot == {(1,): 8, (0,): 8}
    assert all(type(c) is int for c in quot.values())
    assert _pdivexact({(1,): 4, (0,): 2}, {(0,): 2}) == {(1,): 2, (0,): 1}
    assert _ppow(x1, 0) == {(0,): 1}
    with pytest.raises(ArithmeticError):
        _pdivexact({(1,): 3, (0,): 3}, {(1,): 2, (0,): 2})
    with pytest.raises(ArithmeticError):
        _pdivexact({(1,): 4, (0,): 2}, {(0,): 4})
    # Fraction polys divide over Q, also by an integer divisor
    three = {(1,): Fraction(3), (0,): Fraction(3)}
    assert _pdivexact(three, {(1,): 2, (0,): 2}) == {(0,): Fraction(3, 2)}
    assert _pdivexact(three, {(0,): 2}) == {(1,): Fraction(3, 2), (0,): Fraction(3, 2)}
    with pytest.raises(ArithmeticError):
        _pdivexact(three, {(1,): Fraction(1), (0,): Fraction(2)})
