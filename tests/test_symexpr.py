import math
import random
import re
from fractions import Fraction

import pytest

from algebroids import (
    Expr,
    ExprError,
    ParseError,
    PoleError,
    parse,
)
from helpers import random_fraction, random_poly, random_rational

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


def test_parse_caps_nesting_depth():
    from algebroids.symexpr import MAX_NESTING

    k = MAX_NESTING
    assert parse("(" * k + "x1" + ")" * k, XY) == Expr.variable("x1")
    assert parse("-" * k + "x1", XY) == Expr.variable("x1")
    for text, position in [
        ("(" * (k + 1) + "x1" + ")" * (k + 1), k),
        ("1 + " + "-(" * k + "x1" + ")" * k, 4 + 2 * (k // 2)),
        ("(" * 3000 + "x1" + ")" * 3000, k),
    ]:
        with pytest.raises(ParseError, match="nesting deeper than %d" % k) as info:
            parse(text, XY)
        assert info.value.position == position


def test_compile_expr_one_or_many():
    from algebroids.symexpr import compile_expr

    f = parse("x1^2/x2", XY)
    g = parse("x1 - 3", ("x1",))
    single = compile_expr(f, ("x2", "x1"))
    many = compile_expr([f, g, Expr.constant(0)], ("x2", "x1"))
    assert single(2.0, 3.0) == 4.5
    assert many(2.0, 3.0) == [4.5, 0.0, 0.0]
    with pytest.raises(ZeroDivisionError):
        many(0.0, 1.0)


def test_compile_expr_takes_a_sum_too_long_for_one_statement():
    from algebroids.symexpr import compile_expr

    e = parse("(x1 + 1)^19*(x2 + 1)^19*(x3 + 1)^14/(x1^2 + 1)", XYZ)
    assert len(e.num) == 6000
    f = compile_expr([e, e + 1], XYZ)
    point = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))
    want = float(e.evaluate(dict(zip(XYZ, point))))
    got = f(*map(float, point))
    assert got[0] == pytest.approx(want, rel=1e-12)
    assert got[1] == pytest.approx(want + 1, rel=1e-12)


def test_parse_literal_zero_denominator():
    with pytest.raises(PoleError):
        parse("1/0", XY)
    with pytest.raises(PoleError):
        parse("1/(x1 - x1)", XY)


def test_pole_error_is_zero_division():
    with pytest.raises(ZeroDivisionError):
        parse("1/0", XY)


def test_equality_examples():
    assert parse("(x1+1)^2", XY) == parse("x1^2 + 2*x1 + 1", XY)
    assert parse("x1/x1", XY) == parse("1", XY)
    assert parse("x1", XY) != parse("x2", XY)


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
    assert parse("x1*x2", XY).diff("x1") == parse("x2", XY)
    assert parse("2 + x1^2", XY).diff("x1") == parse("2*x1", XY)
    assert parse("-x1", XY).diff("x1") == parse("-1", XY)
    assert parse("x2", XY).diff("x1").is_zero()


def test_differentiate_quotient():
    assert parse("1/x1", ("x1",)).diff("x1") == parse("-1/x1^2", ("x1",))
    e = parse("x1/(2 + x1^2)", ("x1",))
    expected = parse("(2 - x1^2)/(2 + x1^2)^2", ("x1",))
    assert e.diff("x1") == expected


def test_parse_caps_exponents(monkeypatch):
    from algebroids.symexpr import MAX_EXPONENT

    k = MAX_EXPONENT
    assert parse("x1^%d" % k, XY) == Expr.variable("x1") ** k
    assert parse("x1^0002", XY) == parse("x1^2", XY)
    # Refused before any power is taken: a power here fails the test.
    monkeypatch.setattr(Expr, "__pow__", lambda self, n: pytest.fail("took a power"))
    for text in [
        "x1^%d" % (k + 1),
        "x1^999999999",
        "1 + (x1 + x2)^99999999999999999999",
        "x1^" + "0" * 5000 + "1001",
        "x1^" + "9" * 5000,
    ]:
        with pytest.raises(ParseError, match="exponent larger than %d" % k) as info:
            parse(text, XY)
        assert info.value.position == text.index("^") + 1


def test_parse_caps_what_a_power_builds():
    from algebroids.symexpr import MAX_DIGITS, MAX_EXPONENT

    assert parse("(x1^500)^2", XY) == Expr.variable("x1") ** MAX_EXPONENT
    assert parse("(10^859)^5", XY) == Expr.constant(10**4295)
    exponent = "power gives an exponent above %d" % MAX_EXPONENT
    digits = "power may give a coefficient of more than %d digits" % MAX_DIGITS
    for text, message, caret in [
        ("(x1^500)^3", exponent, 8),
        ("(1/x2^600)^2", exponent, 10),
        ("((x1+2)^1000)^3", exponent, 13),
        ("(10^860)^5", digits, 8),
        ("(10^1000)^5", digits, 9),
        ("(x1/10^1000)^5", digits, 12),
        ("((10^1000)^1000)^10", digits, 10),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            parse(text, XY)
        assert info.value.position == caret
        assert text[caret] == "^"


def test_printing_a_coefficient_past_the_digit_limit():
    # A product of literals is not capped; printing it is refused.
    big = parse("*".join(["10^1000"] * 5), XY)
    assert big == Expr.constant(10**5000)
    with pytest.raises(ExprError, match="too many digits to print"):
        str(big)


def test_products_are_capped_by_term_pairs(monkeypatch):
    from algebroids import symexpr

    # 24 characters within every parser cap; the last product of the
    # powering would be 4495 by 6545 terms
    with pytest.raises(ExprError, match="4495 by 6545 terms is over the budget"):
        parse("(x1+x2+x3+1)^60", XYZ)
    monkeypatch.setattr(symexpr, "MAX_TERM_PAIRS", 9)
    a, b = parse("x1 + x2 + 1", XY), parse("x1 - x2 + 2", XY)
    assert str(a * b) == "x1^2 - x2^2 + 3*x1 + x2 + 2"
    with pytest.raises(ExprError, match="3 by 4 terms"):
        a * (b + parse("x1*x2", XY))


def test_substitute_examples():
    assert parse("x1^2", XYZ).subs({"x1": parse("-x1", XYZ)}) == parse(
        "x1^2", XYZ
    )
    reflect = {name: parse("-" + name, XYZ) for name in XYZ}
    assert parse("x2", XYZ).subs(reflect) == parse("-x2", XYZ)
    assert parse("2 + x1^2", XYZ).subs(reflect) == parse("2 + x1^2", XYZ)


def test_substitute_partial_map_keeps_other_variables():
    e = parse("x1 + x2", XY)
    assert e.subs({"x1": parse("7", XY)}) == parse("7 + x2", XY)


def test_substitute_pole():
    with pytest.raises(PoleError):
        parse("1/x1", XY).subs({"x1": parse("0*x1", XY)})


def test_substitution_agrees_with_evaluation_on_a_seeded_corpus():
    """e.subs(s) at p equals e at s(p), exactly, for rational e and s."""
    x1, x2, x3 = (Expr.variable(v) for v in XYZ)
    cases = [
        (parse("1/(x1 + 1) + x1*x2", XYZ), {"x1": Expr.constant(0)}),
        (parse("(x1^2 - x3)/(x2 + 2)", XYZ), {"x2": Fraction(-3, 2), "x3": 4}),
        (parse("x1*x2*x3 - x2^3", XYZ), {"x2": x1 - x3}),
        (parse("x1/(x1 - x2)", XYZ), {"x1": x2 / x3, "x2": 1 / (x3 + 1)}),
        (parse("x1^2*x2 + 1", XYZ), {"x1": x2 * x3, "x2": x1, "x3": x2}),
    ]
    rng = random.Random(1009)
    for trial in range(120):
        sigma = {}
        for name in XYZ:
            pick = rng.random()
            if pick < 0.15:
                continue  # a partial map keeps the variable
            if pick < 0.25:
                sigma[name] = Expr.constant(0)
            elif pick < 0.35:
                sigma[name] = Expr.constant(random_fraction(rng))
            elif trial % 2:
                sigma[name] = random_poly(rng, XYZ)
            else:
                sigma[name] = random_rational(rng, XYZ)
        cases.append((random_rational(rng, XYZ), sigma))

    def image_of(point, sigma):
        out = dict(point)
        for name, value in sigma.items():
            out[name] = value.evaluate(point) if isinstance(value, Expr) else value
        return out

    checked = 0
    for e, sigma in cases:
        points = [{name: random_fraction(rng) for name in XYZ} for _ in range(3)]
        try:
            image = e.subs(sigma)
        except PoleError:
            # only when the denominator of e vanishes on the whole image
            for point in points:
                with pytest.raises(PoleError):
                    e.evaluate(image_of(point, sigma))
            continue
        for point in points:
            try:
                want = e.evaluate(image_of(point, sigma))
            except PoleError:
                continue
            assert image.evaluate(point) == want, (e, sigma, point)
            checked += 1
    assert checked > 250
    with pytest.raises(PoleError):
        parse("1/x1", XY).subs({"x1": parse("0*x1", XY)})


def test_evaluate_examples():
    assert parse("2 + x1^2", ("x1",)).evaluate({"x1": 3}) == 11
    assert parse("2 + x1^2", ("x1",)).evaluate({"x1": 1}) == 3
    assert parse("x1/x2", XY).evaluate({"x1": 1, "x2": 3}) == Fraction(1, 3)
    with pytest.raises(PoleError):
        parse("1/x1", ("x1",)).evaluate({"x1": 0})
    with pytest.raises(ExprError):
        parse("x1 + x2", XY).evaluate({"x1": 1})


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


def test_int_operands_build_no_fraction(monkeypatch):
    from algebroids import symexpr

    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(symexpr, "Fraction", Counted)
    x = Expr.variable("x1")
    assert str(x * 2) == "2*x1"
    assert Expr.constant(0).is_zero() and Expr.constant(-3) == -3 * Expr.constant(1)
    assert built == []
    assert Expr.constant(Fraction(4, 2)) == Expr.constant(2)


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
        lhs = (a * b).diff(v)
        rhs = a.diff(v) * b + a * b.diff(v)
        assert lhs == rhs


def test_random_chain_rule():
    rng = random.Random(1003)
    for _ in range(150):
        outer = random_rational(rng, ("u",))
        inner = random_poly(rng, ("x1",))
        try:
            composed = outer.subs({"u": inner})
        except PoleError:
            continue
        lhs = composed.diff("x1")
        rhs = outer.diff("u").subs({"u": inner}) * inner.diff("x1")
        assert lhs == rhs


def test_random_mixed_partials_commute():
    rng = random.Random(1004)
    for _ in range(150):
        e = random_rational(rng, XYZ)
        a, b = rng.sample(XYZ, 2)
        assert e.diff(a).diff(b) == e.diff(b).diff(a)


def test_random_ring_axioms_at_points():
    rng = random.Random(1005)
    done = 0
    while done < 100:
        a = random_rational(rng, XY)
        b = random_rational(rng, XY)
        c = random_rational(rng, XY)
        point = {name: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for name in XY}
        try:
            va, vb, vc = (e.evaluate(point) for e in (a, b, c))
            assert (a + b).evaluate(point) == va + vb
            assert (a * b).evaluate(point) == va * vb
            assert (a * (b + c)).evaluate(point) == va * (vb + vc)
        except PoleError:
            continue
        done += 1


def test_exact_division_and_power_keep_the_coefficient_domain():
    from algebroids.symexpr import _pdivexact, _ppow

    # divmod over Z: results stay int
    x1 = {(1,): 1, (0,): 1}  # x + 1
    cube = _ppow({(1,): 2, (0,): 2}, 3)  # (2x + 2)^3
    assert cube == {(3,): 8, (2,): 24, (1,): 24, (0,): 8}
    quot = _pdivexact(cube, _ppow(x1, 2))
    assert quot == {(1,): 8, (0,): 8}
    assert all(type(c) is int for c in quot.values())
    assert _pdivexact({(1,): 4, (0,): 2}, {(0,): 2}) == {(1,): 2, (0,): 1}
    assert _ppow(x1, 0) == {(0,): 1}
    # a division that is exact over Q but not over Z is refused
    with pytest.raises(ArithmeticError):
        _pdivexact({(1,): 3, (0,): 3}, {(1,): 2, (0,): 2})
    with pytest.raises(ArithmeticError):
        _pdivexact({(1,): 4, (0,): 2}, {(0,): 4})
    # powers and quotients of Exprs with rational coefficients stay int
    e = parse("(2*x1 + 1)/(4*x2)", XY)
    assert e**3 == parse("(8*x1^3 + 12*x1^2 + 6*x1 + 1)/(64*x2^3)", XY)
    assert (e**3).den == {(0, 3): 64}
    assert e**3 / parse("2*x1 + 1", XY) == parse("(2*x1 + 1)^2/(64*x2^3)", XY)


def test_whole_coefficients_are_ints():
    def kinds(e):
        return {type(c) for c in (*e.num.values(), *e.den.values())}

    a = parse("2*x1^2 - 3*x2 + 1", XY)
    b = parse("x1*x2 - 5", XY)
    for e in (a, b, a * b, a + b, a - b, -a, a**3, a.diff("x1"), (a * b).subs({"x1": b})):
        assert kinds(e) == {int}, e
    assert kinds(Expr.variable("x1")) == kinds(Expr.constant(4)) == {int}
    # Fractions of whole value are the same Expr as ints
    two = Expr.constant(Fraction(6, 3))
    assert two == Expr.constant(2) and hash(two) == hash(Expr.constant(2))
    assert kinds(two) == {int}
    # a rational coefficient goes into den; printing divides it back out
    half = a / 2
    assert kinds(half) == {int}
    assert half.num == a.num and half.den == {(0, 0): 2}
    assert str(half) == "x1^2 - 3/2*x2 + 1/2"
    assert half * 2 == a and hash(half * 2) == hash(a) and str(half * 2) == str(a)
    third = Expr.constant(Fraction(-2, 6))
    assert (third.num, third.den) == ({(): -1}, {(): 3})
    value = parse("6", XY).constant_value()
    assert value == 6 and type(value) is Fraction
    assert type(Expr.constant(0).constant_value()) is Fraction
    assert parse("-6/4", XY).constant_value() == Fraction(-3, 2)


def _assert_canonical(e):
    """Integer coefficients, num and den jointly primitive, lc(den) > 0."""
    from algebroids.symexpr import _plead

    coeffs = [*e.num.values(), *e.den.values()]
    assert all(type(c) is int for c in coeffs), e
    assert math.gcd(*coeffs) == 1, e
    assert e.den[_plead(e.den)] > 0, e
    assert list(e.vars) == sorted(e.vars)
    assert all(any(column) for column in zip(*e.num, *e.den)), e


def test_canonical_form_is_integer_and_primitive_on_a_seeded_corpus():
    rng = random.Random(1101)
    for _ in range(150):
        a = random_rational(rng, XYZ)
        b = random_rational(rng, XYZ)
        exprs = [a, b, parse(str(a), XYZ), a + b, a - b, a * b, -a, a**2, a.diff("x1")]
        if not b.is_zero():
            exprs.append(a / b)
        try:
            exprs.append(a.subs({"x2": b, "x3": Fraction(rng.randint(-3, 3), rng.randint(1, 4))}))
        except PoleError:
            pass
        for e in exprs:
            _assert_canonical(e)


# ------------------------------------------------- gcd: GCDHEU against PRS


def _raw_poly(rng, slots, degree, terms, span=9):
    """A nonzero integer dict poly of arity 3 in the given variable slots."""
    while True:
        p = {}
        for _ in range(rng.randint(1, terms)):
            mono = [0, 0, 0]
            for _ in range(rng.randint(0, degree)):
                mono[rng.choice(slots)] += 1
            p[tuple(mono)] = p.get(tuple(mono), 0) + rng.randint(-span, span)
        p = {m: c for m, c in p.items() if c}
        if p:
            return p


def _gcd_corpus(seed, count):
    from algebroids.symexpr import _pmul

    rng = random.Random(seed)
    for n in range(count):
        slots = rng.sample(range(3), rng.randint(1, 3))
        if n % 5 == 0:
            g = {(0, 0, 0): rng.randint(1, 12)}
        else:
            g = _raw_poly(rng, slots, 3, 4)
        a = _raw_poly(rng, slots, 3, 4)
        b = _raw_poly(rng, rng.sample(range(3), rng.randint(1, 3)), 3, 4)
        yield g, _pmul(g, a), _pmul(g, b)


def _shared_slots(p, q):
    used = [{i for m in r for i, e in enumerate(m) if e} for r in (p, q)]
    return sorted(used[0] & used[1])


def _primitive(p):
    from algebroids.symexpr import _zcontent

    c = _zcontent(p)
    return {m: v // c for m, v in p.items()}


def _prs_gcd(monkeypatch, p, q):
    """_zgcd with the heuristic switched off: the subresultant PRS alone."""
    from algebroids import symexpr

    with monkeypatch.context() as m:
        m.setattr(symexpr, "_zheu", lambda p, q, i: None)
        return symexpr._zgcd(p, q)


def test_gcd_heuristic_matches_prs_on_a_seeded_corpus(monkeypatch):
    from algebroids.symexpr import _pdivexact, _zcontent, _zgcd, _zheu

    solved = tried = 0
    pairs = list(_gcd_corpus(3001, 240))
    for g, p, q in pairs:
        fast = _zgcd(p, q)
        prs = _prs_gcd(monkeypatch, p, q)
        assert fast == prs, (p, q)
        shared = _shared_slots(p, q)
        if shared:
            tried += 1
            heu = _zheu(_primitive(p), _primitive(q), shared[-1])
            if heu is not None:
                solved += 1
                want = _primitive(prs)
                assert heu in (want, {mono: -c for mono, c in want.items()}), (p, q)
        # the planted factor divides the gcd
        cg = _zcontent(g)
        _pdivexact(prs, {mono: c // cg for mono, c in g.items()})
    assert tried >= 200
    assert solved >= 0.95 * tried


def test_gcd_heuristic_matches_prs_over_the_rationals(monkeypatch):
    from algebroids import symexpr
    from algebroids.symexpr import _align, _zgcd

    def rational(p):
        """The Expr of an arity-3 poly with each coefficient over 1..6."""
        total = Expr.constant(0)
        for mono, c in p.items():
            term = Expr.constant(Fraction(c, rng.randint(1, 6)))
            for name, e in zip(XYZ, mono):
                term = term * Expr.variable(name) ** e
            total = total + term
        return total

    rng = random.Random(3002)
    for _, p, q in _gcd_corpus(3003, 60):
        a, b = rational(p), rational(q)
        _, n1, _, n2, _ = _align(a, b)
        results = [_zgcd(n1, n2), a / b, a * b, a + b]
        with monkeypatch.context() as m:
            m.setattr(symexpr, "_zheu", lambda p, q, i: None)
            assert [_zgcd(n1, n2), a / b, a * b, a + b] == results
        for e in results[1:]:
            _assert_canonical(e)


def test_gcd_heuristic_removes_contents_at_every_level():
    from algebroids.symexpr import _zgcd, _zheu

    # gcd(2*x2*x3*(1 + x1 - x1^2), x1*x3^2) = x3; the images one level
    # down share the integer content 31 and must not leave it behind.
    p = {(0, 1, 1): 2, (1, 1, 1): 2, (2, 1, 1): -2}
    q = {(1, 0, 2): 1}
    assert _zheu(_primitive(p), q, 2) in ({(0, 0, 1): 1}, {(0, 0, 1): -1})
    assert _zgcd(p, q) == {(0, 0, 1): 1}
    quot = parse("2*x2*x3*(1 + x1 - x1^2)", XYZ) / parse("x1*x3^2", XYZ)
    assert quot == parse("2*x2*(1 + x1 - x1^2)/(x1*x3)", XYZ)
    assert str(quot) == "(-2*x1^2*x2 + 2*x1*x2 + 2*x2)/(x1*x3)"


@pytest.mark.parametrize(
    "left, right, quotient",
    [
        # x1 - 31 vanishes at the first evaluation point, xi = 31
        ("x1 - 31", "x1", "(x1 - 31)/(x1)"),
        ("x1", "x1 - 31", "(x1)/(x1 - 31)"),
        # the image of the right side vanishes; skipping only the empty
        # image would keep the common divisor x2^2 + x2 but lose x1
        ("x1*x2*(x2 + 1)", "x1*x2*(x2 + 1)*(x2 - 31)", "(1)/(x2 - 31)"),
        # both images at x2 = 31 are nonzero; one level down x1 - 31 vanishes
        ("(x1 - 31)*(x2 + 1)", "x1*x2", "(x1*x2 + x1 - 31*x2 - 31)/(x1*x2)"),
    ],
)
def test_gcd_heuristic_skips_points_where_an_image_vanishes(
    monkeypatch, left, right, quotient
):
    from algebroids.symexpr import _zgcd

    a, b = parse(left, XYZ), parse(right, XYZ)
    p, q = a.num, b.num
    assert _zgcd(p, q) == _prs_gcd(monkeypatch, p, q)
    assert _zgcd(q, p) == _prs_gcd(monkeypatch, q, p)
    assert str(a / b) == quotient


def test_prs_fallback_gives_the_same_results(monkeypatch):
    import warnings

    from algebroids import builtin_data, left_pseudo_inverse, symexpr

    r = builtin_data().r
    cases = [
        ("(x1^2 - x2^2)/(x1 + x3)", "(x1 + x3)^2/(x1 - x2)"),
        ("(2*x1*x2 + 2)/(3*x3^2 - 3)", "(x3 + 1)/(x1*x2 + 1)^2"),
        ("(x1 - 1)^3*(x2 + x3)", "(x1 - 1)*(x2 + x3)^2*x1"),
    ]

    def compute():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pinv = left_pseudo_inverse(r)
        out = [pinv]
        for left, right in cases:
            a, b = parse(left, XYZ), parse(right, XYZ)
            out += [a * b, a / b, b / a, a + b]
        return out

    fast = compute()
    monkeypatch.setattr(symexpr, "_zheu", lambda p, q, i: None)
    slow = compute()
    assert slow == fast
    assert [str(e) for e in slow[1:]] == [str(e) for e in fast[1:]]
