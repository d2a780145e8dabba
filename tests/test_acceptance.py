"""Acceptance suite: one test per shipped guarantee.

Each test here backs one line of the summary that conftest prints
after the run.  They retell the library's core claims end to end, so
they lean on public entry points only.
"""

import math
import random
import time
import warnings
from fractions import Fraction
from importlib import resources

import pytest

from algebroids import (
    AlgebroidModel,
    BulletInstance,
    Bundle,
    Chart,
    Expr,
    FMatrix,
    PoleError,
    RankDropWarning,
    SingularMatrixError,
    VBMorphism,
    apply_morphism,
    builtin_data,
    bullet_apply,
    bullet_bracket,
    check_axioms,
    compose,
    integrate,
    left_pseudo_inverse,
    load_scenario,
    matmul,
    parse,
    solve_el,
    verify_paper,
    verify_transform,
)
from algebroids.algebroid import bullet_rho
from algebroids.verify import CHECKS

from helpers import (
    chart,
    full_column_rank_matrix,
    random_fraction,
    random_poly,
    random_rational,
    random_section,
    shear_map,
)


def test_worked_example_reproduction():
    # every published matrix identity, re-derived from its inputs
    started = time.monotonic()
    rep = verify_paper()
    elapsed = time.monotonic() - started
    assert rep.all_passed, rep.text()
    assert [r.check for r in rep.results] == list(CHECKS)
    assert len(rep.results) == 10
    assert elapsed < 5.0


def test_axiom_suite():
    data = builtin_data()
    rep = check_axioms(data.classical, seed=11, samples=10)
    assert rep.all_passed, rep.text()
    assert [r.check for r in rep.results] == [
        "antisymmetry",
        "jacobi",
        "leibniz",
        "anchor-morphism",
    ]

    # constant structure functions that break the Jacobi cycle: the
    # checker must localize the failure and name the leftover section
    tn = data.t_chart.coords
    b3 = Bundle(data.t_chart, ("t1", "t2", "t3"))
    zero = FMatrix([[parse("0", tn)] * 3] * 3)
    one = parse("1", tn)
    broken = AlgebroidModel.from_table(b3, zero, {(1, 1, 2): one, (2, 1, 3): one})
    rep = check_axioms(broken, seed=11, samples=10)
    item = rep.item("jacobi")
    assert not item.passed
    assert "-t2" in item.witnesses[0]
    assert rep.item("antisymmetry").passed
    assert rep.item("leibniz").passed


def test_twisted_bracket_properties():
    rng = random.Random(9003)
    for case in range(50):
        m = rng.choice((2, 3))
        ch = chart(m)
        names = ch.coords
        rho = FMatrix(
            [
                [random_poly(rng, names, degree=2, terms=2, span=2) for _ in range(m)]
                for _ in range(m)
            ]
        )
        inst = BulletInstance(ch, rho)
        x = inst.bundle.section([random_poly(rng, names, terms=2) for _ in names])
        y = inst.bundle.section([random_poly(rng, names, terms=2) for _ in names])
        f = random_poly(rng, names, terms=2)
        g = random_poly(rng, names, terms=2)

        # module Leibniz rule in the second slot
        assert bullet_bracket(inst, x, f * y) == f * bullet_bracket(
            inst, x, y
        ) + bullet_rho(inst, x, f) * y

        # alternating on equal arguments
        squared = bullet_bracket(inst, f * x, f * x)
        assert all(c.is_zero() for c in squared.coeffs)

        # the commutator operator is a derivation of the function ring
        def op(h):
            return bullet_apply(inst, x, y, h) - bullet_apply(inst, y, x, h)

        assert op(f * g) == op(f) * g + f * op(g)

        # applied to f, the bracket is that commutator operator
        z = bullet_bracket(inst, x, y)
        assert sum(c * f.diff(n) for c, n in zip(z.coeffs, names)) == op(f)

        if m == 2:
            # with rho = identity the construction is the Lie bracket
            ident = FMatrix(
                [
                    [parse("1", names), parse("0", names)],
                    [parse("0", names), parse("1", names)],
                ]
            )
            plain = BulletInstance(ch, ident)
            got = bullet_bracket(plain, x, y)
            for i in range(m):
                want = Expr.constant(0)
                for j, nj in enumerate(names):
                    want = want + x.coeffs[j] * y.coeffs[i].diff(nj)
                    want = want - y.coeffs[j] * x.coeffs[i].diff(nj)
                assert got.coeffs[i] == want


def test_morphism_composition():
    rng = random.Random(9004)

    def random_morphism(rng, src_bundle, dst_bundle):
        return VBMorphism(
            src_bundle,
            dst_bundle,
            shear_map(rng, src_bundle.base, dst_bundle.base),
            FMatrix(
                [
                    [
                        random_poly(rng, src_bundle.base.coords, degree=2, terms=2)
                        for _ in range(dst_bundle.rank)
                    ]
                    for _ in range(src_bundle.rank)
                ]
            ),
        )

    for case in range(20):
        n = rng.randint(2, 3)
        a = chart(n, "x", "a")
        b = chart(n, "y", "b")
        c = chart(n, "z", "c")
        d = chart(n, "w", "d")
        ba = Bundle(a, tuple("e%d" % k for k in range(1, rng.randint(2, 4))))
        bb = Bundle(b, tuple("f%d" % k for k in range(1, rng.randint(2, 4))))
        bc = Bundle(c, tuple("g%d" % k for k in range(1, rng.randint(2, 4))))
        bd = Bundle(d, tuple("h%d" % k for k in range(1, rng.randint(2, 4))))
        m1 = random_morphism(rng, ba, bb)
        m2 = random_morphism(rng, bb, bc)
        m3 = random_morphism(rng, bc, bd)

        # composition means "apply one, then the other", including the
        # base-map substitution in the matrix part
        pair = compose(m2, m1)
        for z in [random_section(rng, ba), ba.frame_section(0)]:
            assert apply_morphism(pair, z) == apply_morphism(m2, apply_morphism(m1, z))

        # and it associates, as data and in action
        left = compose(m3, pair)
        right = compose(compose(m3, m2), m1)
        assert left == right
        z = random_section(rng, ba)
        assert apply_morphism(left, z) == apply_morphism(right, z)


def test_left_pseudo_inverse():
    rng = random.Random(9005)
    for case in range(100):
        ncols = rng.randint(1, 3)
        nrows = rng.randint(ncols, 4)
        mat = full_column_rank_matrix(rng, nrows, ncols, degree=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDropWarning)
            left = left_pseudo_inverse(mat)
        assert matmul(left, mat) == FMatrix.identity(ncols)

    # and rank deficiency is refused, not silently mishandled
    names = ("x1", "x2")
    col = [[parse("x1", names)], [parse("x2", names)], [parse("1", names)]]
    doubled = FMatrix([row * 2 for row in col])
    with pytest.raises(SingularMatrixError, match=r"det\(R\^t\*R\) = 0"):
        left_pseudo_inverse(doubled)


def test_transform_equivalence():
    data = builtin_data()
    # the reflection carries one presentation of the system to the other
    assert verify_transform(data.sys_hat, data.sys_tilde, data.mirror)

    controls = lambda t: (1.0, t, t * t)
    x0 = (0.25, -0.5, 1.0)
    a = integrate(data.sys_hat, controls, x0, Fraction(1), Fraction(1, 1000))
    b = integrate(
        data.sys_tilde,
        controls,
        tuple(-v for v in x0),
        Fraction(1),
        Fraction(1, 1000),
    )
    drift = max(
        abs(p + q) for xa, xb in zip(a.states, b.states) for p, q in zip(xa, xb)
    )
    assert drift <= 1e-8


def test_energy_conservation():
    path = resources.files("algebroids").joinpath("scenarios", "worked_example.scn")
    problem = load_scenario(str(path)).el
    traj = solve_el(problem)
    assert traj.times[-1] == pytest.approx(5.0)
    assert max(abs(e - 0.5) for e in traj.energies) <= 1e-6

    # fourth-order convergence, measured against the closed forms
    def endpoint_error(dt):
        from algebroids import ELProblem

        short = ELProblem(
            problem.model,
            problem.lagrangian,
            problem.velocities,
            problem.x0,
            problem.z0,
            Fraction(1),
            dt,
        )
        t = solve_el(short)
        x = t.states[-1]
        z = t.velocities[-1]
        exact = (
            math.e,
            math.cosh(1),
            1 + math.log(math.cosh(1)),
            1 / math.cosh(1),
            math.tanh(1),
        )
        got = x + z
        return max(abs(p - q) for p, q in zip(got, exact))

    coarse = endpoint_error(Fraction(1, 50))
    fine = endpoint_error(Fraction(1, 100))
    order = math.log2(coarse / fine)
    assert order >= 3.8


def test_symbolic_engine():
    rng = random.Random(9008)
    names = ("x1", "x2", "x3")
    performed = 0
    for k in range(1000):
        family = k % 5
        if family == 0:
            # canonical form survives printing and reparsing
            e = random_rational(rng, names)
            assert parse(str(e), names) == e
            assert (e - e).is_zero()
        elif family == 1:
            # product rule
            e1 = random_rational(rng, names)
            e2 = random_rational(rng, names)
            x = rng.choice(names)
            assert (e1 * e2).diff(x) == e1.diff(x) * e2 + e1 * e2.diff(x)
        elif family == 2:
            # chain rule through substitution
            while True:
                f = random_rational(rng, names)
                sigma = {n: random_poly(rng, names, terms=2) for n in names}
                try:
                    lhs = f.subs(sigma).diff("x1")
                    break
                except PoleError:
                    continue
            rhs = Expr.constant(0)
            for n in names:
                rhs = rhs + f.diff(n).subs(sigma) * sigma[n].diff("x1")
            assert lhs == rhs
        elif family == 3:
            # partial derivatives commute
            e = random_rational(rng, names)
            a, b = rng.sample(names, 2)
            assert e.diff(a).diff(b) == e.diff(b).diff(a)
        else:
            # evaluation is a ring homomorphism
            e1 = random_rational(rng, names)
            e2 = random_rational(rng, names)
            while True:
                point = {n: random_fraction(rng) for n in names}
                try:
                    s = e1.evaluate(point), e2.evaluate(point)
                    break
                except PoleError:
                    continue
            assert (e1 + e2).evaluate(point) == s[0] + s[1]
            assert (e1 * e2).evaluate(point) == s[0] * s[1]
        performed += 1
    assert performed == 1000
