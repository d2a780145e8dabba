"""Frame brackets, axiom checking and the twisted derivation bracket.

Run as: python3 demos/04_brackets.py
"""

from algebroids import (
    AlgebroidModel,
    BulletInstance,
    Bundle,
    Chart,
    FMatrix,
    anchor_derivation,
    bracket,
    builtin_data,
    bullet_bracket,
    check_axioms,
    check_bullet_jacobi,
    parse,
)

data = builtin_data()
tn = data.t_chart.coords
t1 = data.frame.frame_section(0)
t2 = data.frame.frame_section(1)

# Structure functions drive the frame bracket; coefficients follow
# the Leibniz rule through the anchor.
print("[t1, t2] =", bracket(data.classical, t1, t2))
print("[t1, xt1*t2] =", bracket(data.classical, t1, parse("xt1", tn) * t2))
print("a(t2)(xt1) =", anchor_derivation(data.classical, t2, parse("xt1", tn)))

# The classical model passes the whole axiom battery.
print()
print("classical model:")
print(check_axioms(data.classical, seed=1, samples=10).text())

# Twisting the base maps breaks two of the four identities; the
# report says which and leaves a witness.
print()
print("model with reflected base maps:")
rep = check_axioms(data.generalized, seed=1, samples=10)
print(rep.text())
print("anchor witness:", rep.item("anchor-morphism").witnesses[0])

# ------------------------------------------------------------------
# Constant structure functions are not automatically consistent: this
# rank-3 table satisfies antisymmetry yet fails the Jacobi cycle.
b3 = Bundle(data.t_chart, ("t1", "t2", "t3"))
zero3 = FMatrix([[parse("0", tn)] * 3] * 3)
one = parse("1", tn)
broken = AlgebroidModel.from_table(b3, zero3, {(1, 1, 2): one, (2, 1, 3): one})
print()
print("broken table:", check_axioms(broken, seed=1, samples=5).item("jacobi").witnesses[0])

# ------------------------------------------------------------------
# The same story one level down: derivations of the function ring,
# twisted by an endomorphism rho.  With rho = I this is the ordinary
# Lie bracket of vector fields; other choices lose the Jacobi
# identity.  The bracket is the anchored one with anchor rho and no
# structure functions, so check_bullet_jacobi decides Jacobi exactly
# from finitely many cycles and names each one that fails.
plane = Chart("plane", ("x1", "x2"))
pn = plane.coords
ident = FMatrix([[parse("1", pn), parse("0", pn)], [parse("0", pn), parse("1", pn)]])
plain = BulletInstance(plane, ident)
x = plain.bundle.section(["x2", "1"])
y = plain.bundle.section(["x1*x2", "x1"])
print()
print("[X, Y] with rho = I:", bullet_bracket(plain, x, y))
print("identity rho:", check_bullet_jacobi(plain).text())

twisted = BulletInstance(
    plane, FMatrix([[parse("x2", pn), parse("0", pn)], [parse("0", pn), parse("1", pn)]])
)
rep = check_bullet_jacobi(twisted)
print("rho = diag(x2, 1):")
print(rep.text())
