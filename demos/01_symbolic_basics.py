"""Exact rational expressions: parsing, arithmetic, calculus.

Run as: python3 demos/01_symbolic_basics.py
"""

from fractions import Fraction

from algebroids import PoleError, parse

NAMES = ("x1", "x2")

# Expressions parse over a declared variable tuple and live in a
# canonical form, so equal functions compare equal as objects.
a = parse("(x1 + x2)^2", NAMES)
b = parse("x1^2 + 2*x1*x2 + x2^2", NAMES)
print("a =", a)
print("b =", b)
print("a == b:", a == b)

# Rational arithmetic cancels automatically and keeps denominators
# monic; no floating point is involved anywhere.
q = (a - b + parse("x1", NAMES)) / parse("2*x1", NAMES)
print("(a - b + x1)/(2*x1) =", q)

# ------------------------------------------------------------------
# Derivatives follow the quotient rule exactly.
f = parse("x1 / (1 + x1*x2)", NAMES)
print("f =", f)
print("df/dx1 =", f.diff("x1"))
print("df/dx2 =", f.diff("x2"))
print("mixed partials agree:", f.diff("x1").diff("x2") == f.diff("x2").diff("x1"))

# Substitution composes functions; evaluation lands in Fraction.
g = f.subs({"x1": parse("-x1", NAMES)})
print("f with x1 -> -x1:", g)
print("f at (1, 1/2):", f.evaluate({"x1": 1, "x2": Fraction(1, 2)}))

# Division by a function that is identically zero is refused up
# front, and evaluation at a pole raises the same error type.
try:
    parse("1/(x1 - x1)", NAMES)
except PoleError as err:
    print("pole refused:", err)
try:
    parse("1/x1", NAMES).evaluate({"x1": 0, "x2": 0})
except PoleError as err:
    print("pole at a point:", err)
