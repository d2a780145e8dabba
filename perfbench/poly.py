"""Small exact arithmetic kept apart from the program under test.

Polynomials are dicts {exponent tuple: Fraction} over a fixed number of
variables.  The generator uses them to build scenarios and the checkers
use them, together with `evaluate_text`, to recompute what the program
printed.  Nothing here imports `algebroids`.
"""

from __future__ import annotations

import ast
from fractions import Fraction


def const(c, n):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(i, n):
    return {tuple(int(k == i) for k in range(n)): Fraction(1)}


def add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def scale(p, c):
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def sub(p, q):
    return add(p, scale(q, -1))


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(p, k, n):
    out = const(1, n)
    for _ in range(k):
        out = mul(out, p)
    return out


def deriv(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            d = list(m)
            d[i] -= 1
            out[tuple(d)] = c * m[i]
    return out


def compose(p, repl, n):
    """p with variable i replaced by the polynomial repl[i] (over n variables)."""
    out = {}
    for m, c in p.items():
        term = const(c, n)
        for i, e in enumerate(m):
            if e:
                term = mul(term, power(repl[i], e, n))
        out = add(out, term)
    return out


def evaluate(p, point):
    total = 0
    for m, c in p.items():
        term = c
        for x, e in zip(point, m):
            if e:
                term *= x**e
        total += term
    return total


def degree(p):
    return max((sum(m) for m in p), default=0)


def to_text(p, names):
    """The polynomial in the scenario grammar: `3/2*x1^2*x2 - x3 + 1`."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (-sum(m), m)):
        c = p[m]
        factors = [
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in zip(names, m)
            if e
        ]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def float_source(p, args):
    """A Python expression evaluating p in floats over the argument names."""
    if not p:
        return "0.0"
    terms = []
    for m, c in p.items():
        factors = [repr(float(c))]
        factors += ["%s**%d" % (a, e) if e > 1 else a for a, e in zip(args, m) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)


_FIELD = {
    "const": Fraction,
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, k: a**k,
    ast.USub: lambda a: -a,
}


def _walk(text, point, ops):
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return ops["const"](node.value)
        if isinstance(node, ast.Name) and node.id in point:
            return point[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return ops[ast.USub](v) if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exp = node.right
            if isinstance(exp, ast.Constant) and type(exp.value) is int:
                return ops[ast.Pow](ev(node.left), exp.value)
        elif isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](ev(node.left), ev(node.right))
        raise ValueError("unexpected syntax in %r" % text)

    return ev(tree.body)


def evaluate_text(text, point):
    """Exact value of an expression printed by the program, at {name: Fraction}.

    Accepts the grammar the program prints: integers, names, + - * /,
    `^` with an integer exponent and parentheses.  A vanishing
    denominator raises ZeroDivisionError.
    """
    return _walk(text, point, _FIELD)


def _divide(p, q):
    if len(q) != 1 or any(sum(m) for m in q):
        raise ValueError("only division by a constant makes a polynomial")
    return scale(p, 1 / next(iter(q.values())))


def evaluate_poly_text(text, point, n):
    """Parse a polynomial in the scenario grammar, names mapped by `point`."""
    ops = {
        "const": lambda c: const(c, n),
        ast.Add: add,
        ast.Sub: sub,
        ast.Mult: mul,
        ast.Div: _divide,
        ast.Pow: lambda p, k: power(p, k, n),
        ast.USub: lambda p: scale(p, -1),
    }
    return _walk(text, point, ops)
