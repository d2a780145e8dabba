"""Exact multivariate rational functions over the rationals.

An Expr is a quotient num/den of two polynomials with integer
coefficients in named variables.  A polynomial is stored sparsely as a
dict mapping exponent tuples to nonzero ints: with variables ("x1",
"x2"), the dict {(1, 2): 3} is 3*x1*x2^2.  The zero polynomial is the
empty dict.  A rational coefficient lives in den, so x1/2 is the pair
x1, 2.

Canonical form, maintained by every operation:

* the variable tuple is sorted and contains only variables that occur,
* num and den are coprime in Z[x], integer content included,
* the graded-lex leading coefficient of den is positive, so den is the
  constant 1 exactly when the value is a polynomial with integer
  coefficients.

Structural equality of canonical forms therefore agrees with equality
of rational functions, which is what makes the exact golden tests in
this package possible.  Fractions appear only at the edges: as input to
Expr.constant, as the value of constant_value and evaluate, and in
_monic, which scales num and den by 1/lc(den) for printing and
compiling.  Exprs are immutable and hashable; everything here is a pure
function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "PoleError",
    "parse",
    "compile_expr",
]


class ExprError(Exception):
    """Base class for symbolic-engine errors."""


class ParseError(ExprError):
    """Malformed expression text; carries the character position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class PoleError(ExprError, ZeroDivisionError):
    """Division by an identically-zero expression, or evaluation at a pole."""


# ---------------------------------------------------------------------------
# Raw polynomial helpers.  A "poly" is a dict {exponent tuple: int},
# all tuples of one length (the arity), no zero coefficients stored.


def _grlex(mono):
    return (sum(mono), mono)


def _plead(p):
    """Graded-lex leading monomial of a nonzero poly."""
    return max(p, key=_grlex)


def _pisconst(p):
    return not p or (len(p) == 1 and not any(next(iter(p))))


def _pone(arity):
    return {(0,) * arity: 1}


def _pisone(p):
    if len(p) != 1:
        return False
    mono, c = next(iter(p.items()))
    return c == 1 and not any(mono)


def _padd(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _pneg(p):
    return {mono: -c for mono, c in p.items()}


def _psub(p, q):
    return _padd(p, _pneg(q))


def _pmul(p, q):
    if not p or not q:
        return {}
    if _pisone(p):
        return q
    if _pisone(q):
        return p
    if len(p) * len(q) > MAX_TERM_PAIRS:
        raise ExprError(
            "a product of %d by %d terms is over the budget of %d term pairs"
            % (len(p), len(q), MAX_TERM_PAIRS)
        )
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(map(add, m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def _ppow(p, k):
    """p^k for a nonzero poly p, by binary powering; p^0 is the constant 1."""
    if not k:
        return {(0,) * len(next(iter(p))): 1}
    while not k & 1:
        p = _pmul(p, p)
        k >>= 1
    out = p
    k >>= 1
    while k:
        p = _pmul(p, p)
        if k & 1:
            out = _pmul(out, p)
        k >>= 1
    return out


def _pderiv(p, i):
    out = {}
    for mono, c in p.items():
        e = mono[i]
        if e:
            key = mono[:i] + (e - 1,) + mono[i + 1 :]
            s = out.get(key, 0) + c * e
            if s:
                out[key] = s
    return out


def _peval(p, vals):
    total = Fraction(0)
    for mono, c in p.items():
        term = c
        for v, e in zip(vals, mono):
            if e:
                term *= v**e
        total += term
    return total


def _psubs(p, rows, one):
    """The sum of c * prod_i rows[i][e_i] over the terms c * x^e of p."""
    out = {}
    for mono, c in p.items():
        term = one
        for row, e in zip(rows, mono):
            term = _pmul(term, row[e])
        for m, v in term.items():
            s = out.get(m, 0) + c * v
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pdivexact(p, d):
    """Divide p by d over Z; raises ArithmeticError unless the division is exact."""
    if not p:
        return p
    if _pisconst(d):
        c = d[next(iter(d))]
        if c == 1:
            return p
        out = {}
        for m, v in p.items():
            quot, rem = divmod(v, c)
            if rem:
                raise ArithmeticError("inexact integer polynomial division")
            out[m] = quot
        return out
    quot = {}
    rem = dict(p)
    dlead = _plead(d)
    dlc = d[dlead]
    while rem:
        rlead = _plead(rem)
        mono = tuple(map(sub, rlead, dlead))
        if any(e < 0 for e in mono):
            raise ArithmeticError("inexact polynomial division")
        c, leftover = divmod(rem[rlead], dlc)
        if leftover:
            raise ArithmeticError("inexact integer polynomial division")
        quot[mono] = c
        # rem -= c * x^mono * d
        for dm, dc in d.items():
            key = tuple(map(add, mono, dm))
            s = rem.get(key, 0) - c * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return quot


# GCD over the integers.  Integer contents are split off, and then two
# methods run in turn:
#
# * GCDHEU (Char, Geddes, Gonnet, J. Symbolic Comput. 1989), tried
#   first: evaluate both polys at a large integer xi in one shared
#   variable, take the gcd of the two images (one variable fewer) with
#   _zgcd itself, and rebuild the answer xi-adically from symmetric
#   residues.  A point where an image vanishes is skipped.  The
#   primitive part of the rebuilt poly is kept only if it divides both
#   inputs exactly; with primitive inputs at every level and
#   xi > 2*min(|p|, |q|) + 1, |p| the largest absolute coefficient, it
#   is then the gcd.  It may fail (after six evaluation points), but it
#   is never used unchecked.
# * The subresultant pseudo-remainder sequence, the certified fallback:
#   a PRS in the highest shared variable, recursing on the
#   coefficients.  The fraction-free sequence keeps the integer growth
#   polynomial, where a primitive sequence over Q drowns in huge
#   Fraction normalizations.
#
# The "univariate view" of a poly in variable i is a dict {exponent of
# i: coefficient poly}, where the coefficient polys keep full arity
# with slot i zeroed out.


def _to_univ(p, i):
    out = {}
    for mono, c in p.items():
        e = mono[i]
        key = mono[:i] + (0,) + mono[i + 1 :]
        coeff = out.setdefault(e, {})
        coeff[key] = c
    return out


def _from_univ(u, i):
    out = {}
    for e, coeff in u.items():
        for mono, c in coeff.items():
            out[mono[:i] + (e,) + mono[i + 1 :]] = c
    return out


def _uprem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b (b nonzero).

    The full power of lc(b) matters: the subresultant divisions below
    are exact only for this normalization, so degree skips have to be
    compensated at the end.
    """
    db = max(b)
    lb = b[db]
    a = dict(a)
    steps = 0
    needed = (max(a) - db + 1) if a else 0
    while a:
        da = max(a)
        if da < db:
            break
        steps += 1
        la = a.pop(da)
        # a := lb*a - la*x^(da-db)*b, which kills the degree-da term.
        a = {e: _pmul(lb, c) for e, c in a.items()}
        for e, c in b.items():
            if e == db:
                continue
            key = e + da - db
            s = _psub(a.get(key, {}), _pmul(la, c))
            if s:
                a[key] = s
            else:
                a.pop(key, None)
    if a and needed > steps:
        lbp = _ppow(lb, needed - steps)
        a = {e: _pmul(c, lbp) for e, c in a.items()}
    return a


def _zcontent(p):
    g = 0
    for c in p.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _zucontent(u):
    g = None
    for coeff in u.values():
        g = dict(coeff) if g is None else _zgcd(g, coeff)
        if _pisconst(g) and abs(g[next(iter(g))]) == 1:
            break
    return g


def _zeval(p, i, xi):
    """Integer poly p with variable i set to xi; slot i of the result is 0."""
    powers = [1]
    out = {}
    for mono, c in p.items():
        e = mono[i]
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        key = mono[:i] + (0,) + mono[i + 1 :]
        s = out.get(key, 0) + c * powers[e]
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _zheu(p, q, i):
    """GCDHEU gcd of primitive integer polys that both use variable i, or None.

    The result is checked by exact division; None means the heuristic
    gave up and the caller must use another method.
    """
    norm = min(max(map(abs, p.values())), max(map(abs, q.values())))
    xi = 2 * norm + 29
    for _ in range(6):
        pe, qe = _zeval(p, i, xi), _zeval(q, i, xi)
        if pe and qe:
            # Rebuild G = sum g_k x_i^k from h, digit by symmetric digit.
            h, g, k, half = _zgcd(pe, qe), {}, 0, xi // 2
            while h:
                nxt = {}
                for mono, c in h.items():
                    r = c % xi
                    if r > half:
                        r -= xi
                    if r:
                        g[mono[:i] + (k,) + mono[i + 1 :]] = r
                    c = (c - r) // xi
                    if c:
                        nxt[mono] = c
                h, k = nxt, k + 1
            cg = _zcontent(g)
            g = {m: c // cg for m, c in g.items()}
            try:
                _pdivexact(p, g)
                _pdivexact(q, g)
            except ArithmeticError:
                pass
            else:
                return g
        # The next point as in the CGG paper, about 2.7 * xi^(5/4).
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _zgcd(p, q):
    """Gcd in Z[x] of two nonzero integer polys, integer content included, lead > 0."""
    if _pisconst(p) or _pisconst(q):
        return {(0,) * len(next(iter(p))): math.gcd(_zcontent(p), _zcontent(q))}
    ip, iq = _zcontent(p), _zcontent(q)
    g0 = math.gcd(ip, iq)
    if ip != 1:
        p = {m: c // ip for m, c in p.items()}
    if iq != 1:
        q = {m: c // iq for m, c in q.items()}
    arity = len(next(iter(p)))
    shared = set()
    for mono in p:
        shared.update(i for i, e in enumerate(mono) if e)
    used_q = set()
    for mono in q:
        used_q.update(i for i, e in enumerate(mono) if e)
    shared &= used_q
    if not shared:
        return {(0,) * arity: g0}
    i = max(shared)
    out = _zheu(p, q, i)
    if out is None:
        out = _zprs(p, q, i)
    if g0 != 1:
        out = {m: c * g0 for m, c in out.items()}
    if out[_plead(out)] < 0:
        out = {m: -c for m, c in out.items()}
    return out


def _zprs(p, q, i):
    """Gcd of primitive integer polys by a subresultant PRS in variable i."""
    arity = len(next(iter(p)))
    up, uq = _to_univ(p, i), _to_univ(q, i)
    cp, cq = _zucontent(up), _zucontent(uq)
    content = _zgcd(cp, cq)
    a = {e: _pdivexact(k, cp) for e, k in up.items()}
    b = {e: _pdivexact(k, cq) for e, k in uq.items()}
    if max(a) < max(b):
        a, b = b, a
    one = {(0,) * arity: 1}
    g, h = one, one
    while True:
        delta = max(a) - max(b)
        r = _uprem(a, b)
        if not r:
            cc = _zucontent(b)
            prim = _from_univ({e: _pdivexact(k, cc) for e, k in b.items()}, i)
            return _pmul(prim, content)
        if max(r) == 0:
            return content
        divisor = _pmul(g, _ppow(h, delta))
        a, b = b, {e: _pdivexact(k, divisor) for e, k in r.items()}
        g = a[max(a)]
        if delta:
            h = _pdivexact(_ppow(g, delta), _ppow(h, delta - 1))


# ---------------------------------------------------------------------------
# Expr


def _expr(variables, num, den):
    """Build an Expr assuming (variables, num, den) is already canonical."""
    e = object.__new__(Expr)
    object.__setattr__(e, "vars", variables)
    object.__setattr__(e, "num", num)
    object.__setattr__(e, "den", den)
    return e


def _canon(variables, num, den, reduced=False):
    """The canonical Expr of num/den; variables must already be sorted and distinct."""
    if not den:
        raise PoleError("denominator is identically zero")
    if not num:
        return ZERO
    if not reduced and not _pisone(den):
        g = _zgcd(num, den)
        if not _pisone(g):
            num = _pdivexact(num, g)
            den = _pdivexact(den, g)
    # Trim after reduction: cancellation can make variables disappear.
    keep = [i for i, column in enumerate(zip(*num, *den)) if any(column)]
    if len(keep) < len(variables):
        variables = tuple(variables[i] for i in keep)
        num = {tuple(m[i] for i in keep): c for m, c in num.items()}
        den = {tuple(m[i] for i in keep): c for m, c in den.items()}
    if den[_plead(den)] < 0:
        num, den = _pneg(num), _pneg(den)
    return _expr(variables, num, den)


def _coerce(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.constant(value)
    return None


def _align(a, b):
    """Embed two Exprs into their union variable universe."""
    if a.vars == b.vars:
        return a.vars, a.num, a.den, b.num, b.den
    merged = tuple(sorted(set(a.vars) | set(b.vars)))
    pos = {v: i for i, v in enumerate(merged)}
    return (
        merged,
        _embed(a.num, a.vars, pos, len(merged)),
        _embed(a.den, a.vars, pos, len(merged)),
        _embed(b.num, b.vars, pos, len(merged)),
        _embed(b.den, b.vars, pos, len(merged)),
    )


def _embed(p, old, pos, arity):
    slots = [pos[v] for v in old]
    out = {}
    for mono, c in p.items():
        key = [0] * arity
        for s, e in zip(slots, mono):
            key[s] = e
        out[tuple(key)] = c
    return out


class Expr:
    """A rational function in canonical form.

    Build one with parse(), Expr.variable() or Expr.constant(); the
    arithmetic operators, diff() and subs() do the rest.
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self):
        raise TypeError("use parse(), Expr.variable() or Expr.constant()")

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    @classmethod
    def variable(cls, name):
        if not _name_ok(name):
            raise ExprError("bad variable name %r" % (name,))
        return _expr((name,), {(1,): 1}, {(0,): 1})

    @classmethod
    def constant(cls, value):
        if type(value) is int:
            return _expr((), {(): value}, {(): 1}) if value else ZERO
        c = Fraction(value)
        if not c:
            return ZERO
        return _expr((), {(): c.numerator}, {(): c.denominator})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return not self.vars

    def constant_value(self):
        """The Fraction value of a constant Expr."""
        if self.vars:
            raise ExprError("not a constant: %s" % self)
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[()], self.den[()])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        variables, n1, d1, n2, d2 = _align(self, other)
        if d1 == d2:
            num = _padd(n1, n2)
            return _canon(variables, num, d1, reduced=_pisone(d1))
        num = _padd(_pmul(n1, d2), _pmul(n2, d1))
        return _canon(variables, num, _pmul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return _expr(self.vars, _pneg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        variables, n1, d1, n2, d2 = _align(self, other)
        if not (_pisone(d1) and _pisone(d2)):
            # Cross-cancel: each side is reduced, so removing
            # gcd(n1, d2) and gcd(n2, d1) leaves a reduced product.
            g = _zgcd(n1, d2)
            if not _pisone(g):
                n1, d2 = _pdivexact(n1, g), _pdivexact(d2, g)
            g = _zgcd(n2, d1)
            if not _pisone(g):
                n2, d1 = _pdivexact(n2, g), _pdivexact(d1, g)
        return _canon(variables, _pmul(n1, n2), _pmul(d1, d2), reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise PoleError("division by zero expression")
        if not self.num:
            return ZERO
        variables, n1, d1, n2, d2 = _align(self, other)
        g = _zgcd(n1, n2)
        if not _pisone(g):
            n1, n2 = _pdivexact(n1, g), _pdivexact(n2, g)
        g = _zgcd(d2, d1)
        if not _pisone(g):
            d2, d1 = _pdivexact(d2, g), _pdivexact(d1, g)
        return _canon(variables, _pmul(n1, d2), _pmul(d1, n2), reduced=True)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power; divide explicitly instead")
        if k == 0:
            return ONE
        if k == 1:
            return self
        if not self.num:
            return ZERO
        # num/den reduced implies num^k/den^k reduced, and lc(den^k) > 0.
        return _canon(self.vars, _ppow(self.num, k), _ppow(self.den, k), reduced=True)

    # -- calculus and composition ------------------------------------

    def diff(self, name):
        """Exact partial derivative with respect to the named variable."""
        if name not in self.vars:
            return ZERO
        i = self.vars.index(name)
        dn = _pderiv(self.num, i)
        if _pisconst(self.den):
            # Only the integer content of dn and den can cancel.
            return _canon(self.vars, dn, self.den)
        dd = _pderiv(self.den, i)
        num = _psub(_pmul(dn, self.den), _pmul(self.num, dd))
        return _canon(self.vars, num, _pmul(self.den, self.den))

    def subs(self, mapping):
        """Substitute Exprs (or numbers) for variables; unmapped variables stay.

        With variable i replaced by a_i/b_i, num and den are both
        multiplied through by prod b_i^D_i, D_i the largest exponent of
        variable i in either, so each becomes a polynomial; the common
        factor cancels.  Polynomial replacements keep the denominator 1.
        """
        repl = {}
        for name, value in mapping.items():
            v = _coerce(value)
            if v is None:
                raise ExprError("cannot substitute %r for %s" % (value, name))
            repl[name] = v
        if not any(name in repl for name in self.vars):
            return self
        images = [repl[v] if v in repl else Expr.variable(v) for v in self.vars]
        variables = tuple(sorted(set().union(*(e.vars for e in images))))
        pos = {v: i for i, v in enumerate(variables)}
        arity = len(variables)
        one = _pone(arity)
        rows = []  # rows[i][k] = a_i^k * b_i^(D_i - k)
        for e, top in zip(images, map(max, zip(*self.num, *self.den))):
            a = _embed(e.num, e.vars, pos, arity)
            b = _embed(e.den, e.vars, pos, arity)
            pa, pb = [one], [one]
            for _ in range(top):
                pa.append(_pmul(pa[-1], a))
                pb.append(_pmul(pb[-1], b))
            rows.append([_pmul(pa[k], pb[top - k]) for k in range(top + 1)])
        den = _psubs(self.den, rows, one)
        if not den:
            raise PoleError("substitution makes the denominator identically zero")
        return _canon(variables, _psubs(self.num, rows, one), den)

    def evaluate(self, point):
        """Exact Fraction value of the Expr at a point {name: rational}."""
        vals = []
        for name in self.vars:
            if name not in point:
                raise ExprError("no value for variable %s" % name)
            vals.append(Fraction(point[name]))
        dv = _peval(self.den, vals)
        if not dv:
            raise PoleError("denominator vanishes at the given point")
        return _peval(self.num, vals) / dv

    # -- equality and printing ----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.vars == other.vars
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash(
            (self.vars, tuple(sorted(self.num.items())), tuple(sorted(self.den.items())))
        )

    def __bool__(self):
        return bool(self.num)

    def __str__(self):
        num, den = _monic(self)
        if _pisone(den):
            return _fmt_poly(self.vars, num)
        return "(%s)/(%s)" % (_fmt_poly(self.vars, num), _fmt_poly(self.vars, den))

    def __repr__(self):
        return "Expr(%r)" % (str(self),)


ZERO = _expr((), {}, {(): 1})
ONE = _expr((), {(): 1}, {(): 1})


def _monic(e):
    """num and den of e divided by lc(den), the form that is printed and compiled."""
    lc = e.den[_plead(e.den)]
    if lc == 1:
        return e.num, e.den
    return (
        {m: Fraction(c, lc) for m, c in e.num.items()},
        {m: Fraction(c, lc) for m, c in e.den.items()},
    )


def _fmt_mono(variables, mono):
    parts = []
    for v, e in zip(variables, mono):
        if e == 1:
            parts.append(v)
        elif e:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts)


def _fmt_poly(variables, p):
    if not p:
        return "0"
    pieces = []
    for mono in sorted(p, key=_grlex, reverse=True):
        c = p[mono]
        m = _fmt_mono(variables, mono)
        try:
            digits = str(abs(c))
        except ValueError:  # past Python's limit on integer digits
            raise ExprError("a coefficient has too many digits to print") from None
        if not m:
            body = digits
        elif abs(c) == 1:
            body = m
        else:
            body = "%s*%s" % (digits, m)
        pieces.append((c < 0, body))
    neg, body = pieces[0]
    out = ("-" + body) if neg else body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _name_ok(name):
    return (
        isinstance(name, str)
        and len(name) > 0
        and (name[0].isalpha() or name[0] == "_")
        and all(ch.isalnum() or ch == "_" for ch in name)
    )


# ---------------------------------------------------------------------------
# Parser.  Grammar (documented in the README):
#
#   expr   := term (("+" | "-") term)*
#   term   := factor (("*" | "/") factor)*
#   factor := ("+" | "-") factor | power
#   power  := atom ("^" integer)?
#   atom   := integer | variable | "(" expr ")"
#
# Parentheses and signs nest by recursion, so their depth is capped.
# Exponents are capped too, and so is what a power builds: before it is
# taken, no variable's exponent may pass MAX_EXPONENT and no
# coefficient may pass MAX_DIGITS, the digit cap of integer literals
# (Python's default limit on integer digits).  A short text can still
# ask for a huge product, such as (x1+x2+x3+1)^60, so _pmul refuses one
# of more than MAX_TERM_PAIRS pairs of terms.

MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_DIGITS = 4300
MAX_TERM_PAIRS = 4_000_000


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = variables
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %s" % what, tok[2])
        return tok

    def nested(self, parse, tok):
        """parse() one level deeper than tok; past MAX_NESTING, a ParseError."""
        if self.depth == MAX_NESTING:
            raise ParseError("nesting deeper than %d levels" % MAX_NESTING, tok[2])
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.advance()
            rhs = self.parse_term()
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] in "*/":
            op = self.advance()
            rhs = self.parse_factor()
            if op[0] == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise PoleError(
                        "division by zero at position %d" % op[2]
                    )
                value = value / rhs
        return value

    def parse_factor(self):
        tok = self.peek()
        if tok[0] in "+-":
            self.advance()
            inner = self.nested(self.parse_factor, tok)
            return inner if tok[0] == "+" else -inner
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            caret = self.advance()
            tok = self.expect("int", "a nonnegative integer exponent")
            digits = tok[1].lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError("exponent larger than %d" % MAX_EXPONENT, tok[2])
            k = int(digits)
            for p in (base.num, base.den):
                if k * max((max(m, default=0) for m in p), default=0) > MAX_EXPONENT:
                    raise ParseError("power gives an exponent above %d" % MAX_EXPONENT, caret[2])
                # The largest coefficient of p^k is at most (sum |c|)^k.
                if k * math.log10(sum(map(abs, p.values())) or 1) >= MAX_DIGITS:
                    message = "power may give a coefficient of more than %d digits"
                    raise ParseError(message % MAX_DIGITS, caret[2])
            return base ** k
        return base

    def parse_atom(self):
        tok = self.advance()
        if tok[0] == "int":
            if len(tok[1]) > MAX_DIGITS:
                raise ParseError("integer literal too long (%d digits)" % len(tok[1]), tok[2])
            return Expr.constant(int(tok[1]))
        if tok[0] == "name":
            if tok[1] not in self.vars:
                raise ParseError("unknown variable %r" % tok[1], tok[2])
            return Expr.variable(tok[1])
        if tok[0] == "(":
            value = self.nested(self.parse_expr, tok)
            self.expect(")", "a closing parenthesis")
            return value
        raise ParseError("expected a number, variable or parenthesis", tok[2])


def parse(text, variables):
    """Parse expression text over the given variable names into an Expr."""
    names = list(variables)
    if len(set(names)) != len(names):
        raise ExprError("duplicate variable names: %r" % (names,))
    for name in names:
        if not _name_ok(name):
            raise ExprError("bad variable name %r" % (name,))
    parser = _Parser(text, set(names))
    value = parser.parse_expr()
    end = parser.advance()
    if end[0] != "end":
        raise ParseError("unexpected %r" % end[1], end[2])
    return value


# Terms per statement in compiled code: one long + chain overflows
# Python's compiler, so a longer sum is added up a chunk at a time.
_CHUNK = 200


def compile_expr(exprs, names):
    """Compile Exprs into one float function of the given argument names.

    A single Expr gives a function returning a float, a sequence of
    Exprs one returning the list of their values; a pole at the
    arguments raises ZeroDivisionError.  A coefficient beyond float range
    raises ExprError.  Every sum is added from left to right, in chunks
    of at most _CHUNK terms.
    """
    index = {name: i for i, name in enumerate(names)}
    lines = []

    def poly_src(p, variables):
        slots = [index[v] for v in variables]
        terms = []
        for mono, c in sorted(p.items()):
            try:
                parts = [repr(float(c))]
            except OverflowError:
                m = _fmt_mono(variables, mono)
                raise ExprError(
                    "%s is beyond float range"
                    % ("coefficient of " + m if m else "constant term")
                ) from None
            for i, e in enumerate(mono):
                if e == 1:
                    parts.append("a%d" % slots[i])
                elif e:
                    parts.append("a%d**%d" % (slots[i], e))
            terms.append("*".join(parts))
        if len(terms) <= _CHUNK:
            return " + ".join(terms) or "0.0"
        total = "s%d" % len(lines)
        for k in range(0, len(terms), _CHUNK):
            head = [total] if k else []
            lines.append("%s = %s" % (total, " + ".join(head + terms[k : k + _CHUNK])))
        return total

    def expr_src(expr):
        num, den = _monic(expr)
        body = poly_src(num, expr.vars)
        if not _pisone(den):
            body = "(%s) / (%s)" % (body, poly_src(den, expr.vars))
        return body

    if isinstance(exprs, Expr):
        body = expr_src(exprs)
    else:
        body = "[%s]" % ", ".join(map(expr_src, exprs))
    src = "def f(%s):\n" % ", ".join("a%d" % i for i in range(len(names)))
    src += "".join("    %s\n" % line for line in lines + ["return " + body])
    namespace = {}
    exec(src, namespace)
    return namespace["f"]
