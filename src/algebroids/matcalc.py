"""Matrices with exact rational-function entries.

Everything stays symbolic: products, determinants and inverses are
computed entrywise on Exprs, so identities like L*R == I can be
asserted with plain equality.  Sizes in this package are tiny (at most
4x4), which is why the determinant uses cofactor expansion and the
inverse goes through the adjugate instead of elimination.
"""

from __future__ import annotations

import warnings

from .symexpr import Expr, ExprError, _coerce, _fmt_poly, _monic

__all__ = [
    "FMatrix",
    "SingularMatrixError",
    "RankDropWarning",
    "matmul",
    "determinant",
    "adjugate_inverse",
    "left_pseudo_inverse",
]


class SingularMatrixError(ExprError):
    """A matrix has no inverse over the rational-function field.

    The determinant that vanished is kept in .determinant.
    """

    def __init__(self, message, det):
        super().__init__(message)
        self.determinant = det


class RankDropWarning(UserWarning):
    """A generically invertible matrix may lose rank on a zero locus."""


def _entry(value):
    e = _coerce(value)
    if e is None:
        if isinstance(value, str):
            raise ExprError(
                "matrix entries must be Exprs or numbers, not strings; "
                "parse %r first" % value
            )
        raise ExprError("bad matrix entry %r" % (value,))
    return e


class FMatrix:
    """A rectangular matrix of Exprs."""

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, rows):
        entries = tuple(tuple(_entry(v) for v in row) for row in rows)
        if not entries or not entries[0]:
            raise ExprError("matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ExprError("ragged matrix rows")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "nrows", len(entries))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("FMatrix is immutable")

    @classmethod
    def identity(cls, n):
        one, zero = Expr.constant(1), Expr.constant(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        return FMatrix(list(zip(*self.entries)))

    def subs(self, mapping):
        """Apply a variable substitution to every entry."""
        return FMatrix([[e.subs(mapping) for e in row] for row in self.entries])

    def rename(self, mapping):
        """Rename variables entrywise, e.g. {"xt1": "x1"}."""
        repl = {old: Expr.variable(new) for old, new in mapping.items()}
        return self.subs(repl)

    def __eq__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.shape() != other.shape():
            raise ExprError("shape mismatch %s vs %s" % (self.shape(), other.shape()))
        return FMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FMatrix([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, FMatrix):
            return matmul(self, other)
        scalar = _coerce(other)
        if scalar is None:
            return NotImplemented
        return FMatrix([[e * scalar for e in row] for row in self.entries])

    def __rmul__(self, other):
        scalar = _coerce(other)
        if scalar is None:
            return NotImplemented
        return FMatrix([[scalar * e for e in row] for row in self.entries])

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        )

    def __repr__(self):
        return "FMatrix(%r)" % ([[str(e) for e in row] for row in self.entries],)


def matmul(a, b):
    """Exact matrix product."""
    if a.ncols != b.nrows:
        raise ExprError(
            "cannot multiply %dx%d by %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols)
        )
    bt = b.transpose().entries
    return FMatrix(
        [
            [_dot(row, col) for col in bt]
            for row in a.entries
        ]
    )


def _dot(row, col):
    total = Expr.constant(0)
    for x, y in zip(row, col):
        total = total + x * y
    return total


def determinant(s):
    """Exact determinant by cofactor expansion along the first row."""
    if s.nrows != s.ncols:
        raise ExprError("determinant of a %dx%d matrix" % (s.nrows, s.ncols))
    return _det(s.entries)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Expr.constant(0)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _cofactor(rows, i, j):
    minor = [
        row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i
    ]
    c = _det(minor)
    return c if (i + j) % 2 == 0 else -c


def adjugate_inverse(s):
    """Exact inverse of a square matrix via the adjugate.

    Raises SingularMatrixError when the determinant is identically
    zero, i.e. the matrix is singular as a function-valued matrix even
    if it happens to be invertible at particular points.
    """
    det = determinant(s)
    if det.is_zero():
        raise SingularMatrixError("singular over the function field", det)
    n = s.nrows
    if n == 1:
        return FMatrix([[Expr.constant(1) / s[0, 0]]])
    rows = s.entries
    # adj[i][j] = cofactor(j, i): the transpose is folded in here.
    return FMatrix(
        [[_cofactor(rows, j, i) / det for j in range(n)] for i in range(n)]
    )


def left_pseudo_inverse(r):
    """(R^t R)^-1 R^t, the exact left inverse of a tall full-column-rank R.

    Full column rank is decided over the function field: det(R^t R)
    must not be identically zero.  If that determinant is a nonconstant
    function, the left inverse is still returned, but a RankDropWarning
    points out the locus where it degenerates.
    """
    if r.nrows < r.ncols:
        raise ExprError(
            "left inverse needs rows >= cols, got %dx%d" % (r.nrows, r.ncols)
        )
    rt = r.transpose()
    gram = matmul(rt, r)
    det = determinant(gram)
    if det.is_zero():
        raise SingularMatrixError(
            "no generic left inverse: det(R^t*R) = %s identically" % det, det
        )
    if not det.is_constant():
        warnings.warn(
            "rank may drop where %s = 0" % _locus(det),
            RankDropWarning,
            stacklevel=2,
        )
    return matmul(adjugate_inverse(gram), rt)


def _locus(det):
    # The zero locus of a rational function is that of its numerator.
    return _fmt_poly(det.vars, _monic(det)[0])
