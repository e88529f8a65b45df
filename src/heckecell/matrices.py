"""Exact matrices and the one elimination kernel behind every det and inverse.

Two kinds of matrices appear in this package: matrices over a field of plain
scalars (Fraction or CycloNumber), handled by the f_* functions on lists of
lists (`f_sparse_mul` multiplies their `f_nonzero` entry lists instead), and
matrices over the fraction field of the Laurent ring, handled by KMatrix,
which keeps one common polynomial denominator per matrix so that products
only ever multiply polynomials. `KMatrix.from_fractions`, where rational
coefficients enter the word matrices, clears their denominators, so those
polynomials carry no Fraction coefficient.

Determinants and inverses of both kinds come from `eliminate`, a single
Gauss-Jordan pass over an augmented matrix [A | B]; so do the norm and the
inverse of a real-cyclotomic field element, through its rational
multiplication matrix (`fields`). Over a field it scales
each pivot row by one field inverse. Over the Laurent ring it stays
fraction-free (Bareiss, Math. Comp. 22, 1968): each update is divided
exactly by the previous pivot, so every entry is a minor of [A | B] and a
KMatrix inverse is a polynomial matrix over one denominator.

The Laurent sums of products, each entry of a KMatrix product and each
Bareiss update a[i][j] p - a[i][k] a[k][j], are built on one term map by
`scalars.mul_into` and become a polynomial once.

`KMatrix.residue` is the one residue map O -> F of the package, applied
entrywise: the balance test, the leading tensors and the B-matrices read it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ComputationError
from .scalars import (LaurentFraction, LaurentPoly, accumulate, exp_sub, int_if_integral,
                      mul_into, scalar_inverse)


def eliminate(m, n: int, one):
    """Gauss-Jordan on the augmented rows m = [A | B] in place; return det A.

    A is the leading n x n block and `one` the unit of the entries' ring.
    When det A != 0 the B block ends as q A^-1 B:
    - over a field (`one` a scalar) each pivot row is scaled by its pivot's
      inverse, and q = 1; a row that is zero right of its pivot needs
      neither the inverse nor any update;
    - over the Laurent ring (`one` a LaurentPoly) the elimination is fraction-free,
      and q is the last pivot m[n-1][n-1], which is det A up to the sign of
      the row swaps.
    Without a B block only the rows below each pivot are cleared, which is
    all the determinant needs. Columns up to the current pivot are not kept
    up to date.
    """
    width = len(m[0]) if m else n
    fraction_free = isinstance(one, LaurentPoly)
    sign = 1
    det = prev = one
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return one - one
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row, p = m[k], m[k][k]
        rows = [i for i in range(0 if width > n else k + 1, n) if i != k]
        if not fraction_free:
            det = det * p
            if not any(row[k + 1:]):
                continue
            inv = scalar_inverse(p)
            for j in range(k + 1, width):
                if row[j]:
                    row[j] = row[j] * inv
            for i in rows:
                f = m[i][k]
                if f:
                    ri = m[i]
                    for j in range(k + 1, width):
                        if row[j]:
                            ri[j] = ri[j] - f * row[j]
        else:
            rank, pt = p.rank, p.terms
            for i in rows:
                f, ri = m[i][k].terms, m[i]
                for j in range(k + 1, width):
                    acc = {}
                    if ri[j]:
                        mul_into(acc, ri[j].terms, pt)
                    if f and row[j]:
                        mul_into(acc, f, row[j].terms, -1)
                    x = LaurentPoly(rank, acc)
                    if k and acc:
                        x = x.exact_divide(prev)
                        if x is None:
                            raise ComputationError("Bareiss division failed")
                    ri[j] = x
            det = prev = p
    return det if sign > 0 else -det


# -- plain field matrices (lists of lists of Fraction/CycloNumber) -------------


def f_nonzero(a) -> list:
    """The nonzero entries [(i, j, c)] of a field matrix, in row-major order."""
    return [(i, j, c) for i, row in enumerate(a) for j, c in enumerate(row) if c]


def f_sparse_mul(a, b) -> dict:
    """Product of two field matrices given by their nonzero entries [(i, j, c)],
    as the map {(i, k): c} of its nonzero entries. Costs one multiplication
    per pair of entries that meet, whatever the dimension."""
    rows: dict = {}
    for j, k, c in b:
        rows.setdefault(j, []).append((k, c))
    out: dict = {}
    for i, j, c in a:
        for k, d in rows.get(j, ()):
            accumulate(out, (i, k), c * d)
    return out


def f_det(a):
    return eliminate([row[:] for row in a], len(a), Fraction(1))


def f_inverse(a):
    """(A^-1, det A) from one elimination; raises on a singular A."""
    n = len(a)
    m = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(a)]
    det = eliminate(m, n, Fraction(1))
    if not det:
        raise ComputationError("singular matrix")
    return [row[n:] for row in m], det


# -- matrices over the Laurent fraction field ----------------------------------


def _times_int(p: LaurentPoly, k: int) -> LaurentPoly:
    """k * p, with each integer-valued coefficient stored as an int."""
    return LaurentPoly(p.rank, {g: int_if_integral(c * k) for g, c in p.terms.items()})


class KMatrix:
    """Matrix over K kept as (numerator polynomial matrix, common denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: LaurentPoly):
        self.num = num
        self.den = den

    @classmethod
    def identity(cls, n: int, rank: int) -> "KMatrix":
        one, zero = LaurentPoly.one(rank), LaurentPoly.zero(rank)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)],
                   LaurentPoly.one(rank))

    @classmethod
    def from_polys(cls, rows) -> "KMatrix":
        rank = rows[0][0].rank
        return cls([list(r) for r in rows], LaurentPoly.one(rank))

    @classmethod
    def from_fractions(cls, rows) -> "KMatrix":
        """Combine a matrix of LaurentFractions over one common denominator.

        The distinct entry denominators are taken from the most terms down,
        and each is multiplied in only when an exact division shows that it
        does not already divide the product so far. A seminormal generator's
        entries over 1 - r and (1 - r)^2 then share (1 - r)^2, not (1 - r)^3.
        Every entry denominator divides the result.

        Numerators and denominator are then multiplied by the lcm k of the
        Fraction denominators among their coefficients: entries with rational
        coefficients give numerators and a denominator with int coefficients,
        so products of such matrices run on ints. The matrix is the same
        element of M_n(K).
        """
        quot = dict.fromkeys(x.den for row in rows for x in row)
        den = LaurentPoly.one(rows[0][0].rank)
        for d in sorted(quot, key=lambda d: -len(d.terms)):
            if den.exact_divide(d) is None:
                den = den * d
        for d in quot:
            quot[d] = den.exact_divide(d)
        num = [[x.num * quot[x.den] for x in row] for row in rows]
        polys = [den] + [x for row in num for x in row]
        k = lcm(*(c.denominator for p in polys for c in p.terms.values()
                  if type(c) is Fraction))
        if k > 1:
            num = [[_times_int(x, k) for x in row] for row in num]
            den = _times_int(den, k)
        return cls(num, den)

    @property
    def dim(self):
        return len(self.num)

    @property
    def rank(self):
        return self.den.rank

    def entry(self, i: int, j: int) -> LaurentFraction:
        return LaurentFraction(self.num[i][j], self.den)

    def fractions(self):
        return [[self.entry(i, j) for j in range(len(self.num[0]))] for i in range(self.dim)]

    def __mul__(self, other: "KMatrix") -> "KMatrix":
        rank = self.rank
        cols = [[x.terms for x in col] for col in zip(*other.num)]
        out = []
        for ai in self.num:
            ai = [x.terms for x in ai]
            row = []
            for col in cols:
                acc = {}
                for x, y in zip(ai, col):
                    if x and y:
                        mul_into(acc, x, y)
                row.append(LaurentPoly(rank, acc))
            out.append(row)
        return KMatrix(out, self.den * other.den)

    def __add__(self, other: "KMatrix") -> "KMatrix":
        if self.den == other.den:
            return KMatrix([[x + y for x, y in zip(r1, r2)]
                            for r1, r2 in zip(self.num, other.num)], self.den)
        return KMatrix(
            [[x * other.den + y * self.den for x, y in zip(r1, r2)]
             for r1, r2 in zip(self.num, other.num)],
            self.den * other.den)

    def scale_poly(self, p: LaurentPoly) -> "KMatrix":
        return KMatrix([[x * p for x in row] for row in self.num], self.den)

    def transpose(self) -> "KMatrix":
        return KMatrix([list(col) for col in zip(*self.num)], self.den)

    def __eq__(self, other):
        if not isinstance(other, KMatrix):
            return NotImplemented
        if [len(r) for r in self.num] != [len(r) for r in other.num]:
            return False
        if self.den == other.den:
            return all(r1 == r2 for r1, r2 in zip(self.num, other.num))
        for r1, r2 in zip(self.num, other.num):
            for x, y in zip(r1, r2):
                if x * other.den != y * self.den:
                    return False
        return True

    def __repr__(self):
        return f"KMatrix({self.dim}x{len(self.num[0])}, den={self.den!r})"

    def residue(self, shift=None):
        """The residues in F of eps^shift times each entry, or None if one lies outside O.

        O is the valuation ring of the monomial order and the residue map
        O -> F = O/p keeps the constant term of the normal form. An entry x/den
        has valuation g_x - g_den + shift; its residue is zero when that is
        positive and lead(x)/lead(den) when it is zero. The denominator's lead
        coefficient is inverted at most once, and only for a nonzero residue.
        """
        dmin = self.den.min_exponent()
        base = dmin if shift is None else exp_sub(dmin, shift)
        inv = None
        out = []
        for row in self.num:
            res = []
            for x in row:
                c = Fraction(0)
                if x:
                    g = x.min_exponent()
                    if g < base:
                        return None
                    if g == base:
                        if inv is None:
                            inv = scalar_inverse(self.den.terms[dmin])
                        c = x.terms[g] * inv
                res.append(c)
            out.append(res)
        return out

    def det(self) -> LaurentFraction:
        """Fraction-free determinant of num, divided by den^dim."""
        one = LaurentPoly.one(self.rank)
        det = eliminate([row[:] for row in self.num], self.dim, one)
        return LaurentFraction(det, self.den ** self.dim)

    def inverse(self) -> "KMatrix":
        """den num^-1 over det num. Elimination leaves q num^-1, q the last
        Bareiss pivot: det num, or -det num, and then the rows are negated."""
        n = self.dim
        one, zero = LaurentPoly.one(self.rank), LaurentPoly.zero(self.rank)
        m = [row[:] + [one if i == j else zero for j in range(n)]
             for i, row in enumerate(self.num)]
        det = eliminate(m, n, one)
        if not det:
            raise ComputationError("singular matrix")
        scale = self.den if not n or m[n - 1][n - 1] == det else -self.den
        return KMatrix([[scale * x for x in row[n:]] for row in m], det)
