"""Multivariate Laurent polynomials over F, monomial orders, and fractions.

The group Gamma of exponents is Z^k with componentwise addition; a monomial
eps^g is keyed by its exponent tuple. Monomial orders are coordinate-priority
lexicographic: a permutation of the coordinates, most significant first. This
covers the natural order on Z and the asymptotic orders b >> a on Z^2.

Every exponent is stored in priority order (`MonomialOrder.stored`), so the
monomial order on stored exponents is tuple order: a valuation is
`min(p.terms)`, and nothing in the arithmetic takes or keeps an order. Only
text input and output convert: `LaurentPoly.from_str` and `to_str`, the
weights a `HeckeAlgebra` is given, and the a-values the command line writes.

LaurentFraction is a quotient num/den of Laurent polynomials kept in a
canonical shape (the denominator's minimal exponent is zero with leading
coefficient one) but never reduced by polynomial gcd: equality is decided by
cross-multiplication, and the data anyone downstream actually consumes is the
valuation pair (g_x, r_x) of the normal form x = r_x eps^{g_x} (1+p)/(1+q).

Coefficients are int, Fraction or CycloNumber. A rational coefficient may be
stored as an int or a Fraction, and an integer-valued one as either; both
forms compare equal and hash alike (hash(3) == hash(Fraction(3))), so values,
equality and hashes of polynomials do not depend on the form. Fractions are
kept out of the word matrices where they would enter them:
`matrices.KMatrix.from_fractions` clears them, so products of word matrices
run on int coefficients through the one loop below.

`mul_into(out, a, b, sign)` is the convolution loop of the package: it adds
+-a*b to a mutable term map in place and deletes a coefficient that
cancels. A sum of products (a KL peel, an h-table entry, a KMatrix entry, a
Bareiss update) builds one term map through it and wraps it in a
`LaurentPoly` once, at the end, instead of building a polynomial per
product and copying the running sum to add it. `LaurentPoly.__mul__` is the
kernel on an empty map, and each step of `exact_divide` subtracts through
it.

`LaurentPoly(rank, terms)` keeps the map it is given, which must have no
zero coefficient; every kernel here builds its maps that way. Coefficients
are inverted through `scalar_inverse` alone, which returns an int unit 1 or
-1 as itself and hands an irrational coefficient to `fields`, and written
and read through the field's `format` and `parse`.

`exact_divide`, which every fraction-free (Bareiss) elimination step calls,
is long division on one remainder map, from the minimum up; it stores an
integer-valued quotient coefficient as an int. Dividing int polynomials by
one whose lowest coefficient is 1 or -1 therefore stays in ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, gt, sub

from .errors import ComputationError, InputError

Exponent = tuple


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def exp_neg(a: Exponent) -> Exponent:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class MonomialOrder:
    """Lexicographic order on Z^rank with the given coordinate priority. An
    exponent g is stored as `stored(g)`, its coordinates most significant
    first, and compared as a tuple; the order only converts text exponents."""

    rank: int
    priority: tuple

    def __post_init__(self):
        if sorted(self.priority) != list(range(self.rank)):
            raise InputError(f"priority {self.priority} is not a permutation of 0..{self.rank - 1}")

    def stored(self, g: Exponent) -> Exponent:
        return tuple(g[i] for i in self.priority)

    def user(self, g: Exponent) -> Exponent:
        """The inverse of `stored`: the user's coordinates of a stored exponent."""
        out = [0] * self.rank
        for i, x in zip(self.priority, g):
            out[i] = x
        return tuple(out)


def natural_order(rank: int = 1) -> MonomialOrder:
    return MonomialOrder(rank, tuple(range(rank)))


def parse_order(spec, rank: int) -> MonomialOrder:
    if spec in (None, "natural"):
        return natural_order(rank)
    if spec == "b-first":
        return MonomialOrder(rank, tuple(range(rank - 1, -1, -1)))
    try:
        priority = tuple(int(x) for x in str(spec).split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse order specification {spec!r}") from exc
    return MonomialOrder(rank, priority)


class LaurentPoly:
    """Sparse Laurent polynomial: finite map exponent tuple -> coefficient.

    Coefficients may be int, Fraction or CycloNumber; mixed arithmetic is fine
    because all three interoperate. The constructor takes `terms` as it is,
    so a caller passes a map with no zero coefficient; an integer-valued
    rational may be stored as either int or Fraction.

    A polynomial is never changed once made: the first `hash` is kept, and
    a `HeckeAlgebra` holds each of its values in one shared object.
    """

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: dict):
        self.rank = rank
        self.terms = terms
        self._hash = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {})

    @classmethod
    def constant(cls, rank: int, c) -> "LaurentPoly":
        if not c:
            return cls.zero(rank)
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def monomial(cls, g: Exponent, c=1) -> "LaurentPoly":
        if not c:
            return cls.zero(len(g))
        return cls(len(g), {tuple(g): c})

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls.constant(rank, 1)

    # -- ring operations ---------------------------------------------------------

    # __add__, __sub__ and mul_into sum terms inline rather than through
    # accumulate(): they are the hottest kernels of the package, and the
    # extra call per term costs about 30% of an addition of small
    # polynomials. __mul__ and each step of exact_divide call mul_into.

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for g, c in other.terms.items():
            s = out.get(g)
            if s is None:
                out[g] = c
            else:
                s = s + c
                if s:
                    out[g] = s
                else:
                    del out[g]
        return LaurentPoly(self.rank, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for g, c in other.terms.items():
            s = out.get(g)
            if s is None:
                out[g] = -c
            else:
                s = s - c
                if s:
                    out[g] = s
                else:
                    del out[g]
        return LaurentPoly(self.rank, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {g: -c for g, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.rank, mul_into({}, self.terms, other.terms))

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ComputationError("negative power of a Laurent polynomial")
        acc = LaurentPoly.one(self.rank)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def scale(self, c) -> "LaurentPoly":
        if not c:
            return LaurentPoly.zero(self.rank)
        return LaurentPoly(self.rank, {g: c * v for g, v in self.terms.items()})

    def __rmul__(self, c) -> "LaurentPoly":
        """Scalar times polynomial, for an int, Fraction or CycloNumber c."""
        return self.scale(c)

    def shift(self, g: Exponent) -> "LaurentPoly":
        if not any(g):
            return self
        return LaurentPoly(
            self.rank,
            {tuple(x + y for x, y in zip(h, g)): c for h, c in self.terms.items()},
        )

    def bar(self) -> "LaurentPoly":
        """The involution eps^g -> eps^{-g}."""
        return LaurentPoly(self.rank, {tuple(-x for x in g): c for g, c in self.terms.items()})

    # -- predicates and pieces -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rank, frozenset(self.terms.items())))
        return h

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"

    def constant_coefficient(self):
        return self.terms.get((0,) * self.rank, 0)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.rank in self.terms)

    def min_exponent(self) -> Exponent:
        if not self.terms:
            raise ComputationError("undefined valuation: zero polynomial")
        return min(self.terms)

    def specialize_exponents(self, images: list[Exponent], rank2: int) -> "LaurentPoly":
        """Apply the group homomorphism sending coordinate i to images[i]."""
        out = {}
        for g, c in self.terms.items():
            h = (0,) * rank2
            for i, e in enumerate(g):
                if e:
                    h = tuple(x + e * y for x, y in zip(h, images[i]))
            accumulate(out, h, c)
        return LaurentPoly(rank2, out)

    def exact_divide(self, den: "LaurentPoly"):
        """Return self/den if den divides self exactly, else None.

        Long division from the minimum up on one remainder map: each quotient
        term pops the remainder's minimum and subtracts its multiple of den's
        other terms in place (`mul_into`). A monomial den is a unit and divides in one
        pass. An integer-valued Fraction quotient coefficient is stored as an
        int, so int division by a unit-lead divisor stays in ints.

        A quotient exponent past the lexicographic bound max(self) - max(den),
        or past max_i(self) - max_i(den) in some coordinate i, shows that den
        does not divide self. The second test makes the division finite: the
        quotient exponents increase and stay in a box."""
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero(self.rank)
        dterms = den.terms
        dmin = min(dterms)
        dinv = scalar_inverse(dterms[dmin])
        if len(dterms) == 1:
            return LaurentPoly(self.rank, {exp_sub(g, dmin): int_if_integral(c * dinv)
                                           for g, c in self.terms.items()})
        # den's other terms relative to its minimum, negated
        tail = {exp_sub(g, dmin): -c for g, c in dterms.items() if g != dmin}
        bound = exp_sub(max(self.terms), max(dterms))
        cap = tuple(map(sub, map(max, zip(*self.terms)), map(max, zip(*dterms))))
        rem = dict(self.terms)
        quot = {}
        while rem:
            rmin = min(rem)
            qexp = exp_sub(rmin, dmin)
            if qexp > bound or any(map(gt, qexp, cap)):
                return None
            qc = int_if_integral(rem.pop(rmin) * dinv)
            quot[qexp] = qc
            mul_into(rem, {rmin: qc}, tail)
        return LaurentPoly(self.rank, quot)

    # -- text form -------------------------------------------------------------------

    def to_str(self, field, order: MonomialOrder) -> str:
        """Canonical text: `c*eps[g1,...,gk]` terms joined by ' + ', with each
        exponent in the user's coordinates of `order`, ascending."""
        if not self.terms:
            return "0"
        terms = {order.user(g): c for g, c in self.terms.items()}
        parts = []
        for g in sorted(terms):
            c = terms[g]
            cstr = field.format(c)
            if any(ch in cstr[1:] for ch in "+-"):
                cstr = f"({cstr})"
            parts.append(f"{cstr}*eps[{','.join(map(str, g))}]")
        return " + ".join(parts)

    @classmethod
    def from_str(cls, text: str, field, order: MonomialOrder) -> "LaurentPoly":
        """Parse `to_str` text, whose exponents are in the user's coordinates."""
        rank = order.rank
        text = text.strip()
        if text == "0":
            return cls.zero(rank)
        terms = {}
        for part in text.split(" + "):
            part = part.strip()
            if "*eps[" not in part or not part.endswith("]"):
                raise InputError(f"bad Laurent term {part!r}")
            cstr, _, gstr = part.rpartition("*eps[")
            if cstr.startswith("(") and cstr.endswith(")"):
                cstr = cstr[1:-1]
            coeff = field.parse(cstr)
            try:
                g = tuple(int(x) for x in gstr[:-1].split(",")) if gstr[:-1] else ()
            except ValueError:
                raise InputError(f"bad exponent in Laurent term {part!r}") from None
            if len(g) != rank:
                raise InputError(f"exponent {g} has rank {len(g)}, expected {rank}")
            if g in terms:
                raise InputError(f"duplicate exponent {g}")
            if coeff:
                terms[g] = coeff
        return cls(rank, {order.stored(g): c for g, c in terms.items()})


def accumulate(out: dict, key, val):
    """Add val into the sparse map out at key. A key whose sum cancels is
    deleted, so out never stores a zero."""
    cur = out.get(key)
    if cur is None:
        if val:
            out[key] = val
    else:
        cur = cur + val
        if cur:
            out[key] = cur
        else:
            del out[key]


def mul_into(out: dict, a: dict, b: dict, sign: int = 1) -> dict:
    """Add sign * a * b to the term map out in place, and return out.

    The convolution loop of the package: a and b are term maps
    (exponent -> coefficient) of one rank, with no zero coefficient, and are
    not changed; out must be neither of them. A coefficient of out that
    cancels is deleted, so out never stores a zero. Each coefficient
    product goes straight into out, in the coefficients' own arithmetic:
    exponents are summed without `map` at rank 1 and 2, and a term
    1 * eps^0 of the shorter operand adds the other's terms as they are."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return out
    # one copy of the loop per way of forming the key k and the value: one
    # loop over a list of (k, value) pairs took about 15% longer on the
    # products of the h-table and of the seminormal models
    get = out.get
    for g, c in a.items():
        if sign < 0:
            c = -c
        if not any(g) and c == 1:
            for k, d in b.items():
                s = get(k)
                if s is None:
                    out[k] = d
                else:
                    s = s + d
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        elif len(g) == 1:
            g0 = g[0]
            for h, d in b.items():
                k = (g0 + h[0],)
                s = get(k)
                if s is None:
                    out[k] = c * d
                else:
                    s = s + c * d
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        elif len(g) == 2:
            g0, g1 = g
            for h, d in b.items():
                k = (g0 + h[0], g1 + h[1])
                s = get(k)
                if s is None:
                    out[k] = c * d
                else:
                    s = s + c * d
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        else:
            for h, d in b.items():
                k = tuple(map(add, g, h))
                s = get(k)
                if s is None:
                    out[k] = c * d
                else:
                    s = s + c * d
                    if s:
                        out[k] = s
                    else:
                        del out[k]
    return out


def scalar_inverse(c):
    """Inverse of a nonzero int, Fraction or CycloNumber coefficient: the one
    entry point for inverting a coefficient. An int unit, 1 or -1, is its own
    inverse and is returned as that int."""
    if isinstance(c, int):
        return c if c == 1 or c == -1 else Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    return c.field.inverse(c)


def int_if_integral(c):
    """c, with an integer-valued Fraction replaced by its int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class LaurentFraction:
    """Element of the fraction field of F[Gamma], canonicalized but gcd-free.

    The denominator is normalized so its minimal exponent is zero and the
    corresponding coefficient is one. Equality is by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, _trusted=False):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not _trusted:
            g = den.min_exponent()
            r = den.terms[g]
            if any(g) or r != 1:
                rinv = scalar_inverse(r)
                den = den.shift(exp_neg(g)).scale(rinv)
                num = num.shift(exp_neg(g)).scale(rinv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "LaurentFraction":
        return cls(p, LaurentPoly.one(p.rank), _trusted=True)

    @classmethod
    def zero(cls, rank: int) -> "LaurentFraction":
        return cls(LaurentPoly.zero(rank), LaurentPoly.one(rank), _trusted=True)

    @property
    def rank(self):
        return self.num.rank

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if other.den is self.den or other.den == self.den:
            return LaurentFraction(self.num + other.num, self.den, _trusted=True)
        return LaurentFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if other.den is self.den or other.den == self.den:
            return LaurentFraction(self.num - other.num, self.den, _trusted=True)
        return LaurentFraction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return LaurentFraction(-self.num, self.den, _trusted=True)

    def __mul__(self, other):
        return LaurentFraction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero fraction")
        return LaurentFraction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("LaurentFraction is unhashable (no canonical gcd form)")

    def __repr__(self):
        return f"LaurentFraction({self.num!r} / {self.den!r})"

    # -- valuation-ring structure -----------------------------------------------------

    def valuation(self) -> tuple:
        """(g_x, r_x) from the normal form x = r_x eps^{g_x} (1+p)/(1+q).

        For x = 0 returns (None, 0): the +infinity convention for g_0.
        """
        if not self.num:
            return None, Fraction(0)
        g_num = self.num.min_exponent()
        # den is normalized: min exponent 0, leading coefficient 1
        return g_num, self.num.terms[g_num]
