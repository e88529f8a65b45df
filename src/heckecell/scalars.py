"""Multivariate Laurent polynomials over F, monomial orders, and fractions.

The group Gamma of exponents is Z^k with componentwise addition; a monomial
eps^g is keyed by its exponent tuple. Monomial orders are coordinate-priority
lexicographic: a permutation of the coordinates, most significant first. This
covers the natural order on Z and the asymptotic orders b >> a on Z^2.

LaurentFraction is a quotient num/den of Laurent polynomials kept in a
canonical shape (the denominator's minimal exponent is zero with leading
coefficient one) but never reduced by polynomial gcd: equality is decided by
cross-multiplication, and the data anyone downstream actually consumes is the
valuation pair (g_x, r_x) of the normal form x = r_x eps^{g_x} (1+p)/(1+q).

Coefficients are int, Fraction or CycloNumber. A rational coefficient may be
stored as an int or a Fraction, and an integer-valued one as either: the
product of two polynomials with rational coefficients, neither a monomial and
not both all-int, convolves integer numerators over the lcm of each side's
denominators and stores each result as an int when it is integer-valued. Both
forms compare equal and hash alike (hash(3) == hash(Fraction(3))), so values,
equality and hashes of polynomials do not depend on the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .errors import ComputationError, InputError

Exponent = tuple


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def exp_neg(a: Exponent) -> Exponent:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on Z^rank: lexicographic with the given coordinate priority."""

    rank: int
    priority: tuple

    def __post_init__(self):
        if sorted(self.priority) != list(range(self.rank)):
            raise InputError(f"priority {self.priority} is not a permutation of 0..{self.rank - 1}")

    def key(self, g: Exponent):
        return tuple(g[i] for i in self.priority)

    def less(self, a: Exponent, b: Exponent) -> bool:
        return self.key(a) < self.key(b)

    def is_positive(self, g: Exponent) -> bool:
        return self.key(g) > (0,) * self.rank

    def is_negative(self, g: Exponent) -> bool:
        return self.key(g) < (0,) * self.rank

    @property
    def zero(self) -> Exponent:
        return (0,) * self.rank


def natural_order(rank: int = 1) -> MonomialOrder:
    return MonomialOrder(rank, tuple(range(rank)))


class LaurentPoly:
    """Sparse Laurent polynomial: finite map exponent tuple -> coefficient.

    Coefficients may be int, Fraction or CycloNumber; mixed arithmetic is fine
    because all three interoperate. Zero coefficients are never stored, and an
    integer-valued rational may be stored as either int or Fraction.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None, _trusted: bool = False):
        self.rank = rank
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            self.terms = {g: c for g, c in terms.items() if c}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {}, _trusted=True)

    @classmethod
    def constant(cls, rank: int, c) -> "LaurentPoly":
        if not c:
            return cls.zero(rank)
        return cls(rank, {(0,) * rank: c}, _trusted=True)

    @classmethod
    def monomial(cls, g: Exponent, c=1) -> "LaurentPoly":
        if not c:
            return cls.zero(len(g))
        return cls(len(g), {tuple(g): c}, _trusted=True)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls.constant(rank, 1)

    # -- ring operations ---------------------------------------------------------

    # __add__, __sub__, __mul__ and _int_convolve sum terms inline rather than
    # through accumulate(): they are the hottest kernels of the package, and
    # the extra call per term costs about 30% of an addition of small
    # polynomials.

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
        return LaurentPoly(self.rank, out, _trusted=True)

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
        return LaurentPoly(self.rank, out, _trusted=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {g: -c for g, c in self.terms.items()}, _trusted=True)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) > 1:
            ra = _rational_denominator(a)
            rb = _rational_denominator(b) if ra else None
            if rb and (ra[1] or rb[1]):
                return LaurentPoly(self.rank, _int_convolve(a, ra[0], b, rb[0]), _trusted=True)
        out = {}
        for g, c in a.items():
            for h, d in b.items():
                k = tuple(map(add, g, h))
                s = out.get(k)
                if s is None:
                    out[k] = c * d
                else:
                    s = s + c * d
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return LaurentPoly(self.rank, out, _trusted=True)

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
        return LaurentPoly(self.rank, {g: c * v for g, v in self.terms.items()}, _trusted=True)

    def __rmul__(self, c) -> "LaurentPoly":
        """Scalar times polynomial, for an int, Fraction or CycloNumber c."""
        return self.scale(c)

    def shift(self, g: Exponent) -> "LaurentPoly":
        if not any(g):
            return self
        return LaurentPoly(
            self.rank,
            {tuple(x + y for x, y in zip(h, g)): c for h, c in self.terms.items()},
            _trusted=True,
        )

    def bar(self) -> "LaurentPoly":
        """The involution eps^g -> eps^{-g}."""
        return LaurentPoly(
            self.rank, {tuple(-x for x in g): c for g, c in self.terms.items()}, _trusted=True
        )

    # -- predicates and pieces -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset((g, _hashable(c)) for g, c in self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"

    def coefficient(self, g: Exponent):
        return self.terms.get(tuple(g), 0)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.rank, 0)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.rank in self.terms)

    def min_exponent(self, order: MonomialOrder) -> Exponent:
        if not self.terms:
            raise ComputationError("undefined valuation: zero polynomial")
        return min(self.terms, key=order.key)

    def max_exponent(self, order: MonomialOrder) -> Exponent:
        if not self.terms:
            raise ComputationError("undefined valuation: zero polynomial")
        return max(self.terms, key=order.key)

    def nonnegative_part(self, order: MonomialOrder) -> "LaurentPoly":
        """Terms with exponent >= 0 in the order."""
        zero = order.key((0,) * self.rank)
        return LaurentPoly(
            self.rank, {g: c for g, c in self.terms.items() if order.key(g) >= zero}, _trusted=True
        )

    def supported_negative(self, order: MonomialOrder) -> bool:
        zero = order.key((0,) * self.rank)
        return all(order.key(g) < zero for g in self.terms)

    def specialize_exponents(self, images: list[Exponent], rank2: int) -> "LaurentPoly":
        """Apply the group homomorphism sending coordinate i to images[i]."""
        out = {}
        for g, c in self.terms.items():
            h = (0,) * rank2
            for i, e in enumerate(g):
                if e:
                    h = tuple(x + e * y for x, y in zip(h, images[i]))
            accumulate(out, h, c)
        return LaurentPoly(rank2, out, _trusted=True)

    def exact_divide(self, den: "LaurentPoly", order: MonomialOrder):
        """Return self/den if den divides self exactly, else None."""
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero(self.rank)
        dmin = den.min_exponent(order)
        dinv = scalar_inverse(den.terms[dmin])
        bound = order.key(exp_sub(self.max_exponent(order), den.max_exponent(order)))
        rem = self
        quot = {}
        while rem:
            rmin = rem.min_exponent(order)
            qexp = exp_sub(rmin, dmin)
            if order.key(qexp) > bound:
                return None
            qc = rem.terms[rmin] * dinv
            quot[qexp] = qc
            rem = rem - den.shift(qexp).scale(qc)
        return LaurentPoly(self.rank, quot, _trusted=True)

    # -- text form -------------------------------------------------------------------

    def to_str(self, field) -> str:
        """Canonical text: `c*eps[g1,...,gk]` terms joined by ' + ', exponents ascending."""
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms):
            c = self.terms[g]
            cstr = field.format(c) if not isinstance(c, (int, Fraction)) else _frac_str(c)
            if any(ch in cstr[1:] for ch in "+-"):
                cstr = f"({cstr})"
            parts.append(f"{cstr}*eps[{','.join(map(str, g))}]")
        return " + ".join(parts)

    @classmethod
    def from_str(cls, text: str, rank: int, field) -> "LaurentPoly":
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
            g = tuple(int(x) for x in gstr[:-1].split(",")) if gstr[:-1] else ()
            if len(g) != rank:
                raise InputError(f"exponent {g} has rank {len(g)}, expected {rank}")
            if g in terms:
                raise InputError(f"duplicate exponent {g}")
            if coeff:
                terms[g] = coeff
        return cls(rank, terms, _trusted=True)


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


def scalar_inverse(c):
    """Inverse of a nonzero int, Fraction or CycloNumber coefficient."""
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    return c.field.inverse(c)


def _rational_denominator(terms: dict):
    """(lcm of the denominators, whether any coefficient is a Fraction), or
    None when some coefficient is neither an int nor a Fraction."""
    den, has_fraction = 1, False
    for c in terms.values():
        if type(c) is Fraction:
            has_fraction = True
            den = lcm(den, c.denominator)
        elif type(c) is not int:
            return None
    return den, has_fraction


def _int_convolve(a: dict, da: int, b: dict, db: int) -> dict:
    """Product of two rational term maps over the lcm denominators da and db:
    the convolution runs on int numerators, and each output coefficient is
    built once, as an int when da * db divides it and as a Fraction otherwise."""
    nb = [(h, d.numerator * (db // d.denominator)) for h, d in b.items()]
    acc = {}
    get = acc.get
    for g, c in a.items():
        c = c.numerator * (da // c.denominator)
        for h, d in nb:
            k = tuple(map(add, g, h))
            acc[k] = get(k, 0) + c * d
    den = da * db
    out = {}
    for k, v in acc.items():
        if v:
            q, r = divmod(v, den)
            out[k] = Fraction(v, den) if r else q
    return out


def _frac_str(c) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _hashable(c):
    return Fraction(c) if isinstance(c, int) else c


class LaurentFraction:
    """Element of the fraction field of F[Gamma], canonicalized but gcd-free.

    The denominator is normalized so its minimal exponent is zero and the
    corresponding coefficient is one. Equality is by cross-multiplication.
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, order: MonomialOrder, _trusted=False):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not _trusted:
            g = den.min_exponent(order)
            r = den.terms[g]
            if any(g) or r != 1:
                rinv = scalar_inverse(r)
                den = den.shift(exp_neg(g)).scale(rinv)
                num = num.shift(exp_neg(g)).scale(rinv)
        self.num = num
        self.den = den
        self.order = order

    @classmethod
    def from_poly(cls, p: LaurentPoly, order: MonomialOrder) -> "LaurentFraction":
        return cls(p, LaurentPoly.one(p.rank), order, _trusted=True)

    @classmethod
    def zero(cls, rank: int, order: MonomialOrder) -> "LaurentFraction":
        return cls(LaurentPoly.zero(rank), LaurentPoly.one(rank), order, _trusted=True)

    @property
    def rank(self):
        return self.num.rank

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if other.den is self.den or other.den == self.den:
            return LaurentFraction(self.num + other.num, self.den, self.order, _trusted=True)
        return LaurentFraction(
            self.num * other.den + other.num * self.den, self.den * other.den, self.order
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other.den is self.den or other.den == self.den:
            return LaurentFraction(self.num - other.num, self.den, self.order, _trusted=True)
        return LaurentFraction(
            self.num * other.den - other.num * self.den, self.den * other.den, self.order
        )

    def __neg__(self):
        return LaurentFraction(-self.num, self.den, self.order, _trusted=True)

    def __mul__(self, other):
        other = self._coerce(other)
        return LaurentFraction(self.num * other.num, self.den * other.den, self.order)

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by zero fraction")
        return LaurentFraction(self.num * other.den, self.den * other.num, self.order)

    def _coerce(self, other):
        if isinstance(other, LaurentFraction):
            return other
        if isinstance(other, LaurentPoly):
            return LaurentFraction.from_poly(other, self.order)
        raise ComputationError(f"cannot coerce {other!r} to LaurentFraction")

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            other = LaurentFraction.from_poly(other, self.order)
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
        g_num = self.num.min_exponent(self.order)
        # den is normalized: min exponent 0, leading coefficient 1
        return g_num, self.num.terms[g_num]

    def as_laurent(self) -> LaurentPoly:
        """Exact quotient num/den; raises if the denominator does not divide."""
        q = self.num.exact_divide(self.den, self.order)
        if q is None:
            raise ComputationError("representation not defined over expected ring")
        return q
