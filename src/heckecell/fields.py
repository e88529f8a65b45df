"""Exact arithmetic in real cyclotomic fields Q(2*cos(2*pi/N)).

All scalar coefficients in this package live in a field F = Q(delta) with
delta = 2*cos(2*pi/N) for some conductor N determined by the Coxeter matrix.
Elements are polynomials in delta reduced modulo the minimal polynomial of
delta over Q, which is derived from the cyclotomic polynomial Phi_N by the
half-trace substitution x^j + x^-j -> p_j(y), p_0 = 2, p_1 = y,
p_{j+1} = y*p_j - p_{j-1}.

The type of a value is decided here (`_canonical`): an int for a rational
integer, a Fraction for any other rational, and a CycloNumber only for an
irrational value, one with a nonzero coordinate at some delta^k, k >= 1.
Every constructor and operation of this module follows that rule, whatever
the field and however the value was reached; over Q (N in {1,2,3,4,6} after
reduction) every value is an int or a Fraction.
delta is an algebraic integer, so its minimal polynomial is monic in Z[y]. A
CycloNumber therefore stores integer power-basis coordinates over one positive
integer denominator, in lowest terms: multiplication convolves and reduces in
int, and one gcd per result (none when the denominator is 1) keeps the form
canonical, so equality is a tuple comparison.
Sums of many products of field values, the J structure constants, the
Schur orthogonality sums and the cell datum's transition products, run on
Python ints instead (`ProductPacking`):
each value over one common denominator D is packed as the integer its
coordinates make in base 2^bits, a product of packed values is one int
product, and each sum is unpacked once, its digits reduced modulo the
minimal polynomial by the same loop as a product and divided by a power
of D. `bits` is chosen from the values and the number of products so that
every digit is read back exactly.
The norm and the inverse of x both come from M_x, the matrix of
multiplication by x in the power basis: the norm is det M_x, and the
coordinates of x^-1 solve M_x y = e_0, both through `matrices.eliminate`.
This module owns three decisions for every coefficient in the package: its
type (above), the inverse of an irrational one (`RealCyclotomicField.inverse`, which
`scalars.scalar_inverse` calls; CycloNumber has no division operator) and
the text of any one, int and Fraction included (`RealCyclotomicField.format`,
read back by `parse`).
Sign determination is exact: delta is enclosed in a certified rational interval
(initially from Taylor bounds on cos, rounded outward to dyadic endpoints, then
refined by bisection against the minimal polynomial), widened-precision
evaluation terminates because a nonzero algebraic number has nonzero magnitude.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .errors import ComputationError, InputError
from .matrices import eliminate, f_det
from .scalars import int_if_integral

# 50 verified decimal digits; only used to seed the initial isolating interval
# for delta, after which refinement is purely algebraic.
_PI_LO = Fraction("3.14159265358979323846264338327950288419716939937510")
_PI_HI = _PI_LO + Fraction(1, 10**50)
# The initial enclosure of delta is rounded outward to multiples of 2^-256.
# Its width is about 10^-50 (2^-166), so rounding keeps it as tight while the
# exact Taylor endpoints would carry denominators of thousands of bits.
_ENCLOSURE_BITS = 256

_RATIONAL_TWO_COS = {(0, 1): 2, (1, 2): -2, (1, 3): -1, (1, 4): 0, (1, 6): 1}


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending degree, computed by exact division."""
    # x^n - 1 = prod_{d | n} Phi_d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi_d = cyclotomic_polynomial(d)
        poly = _poly_divide_exact(poly, phi_d)
    return poly


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q[i] = c // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    assert all(c == 0 for c in num)
    return q


def real_minimal_polynomial(n: int) -> tuple[int, ...]:
    """Monic minimal polynomial of 2*cos(2*pi/n) over Q, ascending degree.

    delta is an algebraic integer, so the coefficients are ints."""
    if n == 1:
        return (-2, 1)
    if n == 2:
        return (2, 1)
    phi = cyclotomic_polynomial(n)
    m = (len(phi) - 1) // 2
    # Phi_n is palindromic for n >= 3; Phi_n(x)/x^m = a_m + sum a_{m+j}(x^j + x^-j)
    psi = [phi[m]] + [0] * m
    p_prev, p_cur = [2], [0, 1]  # p_0, p_1 = y
    for j in range(1, m + 1):
        for i, c in enumerate(p_cur):
            psi[i] += phi[m + j] * c
        nxt = [0] + p_cur
        for i, c in enumerate(p_prev):
            nxt[i] -= c
        p_prev, p_cur = p_cur, nxt
    return tuple(psi)


def reduced_conductor(orders) -> int:
    """Smallest N with Q(2cos(2pi/N)) containing 2cos(2pi/m) for all given m.

    Orders in {1,2,3,4,6} have rational cosine; m = 2m' with m' odd reduces to
    m' since the corresponding real cyclotomic fields coincide.
    """
    need = set()
    for m in orders:
        if m % 4 == 2:
            m //= 2
        if m in (1, 2, 3, 4, 6):
            continue
        need.add(m)
    n = 1
    for m in need:
        n = n * m // gcd(n, m)
    return n


def _canonical(field, num: tuple, den: int):
    """num/den for a positive den, in its one type: an int or a Fraction when
    every irrational coordinate is 0, else a CycloNumber in lowest terms."""
    if not any(num[1:]):
        q, r = divmod(num[0], den)
        return Fraction(num[0], den) if r else q
    g = gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return CycloNumber(field, num, den)


class CycloNumber:
    """Element of Q(delta): sum(num[k] * delta**k) / den.

    `num` holds integer power-basis coordinates and `den` is one positive
    integer denominator, always in lowest terms (gcd(den, *num) == 1), so
    equal elements have equal (num, den). Some coordinate past num[0] is
    nonzero: a CycloNumber is irrational, hence never zero and never equal
    to an int or a Fraction. Integer and Fraction operands combine on either
    side without being converted.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "RealCyclotomicField", num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    def __repr__(self):
        return f"CycloNumber({self.field.conductor}, {self.field.format(self)!r})"

    def _check_field(self, other: "CycloNumber"):
        if other.field is not self.field and other.field.conductor != self.field.conductor:
            raise ComputationError("mixed cyclotomic fields")

    def _combine(self, other, s: int):
        """self + s * other for s = 1 or -1."""
        field, a, ad = self.field, self.num, self.den
        if isinstance(other, CycloNumber):
            self._check_field(other)
            b, bd = other.num, other.den
            if ad == bd:
                num = tuple(x + s * y for x, y in zip(a, b))
                if ad == 1 and any(num[1:]):
                    return CycloNumber(field, num, 1)
                return _canonical(field, num, ad)
            return _canonical(field, tuple(x * bd + s * y * ad for x, y in zip(a, b)), ad * bd)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if q == 1:
                # gcd(ad, a[0] + k*ad, a[1:]) == gcd(ad, *a) == 1 and a[1:] is
                # unchanged: still canonical
                return CycloNumber(field, (a[0] + s * p * ad,) + a[1:], ad)
            return _canonical(field, (a[0] * q + s * p * ad,) + tuple(x * q for x in a[1:]),
                              ad * q)
        return NotImplemented

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return CycloNumber(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        field = self.field
        if isinstance(other, CycloNumber):
            self._check_field(other)
            num = field._mul_reduce(self.num, other.num)
            den = self.den * other.den
            if den == 1 and any(num[1:]):
                return CycloNumber(field, num, 1)
            return _canonical(field, num, den)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _canonical(field, tuple(c * p for c in self.num), self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CycloNumber):
            self._check_field(other)
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction coordinate tuple
        return hash(self.num) if self.den == 1 else hash(self.field.coords(self))


class ProductPacking:
    """Exact sums of k-fold products of field values, on Python ints.

    Built from the values that will be multiplied, the number k of factors
    in each product and a bound T on the number of products summed into
    one key. It fixes one common denominator D, the lcm of the values'
    denominators, and `pack(c)` is the int P_c(2^bits), where P_c is the
    integer polynomial whose coefficients are the power-basis coordinates
    of c*D. A product of k packed values is the product polynomial at
    2^bits, so a sum s of such products is an int too, and `unpack(s)` is
    that sum of field products, read back once per key.

    Exactness. Let M be the largest |coordinate| of any c*D, d the field
    degree and bits = (T * d^(k-1) * M^k).bit_length() + 2. The product of k
    polynomials of degree below d has degree at most k(d-1), and its
    coefficient at s sums the products of one coordinate of each factor
    with indices adding up to s: at most d^(k-1) of them (the first k-1
    indices fix the last), each of absolute value at most M^k. A sum of at
    most T products therefore has every coefficient of absolute value at
    most T * d^(k-1) * M^k < 2^(bits-2) < 2^(bits-1). An integer polynomial
    with every |coefficient| below 2^(bits-1) is read off its value at
    2^bits by signed base-2^bits digits: the lowest coefficient is the one
    residue of the value mod 2^bits in [-2^(bits-1), 2^(bits-1)), and the
    rest is (value - digit) / 2^bits. So the k(d-1)+1 digits are the
    coefficients exactly; they are reduced modulo the minimal polynomial
    and divided by D^k. There is no tolerance.
    """

    __slots__ = ("field", "den", "bits", "_digits", "_scale")

    def __init__(self, field: "RealCyclotomicField", values: list, k: int, terms: int):
        den = lcm(*(c.den if isinstance(c, CycloNumber) else c.denominator for c in values))
        top = max((abs(x) for c in values for x in _scaled(c, den)), default=0)
        self.field = field
        self.den = den
        self.bits = (terms * field.degree ** (k - 1) * top ** k).bit_length() + 2
        self._digits = k * (field.degree - 1) + 1
        self._scale = den ** k

    def pack(self, c) -> int:
        """The int P_c(2^bits) of an int, Fraction or CycloNumber c."""
        bits = self.bits
        return sum(x << (i * bits) for i, x in enumerate(_scaled(c, self.den)))

    def unpack(self, n: int):
        """The field value of a sum n of k-fold packed products."""
        if not n:
            return 0
        bits = self.bits
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        coeffs = []
        for _ in range(self._digits):
            digit = n & mask
            if digit >= half:
                digit -= mask + 1
            coeffs.append(digit)
            n = (n - digit) >> bits
        field = self.field
        return _canonical(field, tuple(field._reduce(coeffs)), self._scale)


def _scaled(c, den: int) -> tuple:
    """The integer power-basis coordinates of c * den, for a den that the
    denominator of c divides; a rational c gives one coordinate."""
    if isinstance(c, CycloNumber):
        s = den // c.den
        return tuple(x * s for x in c.num)
    return (c.numerator * (den // c.denominator),)


class RealCyclotomicField:
    """The field Q(delta), delta = 2*cos(2*pi/conductor), with exact sign."""

    _cache: dict[int, "RealCyclotomicField"] = {}

    def __new__(cls, conductor: int):
        if conductor in cls._cache:
            return cls._cache[conductor]
        self = super().__new__(cls)
        cls._cache[conductor] = self
        self._init(conductor)
        return self

    def _init(self, conductor: int):
        self.conductor = conductor
        self.min_poly = real_minimal_polynomial(conductor)
        self.degree = len(self.min_poly) - 1
        self._interval = None

    # -- element construction -------------------------------------------------

    def from_rational(self, r):
        return int_if_integral(Fraction(r))

    def element(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        self._reduce(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        return _canonical(self, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    zero, one = 0, 1

    def delta(self):
        """The generator 2*cos(2*pi/conductor) as a field element."""
        return self.element((0, 1))

    def coords(self, x) -> tuple:
        """Coordinates in the power basis of delta (constant term first)."""
        if isinstance(x, CycloNumber):
            return tuple(Fraction(c, x.den) for c in x.num)
        return (Fraction(x),) + (Fraction(0),) * (self.degree - 1)

    # -- arithmetic kernels ---------------------------------------------------

    def _reduce(self, coeffs: list) -> list:
        """Reduce a coordinate list (int or Fraction), at least `degree`
        long, modulo the minimal polynomial, in place, and cut it to
        `degree` entries: the one reduction loop of the module."""
        d = self.degree
        mp = self.min_poly
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(d):
                    coeffs[i - d + j] -= c * mp[j]
        del coeffs[d:]
        return coeffs

    def _mul_reduce(self, a: tuple, b: tuple) -> tuple:
        """Product of two integer coordinate tuples, reduced, in pure int."""
        out = [0] * (2 * self.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    out[k] += ai * bj
        return tuple(self._reduce(out))

    def inverse(self, x: CycloNumber) -> CycloNumber:
        """x^-1 for a nonzero CycloNumber x, reached through
        `scalars.scalar_inverse`, which inverts rational coefficients itself."""
        if not x:
            raise ZeroDivisionError("field inverse of zero")
        # the coordinates y of x^-1 solve M_x y = e_0; M_x is invertible
        # because x is a nonzero element of a field
        d = self.degree
        m = [row + [Fraction(i == 0)] for i, row in enumerate(self._mult_matrix(x))]
        eliminate(m, d, Fraction(1))
        return self.element([row[d] for row in m])

    def _mult_matrix(self, x) -> list:
        """Matrix M_x of multiplication by x in the power basis: column i
        holds the coordinates of x * delta^i, as Fractions."""
        delta = self.delta()
        cols = []
        for _ in range(self.degree):
            cols.append(self.coords(x))
            x = x * delta
        return [list(row) for row in zip(*cols)]

    # -- integrality, norms ---------------------------------------------------

    def norm(self, x) -> Fraction:
        """Field norm to Q: determinant of multiplication by x."""
        return f_det(self._mult_matrix(x))

    # -- special values --------------------------------------------------------

    def two_cos(self, num: int, den: int):
        """2*cos(2*pi*num/den) as a field element.

        Requires the angle to live in this field (den divides the conductor
        after the standard reductions); raises InputError otherwise.
        """
        if den <= 0:
            raise InputError("two_cos: denominator must be positive")
        num %= den
        g = gcd(num, den) if num else den
        num, den = num // g, den // g
        if den > 2 and num > den // 2:
            num = den - num  # cos(2pi(1 - t)) = cos(2pi t)
        if (num, den) in _RATIONAL_TWO_COS:
            return _RATIONAL_TWO_COS[(num, den)]
        if den % 4 == 2:
            # num odd, m' = den/2 odd: 2cos(pi*num/m') = -2cos(2pi*((m'-num)/2)/m')
            mp = den // 2
            assert num % 2 == 1 and (mp - num) % 2 == 0
            return -self.two_cos((mp - num) // 2, mp)
        if self.conductor % den != 0:
            raise InputError(
                f"2cos(2pi*{num}/{den}) does not lie in Q(2cos(2pi/{self.conductor}))")
        return self._cheb(num * (self.conductor // den))

    def _cheb(self, k: int):
        """2*cos(2*pi*k/conductor) for k >= 1 via p_k(delta),
        p_{j+1} = delta*p_j - p_{j-1}."""
        delta = self.delta()
        prev, cur = 2, delta
        for _ in range(k - 1):
            prev, cur = cur, delta * cur - prev
        return cur

    # -- exact sign -------------------------------------------------------------

    def sign(self, x) -> int:
        """Exact sign of a field element under the embedding delta = 2cos(2pi/N)."""
        if isinstance(x, (int, Fraction)):
            return (x > 0) - (x < 0)
        # den > 0, so x has the sign of its numerator polynomial
        lo, hi = self._delta_enclosure()
        for _ in range(400):
            vlo, vhi = _interval_horner(x.num, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            lo, hi = self._refine(lo, hi)
        raise ComputationError("sign determination failed to converge")

    def _delta_enclosure(self):
        if self._interval is None:
            n = self.conductor
            x_lo, x_hi = 2 * _PI_LO / n, 2 * _PI_HI / n
            c_lo, c_hi = _cos_bounds(x_lo, x_hi)
            scale = 1 << _ENCLOSURE_BITS
            lo = Fraction(floor(2 * c_lo * scale), scale)
            hi = Fraction(ceil(2 * c_hi * scale), scale)
            if _poly_eval(self.min_poly, lo) * _poly_eval(self.min_poly, hi) >= 0:
                raise ComputationError("initial enclosure failed to isolate delta")
            self._interval = (lo, hi)
        return self._interval

    def _refine(self, lo, hi):
        mid = (lo + hi) / 2
        v = _poly_eval(self.min_poly, mid)
        if v == 0:
            lo = hi = mid
        elif v * _poly_eval(self.min_poly, lo) < 0:
            hi = mid
        else:
            lo = mid
        self._interval = (lo, hi)
        return self._interval

    # -- text form ---------------------------------------------------------------

    def format(self, x) -> str:
        """Canonical string of any coefficient: polynomial in `d`, descending
        powers, no spaces. A rational c prints as str(Fraction(c))."""
        if isinstance(x, CycloNumber):
            num, den = x.num, x.den
        else:
            num, den = (x.numerator,), x.denominator
        parts = []
        for k in range(len(num) - 1, -1, -1):
            n = num[k]
            if not n:
                continue
            # |n|/den in lowest terms, as str(Fraction) writes it
            g = gcd(n, den)
            body = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            if k:
                mono = "d" if k == 1 else f"d^{k}"
                body = mono if body == "1" else f"{body}*{mono}"
            parts.append(("-" if n < 0 else "+" if parts else "") + body)
        return "".join(parts) or "0"

    def parse(self, text: str):
        """Inverse of format(); accepts any sum of rational*d^k terms."""
        text = text.strip().replace(" ", "")
        if not text:
            raise InputError("empty field-coefficient string")
        coeffs = [Fraction(0)] * max(self.degree, 2)
        i = 0
        while i < len(text):
            sign = 1
            while i < len(text) and text[i] in "+-":
                if text[i] == "-":
                    sign = -sign
                i += 1
            j = i
            while j < len(text) and text[j] not in "+-":
                j += 1
            term, i = text[i:j], j
            if not term:
                raise InputError(f"bad field-coefficient string {text!r}")
            head, d, tail = term.partition("d")
            if d and head.endswith("*"):
                head = head[:-1]
            if tail and not tail.startswith("^"):
                raise InputError(f"bad field-coefficient string {text!r}")
            try:
                coef = Fraction(head) if head else Fraction(1)
                power = int(tail[1:]) if tail else (1 if d else 0)
            except (ValueError, ZeroDivisionError):
                raise InputError(f"bad field-coefficient string {text!r}") from None
            if power >= len(coeffs):
                coeffs.extend([Fraction(0)] * (power + 1 - len(coeffs)))
            coeffs[power] += sign * coef
        return self.element(coeffs)


# -- small exact-polynomial helpers over Fraction lists ----------------------


def _poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _interval_horner(coeffs, lo, hi):
    vlo = vhi = Fraction(0)
    for c in reversed(coeffs):
        if vlo == vhi == 0:
            prods = [Fraction(0)]
        else:
            prods = [vlo * lo, vlo * hi, vhi * lo, vhi * hi]
        vlo, vhi = min(prods) + c, max(prods) + c
    return vlo, vhi


def _cos_bounds(x_lo, x_hi, terms: int = 25):
    # cos decreasing on (0, pi); arguments here are 2*pi/N <= 2*pi/3 < pi
    def point(x):
        s, t, xx = Fraction(0), Fraction(1), x * x
        for k in range(terms):
            s += t if k % 2 == 0 else -t
            t = t * xx / ((2 * k + 1) * (2 * k + 2))
        return s - t, s + t

    lo1, _ = point(x_hi)
    _, hi1 = point(x_lo)
    return lo1, hi1
