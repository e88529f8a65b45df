"""Exact real-cyclotomic arithmetic against independent numerical oracles."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest

from heckecell import fields as fields_mod
from heckecell.cellular import _lies_in_r
from heckecell.errors import InputError
from heckecell.fields import (CycloNumber, ProductPacking, RealCyclotomicField,
                              real_minimal_polynomial, reduced_conductor)
from heckecell.scalars import int_if_integral, scalar_inverse

KNOWN_MIN_POLYS = {
    1: (-2, 1),
    2: (2, 1),
    3: (1, 1),
    4: (0, 1),
    5: (-1, 1, 1),
    7: (-1, -2, 1, 1),
    8: (-2, 0, 1),
    9: (1, -3, 0, 1),
    12: (-3, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_MIN_POLYS.items()))
def test_minimal_polynomials(n, coeffs):
    got = real_minimal_polynomial(n)
    assert got == coeffs and all(type(c) is int for c in got)
    assert RealCyclotomicField(n).min_poly == got


@pytest.mark.parametrize("n", [5, 7, 8, 9, 11, 12])
def test_minimal_polynomial_has_the_right_root(n):
    # float oracle: 2cos(2pi/n) must be a root to machine precision
    x = 2 * math.cos(2 * math.pi / n)
    val = 0.0
    for c in reversed(real_minimal_polynomial(n)):
        val = val * x + float(c)
    assert abs(val) < 1e-9


def test_field_axioms_random():
    F = RealCyclotomicField(7)
    rng = random.Random(11)

    def rand():
        return F.element([Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                          for _ in range(3)])

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        if a:
            assert a * F.inverse(a) == 1


def test_sign_matches_float_oracle():
    rng = random.Random(5)
    for n in (5, 7, 12):
        F = RealCyclotomicField(n)
        delta = 2 * math.cos(2 * math.pi / n)
        for _ in range(40):
            coeffs = [Fraction(rng.randrange(-6, 7)) for _ in range(F.degree)]
            x = F.element(coeffs)
            approx = sum(float(c) * delta**k for k, c in enumerate(coeffs))
            if abs(approx) > 1e-8:
                assert F.sign(x) == (1 if approx > 0 else -1)
    assert RealCyclotomicField(5).sign(0) == 0


def test_sign_multiplicative():
    F = RealCyclotomicField(5)
    rng = random.Random(3)
    for _ in range(30):
        a = F.element([Fraction(rng.randrange(-5, 6)) for _ in range(2)])
        b = F.element([Fraction(rng.randrange(-5, 6)) for _ in range(2)])
        assert F.sign(a * b) == F.sign(a) * F.sign(b)


def test_two_cos_values_and_reductions():
    F = RealCyclotomicField(5)
    # rational angles
    assert F.two_cos(0, 1) == 2
    assert F.two_cos(1, 2) == -2
    assert F.two_cos(1, 3) == -1
    assert F.two_cos(1, 4) == 0
    assert F.two_cos(1, 6) == 1
    # conductor-10 angle lands in the conductor-5 field
    val = F.two_cos(1, 10)
    assert abs_float(F, val) == pytest.approx(2 * math.cos(math.pi / 5))
    # double-angle identity (2cos t)^2 = 2 + 2cos 2t
    for k in range(1, 5):
        assert F.two_cos(k, 5) * F.two_cos(k, 5) == F.two_cos(2 * k, 5) + 2
    with pytest.raises(InputError):
        F.two_cos(1, 7)


def abs_float(F, x):
    delta = 2 * math.cos(2 * math.pi / F.conductor)
    return sum(float(c) * delta**k for k, c in enumerate(F.coords(x)))


def test_norm_is_multiplicative():
    F = RealCyclotomicField(7)
    rng = random.Random(9)
    for _ in range(20):
        a = F.element([Fraction(rng.randrange(-4, 5)) for _ in range(3)])
        b = F.element([Fraction(rng.randrange(-4, 5)) for _ in range(3)])
        assert F.norm(a * b) == F.norm(a) * F.norm(b)
    assert F.norm(1) == 1


def test_format_parse_roundtrip():
    rng = random.Random(2)
    for n in (1, 5, 12):
        F = RealCyclotomicField(n)
        for _ in range(30):
            x = F.element([Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
                           for _ in range(F.degree)])
            assert F.parse(F.format(x)) == x


@pytest.mark.parametrize("n", [1, 5, 7, 12])
def test_format_writes_a_rational_as_its_fraction(n):
    """format is the one text of a coefficient: an int, a Fraction and the
    field's own form of a rational all print as str(Fraction(c))."""
    F = RealCyclotomicField(n)
    rng = random.Random(400 + n)
    values = [0, 1, -1, 12, Fraction(-3, 2), Fraction(10, 4)]
    values += [Fraction(rng.randrange(-99, 100), rng.randrange(1, 40)) for _ in range(50)]
    for r in values:
        want = str(Fraction(r))
        assert F.format(r) == F.format(int_if_integral(Fraction(r))) == want
        if Fraction(r).denominator == 1:
            assert F.format(int(r)) == want


@pytest.mark.parametrize("n,coeffs,text", [
    (5, (Fraction(1, 2), Fraction(1, 3)), "1/3*d+1/2"),
    (5, (Fraction(-5, 6), Fraction(-1, 6)), "-1/6*d-5/6"),
    (7, (0, -1, Fraction(3, 4)), "3/4*d^2-d"),
    (7, (-2, 0, 1), "d^2-2"),
    (11, (0, Fraction(2, 4), 0, 0, Fraction(-7, 3)), "-7/3*d^4+1/2*d"),
    (12, (Fraction(4, 6), 1), "d+2/3"),
])
def test_format_writes_each_coordinate_in_lowest_terms(n, coeffs, text):
    """Coordinates over one common denominator print reduced one by one."""
    F = RealCyclotomicField(n)
    x = F.element(coeffs)
    assert F.format(x) == text
    assert F.parse(text) == x


@pytest.mark.parametrize("n,power", [(5, 2), (5, 3), (7, 3), (7, 5), (9, 4), (11, 9)])
def test_parse_reduces_powers_past_the_degree(n, power):
    """Text may name powers of d at or past the field degree (conductor 5 has
    degree 2, 7 and 9 degree 3, 11 degree 5); parse reduces them modulo the
    minimal polynomial, so the value is delta**power."""
    F = RealCyclotomicField(n)
    assert power >= F.degree
    delta = F.delta()
    want = delta
    for _ in range(power - 1):
        want = want * delta
    cases = {f"d^{power}": want, f"-3*d^{power}+d+1/2": want * -3 + delta + Fraction(1, 2)}
    for text, value in cases.items():
        got = F.parse(text)
        assert_canonical(got)
        assert got == value
        assert F.parse(F.format(got)) == got
        assert f"d^{power}" not in F.format(got)


@pytest.mark.parametrize("text", ["x", "1/0", "2d5", "d^x", "2**d", "3*"])
def test_parse_rejects_malformed_coefficients(text):
    with pytest.raises(InputError, match="bad field-coefficient string"):
        RealCyclotomicField(5).parse(text)


def test_ring_integrality_check():
    F = RealCyclotomicField(5)
    assert _lies_in_r(F.delta(), set())
    assert _lies_in_r(3, set())
    assert not _lies_in_r(Fraction(1, 2), set())


def test_reduced_conductor():
    assert reduced_conductor([1, 2, 3, 4, 6]) == 1   # crystallographic bonds
    assert reduced_conductor([1, 2, 5]) == 5          # H3 bonds
    assert reduced_conductor([10]) == 5               # 2 mod 4 reduction
    assert reduced_conductor([12, 3]) == 12
    assert reduced_conductor([5, 8]) == 40


# -- the integer kernel against the Fraction-coordinate kernel it replaced ------


def ref_reduce(min_poly, coeffs: list) -> list:
    """Reduction modulo the minimal polynomial over Fraction coordinates."""
    d = len(min_poly) - 1
    for i in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(d):
                coeffs[i - d + j] -= c * min_poly[j]
        coeffs.pop()
    while len(coeffs) < d:
        coeffs.append(Fraction(0))
    return coeffs


def ref_mul_reduce(min_poly, a: tuple, b: tuple) -> tuple:
    """Product of two Fraction coordinate tuples, reduced."""
    d = len(min_poly) - 1
    out = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(ref_reduce(min_poly, out))


def assert_canonical(x):
    """x in its one type: a CycloNumber in lowest terms when some irrational
    coordinate is nonzero, else an int or a Fraction. (Sums and products of
    two rationals are Python's own int and Fraction arithmetic.)"""
    if isinstance(x, CycloNumber):
        assert all(isinstance(c, int) for c in x.num) and isinstance(x.den, int)
        assert x.den > 0 and gcd(x.den, *x.num) == 1
        assert any(x.num[1:])
    else:
        assert type(x) in (int, Fraction)


def assert_narrow(x):
    """assert_canonical, and a rational integer is an int: the type that the
    field hands out."""
    assert_canonical(x)
    if not isinstance(x, CycloNumber):
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)


def random_element(F, rng):
    """Coordinates with denominators other than 1, and sometimes zero or rational."""
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    coeffs = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 4, 6, 9]))
              for _ in range(F.degree)]
    if kind == 1:
        coeffs[1:] = [0] * (F.degree - 1)
    return F.element(coeffs)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_integer_kernel_matches_fraction_reference(n):
    F = RealCyclotomicField(n)
    mp = F.min_poly
    rng = random.Random(n)
    for _ in range(150):
        a, b = random_element(F, rng), random_element(F, rng)
        ca, cb = F.coords(a), F.coords(b)
        results = {
            "+": (a + b, tuple(x + y for x, y in zip(ca, cb))),
            "-": (a - b, tuple(x - y for x, y in zip(ca, cb))),
            "*": (a * b, ref_mul_reduce(mp, ca, cb)),
            "neg": (-a, tuple(-x for x in ca)),
        }
        field_op = isinstance(a, CycloNumber) or isinstance(b, CycloNumber)
        for op, (got, want) in results.items():
            (assert_narrow if field_op else assert_canonical)(got)
            assert F.coords(got) == want, op
        if b:
            q = a * F.inverse(b)
            (assert_narrow if field_op else assert_canonical)(q)
            assert ref_mul_reduce(mp, F.coords(q), cb) == ca
        else:
            with pytest.raises(ZeroDivisionError):
                F.inverse(b)
        assert _lies_in_r(a, set()) == all(c.denominator == 1 for c in ca)
        assert (a == b) == (ca == cb)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_integer_kernel_mixed_rational_operands(n):
    F = RealCyclotomicField(n)
    mp = F.min_poly
    rng = random.Random(100 + n)
    for _ in range(100):
        x = random_element(F, rng)
        cx = F.coords(x)
        r = rng.choice([rng.randrange(-5, 6),
                        Fraction(rng.randrange(-7, 8), rng.randrange(1, 6))])
        cr = (Fraction(r),) + (Fraction(0),) * (F.degree - 1)
        cases = [
            (x + r, tuple(a + b for a, b in zip(cx, cr))),
            (r + x, tuple(a + b for a, b in zip(cx, cr))),
            (x - r, tuple(a - b for a, b in zip(cx, cr))),
            (r - x, tuple(b - a for a, b in zip(cx, cr))),
            (x * r, ref_mul_reduce(mp, cx, cr)),
            (r * x, ref_mul_reduce(mp, cx, cr)),
        ]
        if r:
            cases.append((x * scalar_inverse(r), tuple(a / Fraction(r) for a in cx)))
        else:
            with pytest.raises(ZeroDivisionError):
                scalar_inverse(r)
        for got, want in cases:
            (assert_narrow if isinstance(x, CycloNumber) else assert_canonical)(got)
            assert F.coords(got) == want
        if x:
            got = r * scalar_inverse(x)
            (assert_narrow if isinstance(x, CycloNumber) else assert_canonical)(got)
            assert ref_mul_reduce(mp, F.coords(got), cx) == cr
        else:
            with pytest.raises(ZeroDivisionError):
                scalar_inverse(x)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_rational_values_compare_and_hash_like_fractions(n):
    F = RealCyclotomicField(n)
    rng = random.Random(200 + n)
    for _ in range(60):
        x = random_element(F, rng)
        r = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        # an arithmetic route to the rational value r, through irrational terms
        y = (x + r) - x
        for val in (y, int_if_integral(Fraction(r)), F.element([r])):
            assert_canonical(val)
            if val is not y or isinstance(x, CycloNumber):
                assert_narrow(val)
            assert val == r and r == val
            assert hash(val) == hash(r)
            assert _lies_in_r(val, set()) == (r.denominator == 1)
            if r.denominator == 1:
                assert val == int(r) and int(r) == val
                assert hash(val) == hash(int(r))
            assert val != r + 1 and r + 1 != val
        assert_canonical(x - x)
        if isinstance(x, CycloNumber):
            assert type(x - x) is int
        assert x - x == 0 and hash(x - x) == hash(0)


@pytest.mark.parametrize("n", [5, 7, 9, 11, 12])
def test_narrow_keeps_value_and_hash(n):
    """The field hands each value out in the narrowest type that holds it:
    an int for a rational integer, a Fraction for another rational and a
    CycloNumber for an irrational value, equal to the value it was computed
    as and hashing like it."""
    F = RealCyclotomicField(n)
    rng = random.Random(300 + n)
    for _ in range(40):
        x = random_element(F, rng)
        r = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        k = rng.randrange(-9, 10)
        cases = [
            (F.element([k]), k, int), (int_if_integral(Fraction(k)), Fraction(k), int),
            (int_if_integral(Fraction(k)), k, int),
            (int_if_integral(Fraction(r)), r, int if r.denominator == 1 else Fraction),
        ]
        if r.denominator != 1:
            cases.append((F.element([r]), r, Fraction))
        if isinstance(x, CycloNumber):
            cx = F.coords(x)
            cases += [((x + k) - x, k, int), (x, F.element(cx), CycloNumber),
                      (x * 3 + r, F.element([3 * cx[0] + r, *(3 * c for c in cx[1:])]),
                       CycloNumber)]
        for got, val, kind in cases:
            assert type(got) is kind
            assert got == val and val == got
            assert hash(got) == hash(val)
    x = F.delta() + 1
    assert type(x) is CycloNumber and F.element(F.coords(x)) == x


def test_inverting_zero_raises():
    for n in (5, 7, 9, 11):
        F = RealCyclotomicField(n)
        with pytest.raises(ZeroDivisionError):
            F.inverse(0)
        with pytest.raises(ZeroDivisionError):
            scalar_inverse(0)
        with pytest.raises(ZeroDivisionError):
            scalar_inverse(F.delta() - F.delta())


# -- sums of products on packed ints ------------------------------------------

# degrees 1, 2, 3 and 5
PACKING_CONDUCTORS = [1, 5, 7, 11]


def packing_values(F):
    """Values with denominators 2, 3 and 7 and coordinates of either sign."""
    return [F.element([Fraction((-1) ** i * (i + 2), 3) for i in range(F.degree)]),
            F.element([Fraction(5, 7)] * F.degree), Fraction(-9, 2), 4]


def packed_reference(F, digits, scale):
    """sum digits[i] * delta^i / scale, reduced over Fraction coordinates."""
    return F.element(ref_reduce(F.min_poly, [Fraction(d, scale) for d in digits]))


def field_product(factors):
    out = 1
    for c in factors:
        out = c * out
    return out


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", PACKING_CONDUCTORS)
def test_packing_width_is_the_documented_bound(n, k):
    F = RealCyclotomicField(n)
    values = packing_values(F)
    packing = ProductPacking(F, values, k, 12)
    assert packing.den == 42
    top = max(int(abs(c) * 42) for v in values for c in F.coords(v))
    assert packing.bits == (12 * F.degree ** (k - 1) * top ** k).bit_length() + 2


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", PACKING_CONDUCTORS)
def test_unpack_reads_the_widest_signed_digits(n, k):
    """Every one of the k(d-1)+1 digits at +-(2^(bits-1) - 1), in four sign
    patterns, comes back as the reduced value over D^k."""
    F = RealCyclotomicField(n)
    packing = ProductPacking(F, packing_values(F), k, 12)
    bits, count = packing.bits, k * (F.degree - 1) + 1
    top = (1 << (bits - 1)) - 1
    for signs in ([1] * count, [-1] * count, [(-1) ** i for i in range(count)],
                  [-((-1) ** i) for i in range(count)]):
        digits = [s * top for s in signs]
        got = packing.unpack(sum(d << (i * bits) for i, d in enumerate(digits)))
        want = packed_reference(F, digits, packing.den ** k)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", PACKING_CONDUCTORS)
def test_packed_sums_match_field_arithmetic(n, k):
    """Sums of up to `terms` products, the largest coordinates all of one
    sign included, against the same sums of field products."""
    F = RealCyclotomicField(n)
    rng = random.Random(40 + 10 * n + k)
    values = packing_values(F) + [random_element(F, rng) for _ in range(6)]
    terms = 9
    packing = ProductPacking(F, values, k, terms)
    pack = packing.pack
    cases = [[[values[1]] * k] * terms]
    for _ in range(30):
        cases.append([[rng.choice(values) for _ in range(k)]
                      for _ in range(rng.randrange(1, terms + 1))])
    for products in cases:
        got = packing.unpack(sum(field_product(pack(c) for c in p) for p in products))
        want = sum((field_product(p) for p in products), 0)
        assert got == want and type(got) is type(int_if_integral(want))


@pytest.mark.parametrize("n", PACKING_CONDUCTORS)
def test_a_sum_that_cancels_unpacks_to_zero(n):
    """Cancelling products, and on degree 2 a nonzero digit polynomial that
    the minimal polynomial delta^2 + delta - 1 reduces to 0."""
    F = RealCyclotomicField(n)
    a, b = packing_values(F)[:2]
    packing = ProductPacking(F, [a, -a, b, F.delta(), 1], 2, 3)
    pack = packing.pack
    for packed in (pack(a) * pack(b) + pack(-a) * pack(b), 0):
        got = packing.unpack(packed)
        assert got == 0 and type(got) is int
    if F.degree == 2:
        d, one = pack(F.delta()), pack(1)
        packed = d * d + d * one - one * one
        assert packed != 0
        got = packing.unpack(packed)
        assert got == 0 and type(got) is int


def test_packing_divides_a_common_denominator_back_exactly():
    F = RealCyclotomicField(7)
    values = [Fraction(1, 6), F.element([Fraction(1, 4), 0, Fraction(-1, 9)]), Fraction(3, 5)]
    packing = ProductPacking(F, values, 3, 4)
    assert packing.den == 180
    pack = packing.pack
    got = packing.unpack(sum(pack(a) * pack(b) * pack(c) for a, b, c in
                             [values, values[::-1], values[:1] * 3]))
    want = sum(field_product(p) for p in [values, values[::-1], values[:1] * 3])
    assert got == want and type(got) is CycloNumber and got.den != 1
    # a rational sum over the same denominators comes back as a Fraction
    got = packing.unpack(pack(values[0]) * pack(values[2]) * pack(4 * values[0]))
    assert got == Fraction(1, 15) and type(got) is Fraction


# -- the isolating interval for delta ------------------------------------------

IRRATIONAL_CONDUCTORS = [n for n in range(5, 14) if n != 6]


def _taylor_enclosure(n):
    """The exact Taylor-bound endpoints the enclosure is rounded from."""
    c_lo, c_hi = fields_mod._cos_bounds(2 * fields_mod._PI_LO / n, 2 * fields_mod._PI_HI / n)
    return 2 * c_lo, 2 * c_hi


def _reference_sign(F, x, interval):
    """Sign by interval Horner on the unrounded enclosure, bisected against the
    minimal polynomial; interval is a one-element list that carries the
    refined enclosure from call to call."""
    if not isinstance(x, CycloNumber):
        return (x > 0) - (x < 0)
    while True:
        lo, hi = interval[0]
        vlo, vhi = fields_mod._interval_horner(x.num, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        mid = (lo + hi) / 2
        if fields_mod._poly_eval(F.min_poly, mid) * fields_mod._poly_eval(F.min_poly, lo) < 0:
            interval[0] = (lo, mid)
        else:
            interval[0] = (mid, hi)


@pytest.mark.parametrize("n", IRRATIONAL_CONDUCTORS)
def test_delta_enclosure_is_dyadic_and_contains_the_taylor_bounds(n):
    F = RealCyclotomicField(n)
    F._interval = None  # earlier sign calls may have refined it
    lo, hi = F._delta_enclosure()
    t_lo, t_hi = _taylor_enclosure(n)
    assert lo <= t_lo < t_hi <= hi
    assert hi - lo < Fraction(1, 10 ** 50)
    for end in (lo, hi):
        den = end.denominator
        assert den & (den - 1) == 0 and den.bit_length() <= 257
        assert end.numerator.bit_length() <= 260


@pytest.mark.parametrize("n", IRRATIONAL_CONDUCTORS)
def test_sign_agrees_with_the_unrounded_enclosure(n):
    F = RealCyclotomicField(n)
    F._interval = None
    lo0, hi0 = F._delta_enclosure()
    rng = random.Random(n)
    delta = F.delta()
    interval = [_taylor_enclosure(n)]
    cases = [F.element([Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
                        for _ in range(F.degree)]) for _ in range(6)]
    # delta minus a close rational: the sign needs a tight enclosure
    approx = Fraction(2 * math.cos(2 * math.pi / n)).limit_denominator(10 ** 12)
    cases += [delta - approx, approx - delta, delta * delta - approx * approx]
    for x in cases:
        assert F.sign(x) == _reference_sign(F, x, interval)
    lo, hi = F._interval
    # each bisection halves the width and adds at most one bit to the endpoints
    halvings = ((hi0 - lo0) / (hi - lo)).numerator.bit_length() - 1
    assert (hi0 - lo0) == (hi - lo) * 2 ** halvings
    assert max(lo.denominator, hi.denominator).bit_length() <= 257 + halvings


# -- the field inverse against the extended-Euclid inverse it replaced ---------


def ref_deg(p) -> int:
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def ref_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists, ascending degree."""
    a = list(a)
    db = ref_deg(b)
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(ref_deg(a) - db, -1, -1):
        c = a[i + db] / b[db]
        q[i] = c
        for j in range(db + 1):
            a[i + j] -= c * b[j]
    return q, a[:db] if db else [Fraction(0)]


def ref_inverse(F, x) -> tuple:
    """Coordinates of x^-1 by extended Euclid in Q[y] against the minimal polynomial."""
    r0, r1 = list(F.min_poly), list(F.coords(x))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, rem = ref_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, ref_poly_sub(s0, ref_poly_mul(q, s1))
    assert ref_deg(r0) == 0
    return tuple(ref_reduce(F.min_poly, [c / r0[0] for c in s0]))


def ref_resultant(a, b):
    """Res(a, b) by the Euclidean remainder sequence; b is nonzero."""
    da, db = ref_deg(a), ref_deg(b)
    if db == 0:
        return b[0] ** da
    _, r = ref_divmod(a, b)
    if not any(r):
        return Fraction(0)
    return (-1) ** (da * db) * b[db] ** (da - ref_deg(r)) * ref_resultant(b, r)


@pytest.mark.parametrize("n", IRRATIONAL_CONDUCTORS)
def test_inverse_matches_the_extended_euclid_reference(n):
    F = RealCyclotomicField(n)
    rng = random.Random(300 + n)
    elements = [random_element(F, rng) for _ in range(60)]
    elements += [int_if_integral(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)))
                 for _ in range(10)]
    elements += [F.delta(), 1, -1]
    for x in elements:
        if not x:
            with pytest.raises(ZeroDivisionError):
                F.inverse(x)
            continue
        inv = F.inverse(x)
        assert_canonical(inv)
        assert F.coords(inv) == ref_inverse(F, x)
        assert x * inv == 1
        # the norm is the resultant of the minimal polynomial and x's coordinates
        assert F.norm(x) == ref_resultant(list(F.min_poly), list(F.coords(x)))
    with pytest.raises(ZeroDivisionError):
        F.inverse(0)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 11, 12, 13])
def test_sign_of_delta_against_its_enclosure_ends_needs_refinement(n):
    """delta lies strictly inside its starting enclosure [lo, hi], and on that
    interval delta - lo and hi - delta straddle zero, so each sign below is
    decided only after `_refine` has bisected it. Those four signs hold on
    either half of [lo, hi]; the sign at the midpoint and the isolation of
    delta by the refined interval hold only on the half that contains it."""
    F = RealCyclotomicField(n)
    F._interval = None
    lo, hi = F._delta_enclosure()
    delta, lo_f, hi_f = F.delta(), int_if_integral(lo), int_if_integral(hi)
    assert F.sign(delta - lo_f) == F.sign(hi_f - delta) == 1
    assert F.sign(lo_f - delta) == F.sign(delta - hi_f) == -1
    x = delta - int_if_integral((lo + hi) / 2)
    assert F.sign(x) == _reference_sign(F, x, [_taylor_enclosure(n)])
    lo2, hi2 = F._interval
    assert lo <= lo2 < hi2 <= hi and hi2 - lo2 < hi - lo
    assert fields_mod._poly_eval(F.min_poly, lo2) * fields_mod._poly_eval(F.min_poly, hi2) < 0


# -- one type per value --------------------------------------------------------

ONE_TYPE_CONDUCTORS = [5, 7, 8, 9, 11, 12, 13]


def assert_one_type(F, got, want):
    """got is the value whose Fraction coordinates are `want`: a CycloNumber
    exactly when some irrational coordinate is nonzero, and otherwise the
    int or Fraction want[0], equal to it and hashing like it."""
    assert F.coords(got) == tuple(want)
    assert_narrow(got)
    assert isinstance(got, CycloNumber) == any(want[1:])
    if not any(want[1:]):
        r = want[0]
        assert got == r and r == got and hash(got) == hash(r)


def ref_two_cos(F, k) -> tuple:
    """Coordinates of 2cos(2pi k/N) = p_k(delta), p_0 = 2, p_1 = delta,
    p_{j+1} = delta p_j - p_{j-1}, over Fraction coordinates."""
    zero = [Fraction(0)] * F.degree
    delta = tuple(ref_reduce(F.min_poly, [Fraction(0), Fraction(1)] + zero)[:F.degree])
    prev, cur = tuple([Fraction(2)] + zero[1:]), delta
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, tuple(a - b for a, b in zip(ref_mul_reduce(F.min_poly, delta, cur), prev))
    return cur


@pytest.mark.parametrize("n", ONE_TYPE_CONDUCTORS)
def test_every_field_value_has_one_type(n):
    """Random elements, and operand pairs whose sum, difference or product is
    rational, through the arithmetic, the inverse, every constructor and
    `ProductPacking.unpack` (k = 2, 3): each result is a CycloNumber exactly
    when an irrational coordinate is nonzero, a rational result equals its
    Fraction reference and hashes like it, and x - x is the int 0."""
    F = RealCyclotomicField(n)
    mp = F.min_poly
    rng = random.Random(700 + n)
    assert_one_type(F, F.delta(), ref_reduce(mp, [Fraction(0), Fraction(1)] + [Fraction(0)] * F.degree))
    assert_one_type(F, 0, (Fraction(0),) * F.degree)
    assert_one_type(F, 1, (Fraction(1),) + (Fraction(0),) * (F.degree - 1))
    for k in range(n):
        assert_one_type(F, F.two_cos(k, n), ref_two_cos(F, k))
    values = []
    for _ in range(40):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 4, 6, 9]))
                  for _ in range(F.degree + rng.randrange(3))]
        if rng.randrange(4) == 0:
            coeffs[1:] = [0] * (len(coeffs) - 1)
        a, ca = F.element(coeffs), tuple(ref_reduce(mp, list(coeffs)))
        assert_one_type(F, a, ca)
        assert_one_type(F, F.parse(F.format(a)), ca)
        r = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        cr = (r,) + (Fraction(0),) * (F.degree - 1)
        assert_one_type(F, int_if_integral(Fraction(r)), cr)
        if isinstance(a, CycloNumber) or type(a) is int:
            assert a - a == 0 and type(a - a) is int
        if isinstance(a, CycloNumber):
            inv = scalar_inverse(a)
            assert_one_type(F, inv, ref_inverse(F, a))
            pairs = [(r - a, tuple(x - y for x, y in zip(cr, ca))),
                     (a + r, tuple(x + y for x, y in zip(ca, cr))),
                     (inv * r, ref_mul_reduce(mp, ref_inverse(F, a), cr)),
                     (values[-1] if values else a, F.coords(values[-1]) if values else ca)]
            for b, cb in pairs:
                assert_one_type(F, b, cb)
                assert_one_type(F, a + b, tuple(x + y for x, y in zip(ca, cb)))
                assert_one_type(F, a - b, tuple(x - y for x, y in zip(ca, cb)))
                assert_one_type(F, b - a, tuple(y - x for x, y in zip(ca, cb)))
                assert_one_type(F, a * b, ref_mul_reduce(mp, ca, cb))
                assert_one_type(F, b * a, ref_mul_reduce(mp, ca, cb))
        values.append(a)
    inverted = [c for c in values if isinstance(c, CycloNumber)][:8]
    values += [scalar_inverse(c) for c in inverted] + [1, 2, Fraction(1, 2)]
    for k in (2, 3):
        packing = ProductPacking(F, values, k, 4)
        pack = packing.pack
        for _ in range(30):
            products = [[rng.choice(values) for _ in range(k)] for _ in range(rng.randrange(1, 5))]
            if rng.randrange(3) == 0:
                # c and c^-1 in one product: a rational product
                c = rng.choice(inverted)
                products = [[c, scalar_inverse(c)] + [rng.choice([1, 2, Fraction(1, 2)])] * (k - 2)]
            want = [Fraction(0)] * F.degree
            for p in products:
                cp = F.coords(p[0])
                for c in p[1:]:
                    cp = ref_mul_reduce(mp, cp, F.coords(c))
                want = [x + y for x, y in zip(want, cp)]
            got = packing.unpack(sum(field_product(pack(c) for c in p) for p in products))
            assert_one_type(F, got, want)
