"""Laurent polynomials, monomial orders, and the valuation-ring structure."""

import random
from fractions import Fraction

import pytest

from heckecell.errors import ComputationError
from heckecell.fields import RealCyclotomicField
from heckecell.matrices import KMatrix
from heckecell.scalars import (LaurentFraction, LaurentPoly, MonomialOrder,
                               accumulate, natural_order)

NAT = natural_order(1)
LEX_BA = MonomialOrder(2, (1, 0))


def poly(terms, rank=1):
    return LaurentPoly(rank, {tuple(g) if isinstance(g, (tuple, list)) else (g,): c
                              for g, c in terms.items()})


def rand_poly(rng, rank=1, nterms=4, span=5):
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        g = tuple(rng.randrange(-span, span + 1) for _ in range(rank))
        terms[g] = rng.randrange(-9, 10) or 1
    return LaurentPoly(rank, terms)


def test_monomial_order_is_total_and_additive():
    rng = random.Random(1)
    for order in (NAT, LEX_BA, MonomialOrder(3, (2, 0, 1))):
        for _ in range(200):
            g = tuple(rng.randrange(-5, 6) for _ in range(order.rank))
            gp = tuple(rng.randrange(-5, 6) for _ in range(order.rank))
            h = tuple(rng.randrange(-5, 6) for _ in range(order.rank))
            # totality
            assert (order.key(g) < order.key(gp)) + (order.key(gp) < order.key(g)) + (g == gp) == 1
            # translation invariance
            if order.less(g, gp):
                assert order.less(tuple(a + b for a, b in zip(g, h)),
                                  tuple(a + b for a, b in zip(gp, h)))


def test_min_exponent_examples():
    assert poly({0: 1}).min_exponent(NAT) == (0,)
    assert poly({1: 1, -1: 1}).min_exponent(NAT) == (-1,)
    # priority (coord2, coord1): compare the second coordinate first
    p = LaurentPoly(2, {(2, -1): 1, (0, 3): 1})
    assert p.min_exponent(LEX_BA) == (2, -1)


def test_zero_polynomial_has_no_valuation():
    with pytest.raises(ComputationError, match="undefined valuation"):
        LaurentPoly.zero(1).min_exponent(NAT)


def test_ring_axioms_random():
    rng = random.Random(7)
    for rank, order in ((1, NAT), (2, LEX_BA)):
        for _ in range(60):
            a, b, c = (rand_poly(rng, rank) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a - a == LaurentPoly.zero(rank)


def test_min_exponent_is_additive_on_products():
    rng = random.Random(13)
    for rank, order in ((1, NAT), (2, LEX_BA)):
        for _ in range(80):
            a, b = rand_poly(rng, rank), rand_poly(rng, rank)
            ab = a * b
            assert ab  # integral domain
            want = tuple(x + y for x, y in zip(a.min_exponent(order), b.min_exponent(order)))
            assert ab.min_exponent(order) == want


def test_bar_is_involutive_ring_map():
    rng = random.Random(17)
    for _ in range(40):
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()


def test_fraction_valuation_examples():
    one = LaurentFraction.from_poly(LaurentPoly.one(1), NAT)
    assert one.valuation() == ((0,), 1)
    x = LaurentFraction.from_poly(poly({-1: -1}), NAT)
    assert x.valuation() == ((-1,), -1)
    # (v + v^3) / (1 + v^2) = v
    num, den = poly({1: 1, 3: 1}), poly({0: 1, 2: 1})
    frac = LaurentFraction(num, den, NAT)
    assert frac.valuation() == ((1,), 1)
    assert frac.as_laurent() == poly({1: 1})
    zero = LaurentFraction.zero(1, NAT)
    assert zero.valuation() == (None, 0)


def test_fraction_valuation_multiplicative():
    rng = random.Random(23)
    for _ in range(50):
        x = LaurentFraction(rand_poly(rng), rand_poly(rng), NAT)
        y = LaurentFraction(rand_poly(rng), rand_poly(rng), NAT)
        gx, rx = x.valuation()
        gy, ry = y.valuation()
        gxy, rxy = (x * y).valuation()
        assert gxy == tuple(a + b for a, b in zip(gx, gy))
        assert rxy == rx * ry


def test_fraction_equality_is_cross_multiplication():
    rng = random.Random(29)
    for _ in range(50):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        x = LaurentFraction(a * c, b * c, NAT)   # same value, different data
        y = LaurentFraction(a, b, NAT)
        assert x == y
        z = LaurentFraction(a + LaurentPoly.one(1), b, NAT)
        assert x != z
        # consistency with arithmetic
        assert x - y == LaurentFraction.zero(1, NAT)


def residue(x, shift):
    """The residue of eps^shift * x, read through a 1 x 1 KMatrix."""
    res = KMatrix([[x.num]], x.den, x.order).residue(shift)
    return None if res is None else res[0][0]


def test_constant_term_after_shift():
    x = LaurentFraction.from_poly(poly({-1: 1}), NAT)          # v^{-1}
    assert residue(x, (1,)) == 1
    y = LaurentFraction.from_poly(poly({-1: 1, 0: 3}), NAT)    # v^{-1} + 3
    assert residue(y, (1,)) == 1
    z = LaurentFraction.from_poly(poly({1: 1}), NAT)           # v: shifted val > 0
    assert residue(z, (1,)) == 0
    assert residue(x, (0,)) is None                            # not in the valuation ring


def test_constant_term_is_multiplicative():
    rng = random.Random(31)
    for _ in range(40):
        x = LaurentFraction(rand_poly(rng), rand_poly(rng), NAT)
        y = LaurentFraction(rand_poly(rng), rand_poly(rng), NAT)
        gx, _ = x.valuation()
        gy, _ = y.valuation()
        shift_x, shift_y = tuple(-a for a in gx), tuple(-a for a in gy)
        lhs = residue(x * y, tuple(a + b for a, b in zip(shift_x, shift_y)))
        assert lhs == residue(x, shift_x) * residue(y, shift_y)


def test_exact_division():
    rng = random.Random(37)
    for rank, order in ((1, NAT), (2, LEX_BA)):
        for _ in range(60):
            a, b = rand_poly(rng, rank), rand_poly(rng, rank)
            assert (a * b).exact_divide(b, order) == a
    # a non-multiple is rejected
    assert poly({0: 1, 1: 1}).exact_divide(poly({0: 1, 2: 1}), NAT) is None


def test_text_roundtrip_rational_and_cyclotomic():
    rng = random.Random(41)
    F1 = RealCyclotomicField(1)
    F5 = RealCyclotomicField(5)
    for field, rank in ((F1, 1), (F1, 2), (F5, 2)):
        for _ in range(40):
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                g = tuple(rng.randrange(-4, 5) for _ in range(rank))
                if field.degree == 1:
                    c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                else:
                    c = field.element([Fraction(rng.randrange(-9, 10)) for _ in range(2)])
                if c:
                    terms[g] = c
            p = LaurentPoly(rank, terms)
            assert LaurentPoly.from_str(p.to_str(field), rank, field) == p
    assert LaurentPoly.from_str("0", 1, F1) == LaurentPoly.zero(1)


def test_scalar_times_polynomial_is_scale():
    F5 = RealCyclotomicField(5)
    delta = F5.element((0, 1))
    p = LaurentPoly(2, {(1, 0): 3, (0, -2): Fraction(-1, 2), (1, 1): delta})
    for c in (2, 0, Fraction(-3, 4), delta, F5.element((1, -2))):
        assert c * p == p.scale(c)
    assert 0 * p == LaurentPoly.zero(2)


# -- the integer-numerator product kernel ---------------------------------------


def reference_mul(p, q):
    """The coefficient-by-coefficient product loop, kept as the oracle."""
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for g, c in a.items():
        for h, d in b.items():
            k = tuple(x + y for x, y in zip(g, h))
            s = out.get(k)
            if s is None:
                out[k] = c * d
            else:
                s = s + c * d
                if s:
                    out[k] = s
                else:
                    del out[k]
    return LaurentPoly(p.rank, out, _trusted=True)


COEFFICIENT_KINDS = {
    "int": lambda rng: rng.choice([-1, 1]) * rng.randrange(1, 12),
    "fraction": lambda rng: Fraction(rng.choice([-1, 1]) * rng.randrange(1, 12),
                                     rng.randrange(1, 7)),
    "integer-valued fraction": lambda rng: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), 1),
}
COEFFICIENT_KINDS["mixed"] = lambda rng: rng.choice(
    [COEFFICIENT_KINDS["int"], COEFFICIENT_KINDS["fraction"],
     COEFFICIENT_KINDS["integer-valued fraction"]])(rng)


def kind_poly(rng, rank, kind, nterms):
    terms = {}
    for _ in range(nterms):
        g = tuple(rng.randrange(-3, 4) for _ in range(rank))
        terms[g] = COEFFICIENT_KINDS[kind](rng)
    return LaurentPoly(rank, terms)


def assert_same_product(p, q):
    got, want = p * q, reference_mul(p, q)
    assert got == want and q * p == want
    assert hash(got) == hash(want)
    assert all(got.terms.values())
    assert all(type(c) in (int, Fraction) for c in got.terms.values())
    return got


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
def test_product_kernel_matches_the_reference_loop(kind):
    rng = random.Random(kind)
    for _ in range(300):
        rank = rng.randrange(1, 4)
        p = kind_poly(rng, rank, kind, rng.randrange(0, 6))
        q = kind_poly(rng, rank, rng.choice(sorted(COEFFICIENT_KINDS)), rng.randrange(0, 6))
        got = assert_same_product(p, q)
        if min(len(p.terms), len(q.terms)) > 1 and any(
                type(c) is Fraction for c in list(p.terms.values()) + list(q.terms.values())):
            # the kernel builds each coefficient once, and integer values as int
            assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


def test_product_kernel_cancellation_stores_no_zero():
    half = Fraction(1, 2)
    p = poly({0: half, 1: half})
    q = poly({0: 1, 1: -1})
    got = assert_same_product(p, q)
    assert got.terms == {(0,): half, (2,): -half}
    # (x + y)(x - y) over Fraction(k, 1) coefficients: the cross terms cancel
    x = LaurentPoly(2, {(1, 0): Fraction(3), (0, 1): Fraction(2)})
    y = LaurentPoly(2, {(1, 0): Fraction(3), (0, 1): Fraction(-2)})
    got = assert_same_product(x, y)
    assert got.terms == {(2, 0): 9, (0, 2): -4}
    assert all(type(c) is int for c in got.terms.values())


def test_product_kernel_empty_and_monomial_operands():
    zero = LaurentPoly.zero(2)
    p = LaurentPoly(2, {(0, 0): Fraction(1, 3), (1, -1): Fraction(5, 2), (2, 2): 4})
    assert assert_same_product(zero, p) == zero
    mono = LaurentPoly.monomial((1, 2), Fraction(-2, 3))
    got = assert_same_product(mono, p)
    assert got.terms == {(1, 2): Fraction(-2, 9), (2, 1): Fraction(-5, 3),
                         (3, 4): Fraction(-8, 3)}


def test_product_kernel_leaves_cyclotomic_coefficients_to_the_loop():
    F = RealCyclotomicField(5)
    d = F.delta()
    rng = random.Random(3)
    for _ in range(50):
        p = kind_poly(rng, 2, "mixed", rng.randrange(1, 5))
        terms = dict(p.terms)
        terms[(rng.randrange(-2, 3), 0)] = d * rng.randrange(1, 5) + Fraction(1, 3)
        cyclo = LaurentPoly(2, terms)
        q = kind_poly(rng, 2, "fraction", rng.randrange(1, 5))
        got, want = cyclo * q, reference_mul(cyclo, q)
        assert got == want and hash(got) == hash(want)
        assert all(got.terms.values())


# -- the sparse accumulator ------------------------------------------------------


def _accumulate_values(kind, rng):
    """Small values of one coefficient kind, zero included, so that sums cancel."""
    if kind == "int":
        return [rng.randrange(-2, 3) for _ in range(8)]
    if kind == "fraction":
        return [Fraction(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(8)]
    if kind == "cyclo":
        F = RealCyclotomicField(7)
        return [F.element([rng.randrange(-1, 2), rng.randrange(-1, 2), 0]) for _ in range(8)]
    return [poly({0: rng.randrange(-1, 2), 1: rng.randrange(-1, 2)}) for _ in range(8)]


@pytest.mark.parametrize("kind", ["int", "fraction", "cyclo", "laurent"])
def test_accumulate_never_stores_a_zero(kind):
    rng = random.Random(7)
    for _ in range(200):
        out, want = {}, {}
        for val in _accumulate_values(kind, rng):
            key = rng.randrange(3)
            accumulate(out, key, val)
            want[key] = want[key] + val if key in want else val
            assert all(out.values())
            assert out == {k: v for k, v in want.items() if v}


@pytest.mark.parametrize("kind", ["int", "fraction", "cyclo", "laurent"])
def test_accumulate_deletes_a_cancelled_key(kind):
    rng = random.Random(8)
    val = next(v for v in _accumulate_values(kind, rng) if v)
    out = {}
    accumulate(out, "k", val)
    assert out == {"k": val}
    accumulate(out, "k", -val)
    assert out == {}
    accumulate(out, "k", val - val)
    assert out == {}
