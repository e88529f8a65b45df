"""Laurent polynomials, monomial orders, and the valuation-ring structure."""

import random
from fractions import Fraction

import pytest

from heckecell.errors import ComputationError
from heckecell.fields import CycloNumber, RealCyclotomicField
from heckecell.matrices import KMatrix
from heckecell.scalars import (LaurentFraction, LaurentPoly, MonomialOrder,
                               accumulate, exp_sub, mul_into, natural_order, scalar_inverse)

NAT = natural_order(1)
LEX_BA = MonomialOrder(2, (1, 0))
LEX_CAB = MonomialOrder(3, (2, 0, 1))  # not its own inverse: stored differs from user


def poly(terms, rank=1):
    """The polynomial with these terms; LaurentPoly takes no zero coefficient,
    so zero ones are left out here."""
    return LaurentPoly(rank, {tuple(g) if isinstance(g, (tuple, list)) else (g,): c
                              for g, c in terms.items() if c})


def rand_poly(rng, rank=1, nterms=4, span=5):
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        g = tuple(rng.randrange(-span, span + 1) for _ in range(rank))
        terms[g] = rng.randrange(-9, 10) or 1
    return LaurentPoly(rank, terms)


def test_monomial_order_is_total_and_additive():
    """Stored exponents are compared as tuples: the order is total, and it is
    translation-invariant because `stored` is additive."""
    assert LEX_CAB.stored((1, 2, 3)) == (3, 1, 2)
    assert LEX_CAB.user((3, 1, 2)) == (1, 2, 3)
    rng = random.Random(1)
    for order in (NAT, LEX_BA, LEX_CAB):
        for _ in range(200):
            g = tuple(rng.randrange(-5, 6) for _ in range(order.rank))
            gp = tuple(rng.randrange(-5, 6) for _ in range(order.rank))
            h = tuple(rng.randrange(-5, 6) for _ in range(order.rank))
            assert order.user(order.stored(g)) == g
            assert order.stored(order.user(g)) == g
            add = [tuple(a + b for a, b in zip(x, h)) for x in (g, gp)]
            assert order.stored(add[0]) == tuple(
                a + b for a, b in zip(order.stored(g), order.stored(h)))
            # totality
            sg, sgp = order.stored(g), order.stored(gp)
            assert (sg < sgp) + (sgp < sg) + (g == gp) == 1
            # translation invariance
            if sg < sgp:
                assert order.stored(add[0]) < order.stored(add[1])


def test_min_exponent_examples():
    assert poly({0: 1}).min_exponent() == (0,)
    assert poly({1: 1, -1: 1}).min_exponent() == (-1,)
    # priority (coord2, coord1): compare the second coordinate first
    p = LaurentPoly(2, {LEX_BA.stored(g): 1 for g in ((2, -1), (0, 3))})
    assert LEX_BA.user(p.min_exponent()) == (2, -1)
    assert LEX_BA.user(max(p.terms)) == (0, 3)


def test_zero_polynomial_has_no_valuation():
    with pytest.raises(ComputationError, match="undefined valuation"):
        LaurentPoly.zero(1).min_exponent()


def test_ring_axioms_random():
    rng = random.Random(7)
    for rank in (1, 2):
        for _ in range(60):
            a, b, c = (rand_poly(rng, rank) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a - a == LaurentPoly.zero(rank)


def test_min_exponent_is_additive_on_products():
    rng = random.Random(13)
    for rank in (1, 2):
        for _ in range(80):
            a, b = rand_poly(rng, rank), rand_poly(rng, rank)
            ab = a * b
            assert ab  # integral domain
            want = tuple(x + y for x, y in zip(a.min_exponent(), b.min_exponent()))
            assert ab.min_exponent() == want


def test_bar_is_involutive_ring_map():
    rng = random.Random(17)
    for _ in range(40):
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()


def test_fraction_valuation_examples():
    one = LaurentFraction.from_poly(LaurentPoly.one(1))
    assert one.valuation() == ((0,), 1)
    x = LaurentFraction.from_poly(poly({-1: -1}))
    assert x.valuation() == ((-1,), -1)
    # (v + v^3) / (1 + v^2) = v
    num, den = poly({1: 1, 3: 1}), poly({0: 1, 2: 1})
    frac = LaurentFraction(num, den)
    assert frac.valuation() == ((1,), 1)
    zero = LaurentFraction.zero(1)
    assert zero.valuation() == (None, 0)


def test_fraction_valuation_multiplicative():
    rng = random.Random(23)
    for _ in range(50):
        x = LaurentFraction(rand_poly(rng), rand_poly(rng))
        y = LaurentFraction(rand_poly(rng), rand_poly(rng))
        gx, rx = x.valuation()
        gy, ry = y.valuation()
        gxy, rxy = (x * y).valuation()
        assert gxy == tuple(a + b for a, b in zip(gx, gy))
        assert rxy == rx * ry


def test_fraction_equality_is_cross_multiplication():
    rng = random.Random(29)
    for _ in range(50):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        x = LaurentFraction(a * c, b * c)   # same value, different data
        y = LaurentFraction(a, b)
        assert x == y
        z = LaurentFraction(a + LaurentPoly.one(1), b)
        assert x != z
        # consistency with arithmetic
        assert x - y == LaurentFraction.zero(1)


def residue(x, shift):
    """The residue of eps^shift * x, read through a 1 x 1 KMatrix."""
    res = KMatrix([[x.num]], x.den).residue(shift)
    return None if res is None else res[0][0]


def test_constant_term_after_shift():
    x = LaurentFraction.from_poly(poly({-1: 1}))          # v^{-1}
    assert residue(x, (1,)) == 1
    y = LaurentFraction.from_poly(poly({-1: 1, 0: 3}))    # v^{-1} + 3
    assert residue(y, (1,)) == 1
    z = LaurentFraction.from_poly(poly({1: 1}))           # v: shifted val > 0
    assert residue(z, (1,)) == 0
    assert residue(x, (0,)) is None                            # not in the valuation ring


def test_constant_term_is_multiplicative():
    rng = random.Random(31)
    for _ in range(40):
        x = LaurentFraction(rand_poly(rng), rand_poly(rng))
        y = LaurentFraction(rand_poly(rng), rand_poly(rng))
        gx, _ = x.valuation()
        gy, _ = y.valuation()
        shift_x, shift_y = tuple(-a for a in gx), tuple(-a for a in gy)
        lhs = residue(x * y, tuple(a + b for a, b in zip(shift_x, shift_y)))
        assert lhs == residue(x, shift_x) * residue(y, shift_y)


def test_exact_division():
    rng = random.Random(37)
    for rank in (1, 2):
        for _ in range(60):
            a, b = rand_poly(rng, rank), rand_poly(rng, rank)
            assert (a * b).exact_divide(b) == a
    # a non-multiple is rejected
    assert poly({0: 1, 1: 1}).exact_divide(poly({0: 1, 2: 1})) is None


# -- the exact division kernel ---------------------------------------------------


def reference_divide(num, den):
    """Long division that rebuilds the remainder as rem - den.shift(q).scale(c)
    for each quotient term, kept as the oracle for `exact_divide`. It stops
    at a quotient exponent past max(num) - max(den) in the order or in one
    coordinate, as `exact_divide` does."""
    dmin = min(den.terms)
    d = den.terms[dmin]
    dinv = d.field.inverse(d) if isinstance(d, CycloNumber) else 1 / Fraction(d)
    bound = exp_sub(max(num.terms), max(den.terms))
    cap = [max(g[i] for g in num.terms) - max(g[i] for g in den.terms)
           for i in range(num.rank)]
    rem, quot = num, {}
    while rem:
        rmin = min(rem.terms)
        qexp = exp_sub(rmin, dmin)
        if qexp > bound or any(q > c for q, c in zip(qexp, cap)):
            return None
        qc = rem.terms[rmin] * dinv
        quot[qexp] = qc
        rem = rem - den.shift(qexp).scale(qc)
    return LaurentPoly(num.rank, quot)


F5 = RealCyclotomicField(5)
DIVISION_KINDS = {
    "int": lambda rng: rng.choice([-1, 1]) * rng.randrange(1, 6),
    "fraction": lambda rng: Fraction(rng.choice([-1, 1]) * rng.randrange(1, 6),
                                     rng.randrange(1, 4)),
    "cyclotomic": lambda rng: F5.element((rng.randrange(-3, 4), rng.randrange(-3, 4))) or 1,
}


def division_poly(rng, rank, kind, nterms):
    terms = {}
    for _ in range(nterms):
        terms[tuple(rng.randrange(-3, 4) for _ in range(rank))] = DIVISION_KINDS[kind](rng)
    return LaurentPoly(rank, terms)


@pytest.mark.parametrize("kind", sorted(DIVISION_KINDS))
@pytest.mark.parametrize("rank", [1, 2])
def test_exact_divide_matches_the_reference(kind, rank):
    rng = random.Random(f"{kind}{rank}")
    rejected = 0
    for _ in range(150):
        a = division_poly(rng, rank, kind, rng.randrange(1, 5))
        b = division_poly(rng, rank, kind, rng.randrange(1, 5))
        assert (a * b).exact_divide(b) == a == reference_divide(a * b, b)
        # a random pair is mostly not a multiple; both divisions must agree
        c = division_poly(rng, rank, kind, rng.randrange(1, 5))
        got = c.exact_divide(b)
        assert got == reference_divide(c, b)
        rejected += got is None
    assert rejected > 50


def test_exact_divide_rejects_a_non_divisor_with_an_unbounded_remainder():
    """(1 + eps^(1,0)) / (1 - eps^(0,1)) keeps a remainder eps^(0,k) + eps^(1,0)
    below the lexicographic bound (1,-1) for every k; the quotient's second
    coordinate passes its cap -1 at the second term."""
    num = LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
    den = LaurentPoly(2, {(0, 0): 1, (0, 1): -1})
    assert num.exact_divide(den) is None
    assert (num * den).exact_divide(den) == num


@pytest.mark.parametrize("kind", sorted(DIVISION_KINDS))
def test_exact_divide_by_a_monomial_and_of_zero(kind):
    rng = random.Random(kind)
    for _ in range(50):
        a = division_poly(rng, 2, kind, rng.randrange(1, 6))
        mono = division_poly(rng, 2, kind, 1)
        assert (a * mono).exact_divide(mono) == a
        assert a.exact_divide(mono) == reference_divide(a, mono)
        assert LaurentPoly.zero(2).exact_divide(a) == LaurentPoly.zero(2)
    with pytest.raises(ZeroDivisionError):
        poly({0: 1}).exact_divide(LaurentPoly.zero(1))


def test_unit_inverses_and_unit_lead_quotients_are_ints():
    for u in (1, -1):
        assert type(scalar_inverse(u)) is int and scalar_inverse(u) == u
    assert scalar_inverse(2) == Fraction(1, 2)
    assert scalar_inverse(Fraction(-1)) == -1
    rng = random.Random(5)
    for _ in range(100):
        a = division_poly(rng, 2, "int", rng.randrange(1, 5))
        b = division_poly(rng, 2, "int", rng.randrange(1, 5))
        lead = min(b.terms)
        b.terms[lead] = rng.choice([-1, 1])
        for num in (a * b, a * b * b):
            q = num.exact_divide(b)
            assert all(type(c) is int for c in q.terms.values())
        # a Fraction-valued product still divides to ints
        p = LaurentPoly(2, {g: Fraction(c) for g, c in (a * b).terms.items()})
        assert all(type(c) is int for c in p.exact_divide(b).terms.values())


def test_text_roundtrip_rational_and_cyclotomic():
    rng = random.Random(41)
    F1 = RealCyclotomicField(1)
    F5 = RealCyclotomicField(5)
    for field, order in ((F1, NAT), (F1, LEX_BA), (F5, LEX_BA), (F1, LEX_CAB)):
        rank = order.rank
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
            assert LaurentPoly.from_str(p.to_str(field, order), field, order) == p
    assert LaurentPoly.from_str("0", F1, NAT) == LaurentPoly.zero(1)


def test_text_is_in_user_coordinates():
    """Text exponents are the user's; stored ones are permuted by the priority,
    and the text lists terms in ascending user coordinates."""
    F1 = RealCyclotomicField(1)
    text = "1*eps[0,0,1] + 2*eps[1,0,0]"
    p = LaurentPoly.from_str(text, F1, LEX_CAB)
    assert p.terms == {(1, 0, 0): 1, (0, 1, 0): 2}
    assert p.min_exponent() == (0, 1, 0)  # eps[1,0,0] < eps[0,0,1]: coordinate 2 leads
    assert p.to_str(F1, LEX_CAB) == text


def test_scalar_times_polynomial_is_scale():
    F5 = RealCyclotomicField(5)
    delta = F5.element((0, 1))
    p = LaurentPoly(2, {(1, 0): 3, (0, -2): Fraction(-1, 2), (1, 1): delta})
    for c in (2, 0, Fraction(-3, 4), delta, F5.element((1, -2))):
        assert c * p == p.scale(c)
    assert 0 * p == LaurentPoly.zero(2)


# -- the product kernel on rational coefficients ---------------------------------


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
    return LaurentPoly(p.rank, out)


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


def test_hash_is_cached_and_does_not_depend_on_term_order():
    rng = random.Random(17)
    for kind in sorted(COEFFICIENT_KINDS):
        for _ in range(50):
            p = kind_poly(rng, 2, kind, rng.randrange(0, 6))
            items = list(p.terms.items())
            rng.shuffle(items)
            q = LaurentPoly(2, dict(reversed(items)))
            assert p == q and hash(p) == hash(q)
            for r in (p, q):
                assert r._hash == hash((r.rank, frozenset(r.terms.items())))
    a = LaurentPoly(2, {(0, 1): 3, (-1, 0): Fraction(1, 2), (2, 2): -5})
    b = LaurentPoly(2, {(2, 2): -5, (-1, 0): Fraction(1, 2), (0, 1): 3})
    assert list(a.terms) != list(b.terms) and hash(a) == hash(b)


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
def test_product_kernel_matches_the_reference_loop(kind):
    rng = random.Random(kind)
    for _ in range(300):
        rank = rng.randrange(1, 4)
        p = kind_poly(rng, rank, kind, rng.randrange(0, 6))
        q = kind_poly(rng, rank, rng.choice(sorted(COEFFICIENT_KINDS)), rng.randrange(0, 6))
        assert_same_product(p, q)


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


# -- the fused multiply-accumulate kernel -----------------------------------------


def reference_mul_into(out, a, b, sign):
    """out + sign * a * b by a plain dict convolution, zeros dropped at the end."""
    acc = dict(out)
    for g, c in a.items():
        for h, d in b.items():
            k = tuple(x + y for x, y in zip(g, h))
            acc[k] = acc.get(k, 0) + sign * c * d
    return {k: v for k, v in acc.items() if v}


MUL_INTO_KINDS = {
    "int": COEFFICIENT_KINDS["int"],
    "fraction": COEFFICIENT_KINDS["fraction"],
    "cyclo": lambda rng: RealCyclotomicField(7).element(
        [rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(1, 3)]),
}


def mul_into_terms(rng, rank, kind, nterms):
    terms = {}
    for _ in range(nterms):
        # exponents near zero, so the constant term (and its shortcut) is common
        g = tuple(rng.randrange(-1, 2) for _ in range(rank))
        terms[g] = 1 if rng.random() < 0.2 else MUL_INTO_KINDS[kind](rng)
    return terms


@pytest.mark.parametrize("kind", sorted(MUL_INTO_KINDS))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_mul_into_matches_a_dict_convolution(kind, rank):
    rng = random.Random(f"{kind}{rank}")
    for _ in range(200):
        a, b = (mul_into_terms(rng, rank, kind, rng.randrange(0, 5)) for _ in "ab")
        out = mul_into_terms(rng, rank, rng.choice(sorted(MUL_INTO_KINDS)), rng.randrange(0, 4))
        sign = rng.choice([1, -1])
        a_before, b_before = dict(a), dict(b)
        want = reference_mul_into(out, a, b, sign)
        got = mul_into(out, a, b, sign)
        assert got is out
        assert out == want
        assert all(out.values())
        assert a == a_before and b == b_before


@pytest.mark.parametrize("kind", sorted(MUL_INTO_KINDS))
def test_mul_into_a_sum_that_cancels_leaves_an_empty_map(kind):
    rng = random.Random(kind)
    for rank in (1, 2, 3):
        a, b = (mul_into_terms(rng, rank, kind, 3) for _ in "ab")
        out = mul_into({}, a, b)
        assert out and out == reference_mul_into({}, a, b, 1)
        # a * b - b * a, and -a * b + a * b
        assert mul_into(out, b, a, -1) == {}
        assert mul_into(mul_into({}, a, b, -1), a, b) == {}


def test_mul_into_constant_one_term_adds_the_other_operand_as_it_is():
    one = {(0, 0): 1}
    b = {(1, 0): Fraction(1, 2), (0, -1): 3}
    out = mul_into({}, one, b)
    assert out == b and out is not b
    assert mul_into({(1, 0): Fraction(-1, 2)}, b, one) == {(0, -1): 3}
    assert mul_into({}, one, b, -1) == {(1, 0): Fraction(-1, 2), (0, -1): -3}


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
