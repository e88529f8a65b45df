"""The elimination kernel behind every determinant and inverse, checked against
permutation expansion over Q, over Q(2cos(2pi/5)) and over a rank-2 Laurent
ring, and the common denominator of KMatrix.from_fractions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from heckecell.errors import ComputationError
from heckecell.fields import RealCyclotomicField
from heckecell.matrices import KMatrix, f_det, f_inverse, f_mat_mul
from heckecell.scalars import LaurentFraction, LaurentPoly, MonomialOrder, natural_order

B_FIRST = MonomialOrder(2, (1, 0))
I25_FIELD = RealCyclotomicField(5)


def perm_det(a, zero, one):
    """Determinant by the Leibniz expansion: the reference for the kernel."""
    n = len(a)
    total = zero
    for perm in permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * a[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def random_matrix(rng, n, entry, zero):
    """Sparse random n x n matrix with a zero leading column head, so the
    elimination has to swap rows; every third one is made singular."""
    a = [[entry(rng) if rng.random() < 0.6 else zero for _ in range(n)] for _ in range(n)]
    for i in range(n // 2):
        a[i][0] = zero
    if n >= 2 and rng.randrange(3) == 0:
        a[-1] = list(a[0])
    return a


def rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def cyclotomic(rng):
    return I25_FIELD.element((rational(rng), rational(rng)))


def laurent(rng):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = rng.choice([-2, -1, 1, 3])
    return LaurentPoly(2, terms)


@pytest.mark.parametrize("entry", [rational, cyclotomic], ids=["Q", "I2:5 field"])
def test_field_det_and_inverse_match_expansion(entry):
    rng = random.Random(11)
    zero, one = Fraction(0), Fraction(1)
    singular = 0
    for n in range(7):
        for _ in range(6):
            a = random_matrix(rng, n, entry, zero)
            det = f_det(a)
            assert det == perm_det(a, zero, one)
            if not det:
                singular += 1
                with pytest.raises(ComputationError):
                    f_inverse(a)
                continue
            inv = f_inverse(a)
            ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
            if n:
                assert f_mat_mul(a, inv) == ident
                assert f_mat_mul(inv, a) == ident
            else:
                assert inv == []
    assert singular


def test_laurent_det_and_inverse_match_expansion():
    rng = random.Random(5)
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    dens = [one, LaurentPoly(2, {(0, 0): 1, (1, 0): -1}), LaurentPoly.monomial((0, -1), 2)]
    singular = 0
    for n in range(7):
        for _ in range(3 if n < 6 else 1):
            num = random_matrix(rng, n, laurent, zero)
            mat = KMatrix(num, rng.choice(dens), B_FIRST)
            det = mat.det()
            assert det == LaurentFraction(perm_det(num, zero, one), mat.den ** n, B_FIRST)
            if not det:
                singular += 1
                with pytest.raises(ComputationError):
                    mat.inverse()
                continue
            inv = mat.inverse()
            if n:
                assert mat * inv == KMatrix.identity(n, 2, B_FIRST)
                assert inv * mat == KMatrix.identity(n, 2, B_FIRST)
            else:
                assert inv.dim == 0
    assert singular


def test_from_fractions_uses_each_denominator_once():
    order = natural_order(1)
    den = LaurentPoly(1, {(0,): 1, (1,): -1})
    rows = [[LaurentFraction(LaurentPoly.monomial((i + j,), 1 + i), den, order)
             for j in range(2)] for i in range(2)]
    mat = KMatrix.from_fractions(rows, order)
    assert mat.den == den
    assert mat.fractions() == rows


def test_kmatrix_equality_over_equal_and_different_denominators():
    order = natural_order(1)
    den = LaurentPoly(1, {(0,): 1, (1,): -1})
    num = [[LaurentPoly.monomial((1,), 2), LaurentPoly.zero(1)],
           [LaurentPoly.one(1), LaurentPoly.monomial((-1,), -3)]]
    a = KMatrix(num, den, order)
    assert a == KMatrix([row[:] for row in num], den, order)
    eps = LaurentPoly.monomial((1,), 1)
    assert a == KMatrix([[x * eps for x in row] for row in num], den * eps, order)
    changed = [row[:] for row in num]
    changed[1][0] = LaurentPoly.constant(1, 2)
    assert a != KMatrix(changed, den, order)
    assert a != KMatrix([[x * eps for x in row] for row in changed], den * eps, order)


def test_kmatrix_equality_checks_shapes():
    """A prefix of equal entries is not equality: zip must not truncate."""
    order = natural_order(1)
    one, eps = LaurentPoly.one(1), LaurentPoly.monomial((1,), 1)
    inv_eps = LaurentPoly.monomial((-1,), 1)
    small = KMatrix([[one]], eps, order)
    # [[eps^-1, 1], [1, 1]] / 1 has top-left entry eps^-1 = 1 / eps
    big = KMatrix([[inv_eps, one], [one, one]], one, order)
    assert small != big and big != small
    # equal denominators: a matrix against the same rows plus an extra column or row
    a = KMatrix([[one, eps]], one, order)
    assert a != KMatrix([[one, eps, one]], one, order)
    assert a != KMatrix([[one, eps], [one, one]], one, order)
    assert KMatrix([[one, eps], [one, one]], one, order) != a
    assert KMatrix([[eps, eps * eps]], eps, order) == a
