"""The elimination kernel behind every determinant and inverse, checked against
permutation expansion over Q, over Q(2cos(2pi/5)) and over a rank-2 Laurent
ring, and the common denominator of KMatrix.from_fractions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import f_mat_mul
from heckecell.errors import ComputationError
from heckecell.fields import RealCyclotomicField
from heckecell.matrices import KMatrix, f_det, f_inverse, f_nonzero, f_sparse_mul
from heckecell.scalars import LaurentFraction, LaurentPoly, MonomialOrder

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
    """A random polynomial of rank 2, its exponents taken as stored ones."""
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
            inv, inv_det = f_inverse(a)
            assert inv_det == det
            ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
            if n:
                assert f_mat_mul(a, inv) == ident
                assert f_mat_mul(inv, a) == ident
            else:
                assert inv == []
    assert singular


@pytest.mark.parametrize("entry", [rational, cyclotomic], ids=["Q", "I2:5 field"])
def test_sparse_product_matches_the_dense_product(entry):
    rng = random.Random(5)
    zero = Fraction(0)
    for n, m, p in ((1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5)):
        for _ in range(6):
            a = [[entry(rng) if rng.random() < 0.4 else zero for _ in range(m)]
                 for _ in range(n)]
            b = [[entry(rng) if rng.random() < 0.4 else zero for _ in range(p)]
                 for _ in range(m)]
            dense = f_mat_mul(a, b)
            assert f_sparse_mul(f_nonzero(a), f_nonzero(b)) == {
                (i, k): c for i, k, c in f_nonzero(dense)}
    # entries that cancel leave no zero behind
    assert f_sparse_mul([(0, 0, 1), (0, 1, 1)], [(0, 0, 1), (1, 0, -1)]) == {}


def test_laurent_det_and_inverse_match_expansion():
    rng = random.Random(5)
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    dens = [one, LaurentPoly(2, {(0, 0): 1, (1, 0): -1}), LaurentPoly.monomial((0, -1), 2)]
    singular = 0
    for n in range(7):
        for _ in range(3 if n < 6 else 1):
            num = random_matrix(rng, n, laurent, zero)
            mat = KMatrix(num, rng.choice(dens))
            det = mat.det()
            assert det == LaurentFraction(perm_det(num, zero, one), mat.den ** n)
            if not det:
                singular += 1
                with pytest.raises(ComputationError):
                    mat.inverse()
                continue
            inv = mat.inverse()
            assert inv.den == perm_det(num, zero, one)
            if n:
                assert mat * inv == KMatrix.identity(n, 2)
                assert inv * mat == KMatrix.identity(n, 2)
            else:
                assert inv.dim == 0
    assert singular


def test_from_fractions_uses_each_denominator_once():
    den = LaurentPoly(1, {(0,): 1, (1,): -1})
    rows = [[LaurentFraction(LaurentPoly.monomial((i + j,), 1 + i), den)
             for j in range(2)] for i in range(2)]
    mat = KMatrix.from_fractions(rows)
    assert mat.den == den
    assert mat.fractions() == rows


def test_from_fractions_denominator_is_divided_by_every_entry_denominator():
    # the largest denominator goes in first, so 1 - e, (1 - e)^2 and 1 + e,
    # in any order, share (1 - e)^2 (1 + e), not (1 - e)^3 (1 + e)
    one_minus = LaurentPoly(1, {(0,): 1, (1,): -1})
    one_plus = LaurentPoly(1, {(0,): 1, (1,): 1})
    lcm = one_minus * one_minus * one_plus
    for dens, want in [([one_minus, one_minus * one_minus, one_plus, LaurentPoly.one(1)], lcm),
                       ([one_minus, one_plus, one_minus * one_plus], None)]:
        for shift in range(len(dens)):
            turned = dens[shift:] + dens[:shift]
            rows = [[LaurentFraction(LaurentPoly.monomial((i,), j + 1), d)
                     for j, d in enumerate(turned)] for i in range(2)]
            mat = KMatrix.from_fractions(rows)
            assert all(mat.den.exact_divide(d) is not None for d in dens)
            assert want is None or mat.den == want
            assert mat.fractions() == rows


def test_kmatrix_equality_over_equal_and_different_denominators():
    den = LaurentPoly(1, {(0,): 1, (1,): -1})
    num = [[LaurentPoly.monomial((1,), 2), LaurentPoly.zero(1)],
           [LaurentPoly.one(1), LaurentPoly.monomial((-1,), -3)]]
    a = KMatrix(num, den)
    assert a == KMatrix([row[:] for row in num], den)
    eps = LaurentPoly.monomial((1,), 1)
    assert a == KMatrix([[x * eps for x in row] for row in num], den * eps)
    changed = [row[:] for row in num]
    changed[1][0] = LaurentPoly.constant(1, 2)
    assert a != KMatrix(changed, den)
    assert a != KMatrix([[x * eps for x in row] for row in changed], den * eps)


def test_kmatrix_equality_checks_shapes():
    """A prefix of equal entries is not equality: zip must not truncate."""
    one, eps = LaurentPoly.one(1), LaurentPoly.monomial((1,), 1)
    inv_eps = LaurentPoly.monomial((-1,), 1)
    small = KMatrix([[one]], eps)
    # [[eps^-1, 1], [1, 1]] / 1 has top-left entry eps^-1 = 1 / eps
    big = KMatrix([[inv_eps, one], [one, one]], one)
    assert small != big and big != small
    # equal denominators: a matrix against the same rows plus an extra column or row
    a = KMatrix([[one, eps]], one)
    assert a != KMatrix([[one, eps, one]], one)
    assert a != KMatrix([[one, eps], [one, one]], one)
    assert KMatrix([[one, eps], [one, one]], one) != a
    assert KMatrix([[eps, eps * eps]], eps) == a


# -- the residue map O -> F -------------------------------------------------------


def mono(g, c=1):
    return LaurentPoly.monomial(g, c)


def test_residue_is_none_when_an_entry_lies_outside_o():
    zero = LaurentPoly.zero(1)
    assert KMatrix([[mono((0,), 2), mono((-1,))]], LaurentPoly.one(1)).residue() is None
    assert KMatrix([[zero, mono((1,))]], mono((2,))).residue() is None
    # b-first: the second coordinate decides before the first, so it is
    # the first of the stored exponent
    stored = B_FIRST.stored
    assert KMatrix([[mono(stored((5, -1)))]], LaurentPoly.one(2)).residue() is None
    assert KMatrix([[mono(stored((-3, 0)))]], LaurentPoly.one(2)).residue() is None
    assert KMatrix([[mono(stored((-3, 1))), mono(stored((3, 0)))]],
                   LaurentPoly.one(2)).residue() == [[0, 0]]


def test_residue_after_shift():
    num = [[mono((-1,)) + LaurentPoly.constant(1, 3), mono((1,)), LaurentPoly.zero(1)]]
    mat = KMatrix(num, LaurentPoly.one(1))
    assert mat.residue() is None
    assert mat.residue((1,)) == [[1, 0, 0]]
    assert mat.residue((2,)) == [[0, 0, 0]]
    assert mat.residue((-1,)) is None


def test_residue_over_a_non_monic_denominator():
    den = mono((1,), 2) + mono((2,), 3)                  # 2 eps + 3 eps^2
    num = [[mono((1,), 4) + mono((3,)), mono((2,), 6)], [LaurentPoly.zero(1), mono((1,), -1)]]
    assert KMatrix(num, den).residue() == [[2, 0], [0, Fraction(-1, 2)]]
    assert KMatrix(num, den).residue((-1,)) is None
    delta = I25_FIELD.element((0, 1))
    den = mono((0,), delta) + mono((1,))
    res = KMatrix([[mono((0,), 3), mono((0,), delta)]], den).residue()
    assert res == [[3 * I25_FIELD.inverse(delta), 1]]


def reference_residue(mat, shift):
    """Entrywise, through the normal form of LaurentFraction: the valuation
    g_x and lead coefficient r_x of each entry."""
    out = []
    for row in mat.fractions():
        res = []
        for x in row:
            g, r = x.valuation()
            if g is None:
                res.append(0)
                continue
            g = tuple(a + b for a, b in zip(g, shift))
            if g < (0,) * len(g):
                return None
            res.append(0 if g > (0,) * len(g) else r)
        out.append(res)
    return out


def test_residue_matches_the_normal_form_entrywise():
    rng = random.Random(7)
    zero = LaurentPoly.zero(2)
    dens = [LaurentPoly.one(2), LaurentPoly(2, {(0, 0): 1, (1, 0): -1}),
            LaurentPoly(2, {(0, -1): 3, (2, 0): 1}), mono((1, 1), -2)]
    outside = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        mat = KMatrix(random_matrix(rng, n, laurent, zero), rng.choice(dens))
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        want = reference_residue(mat, shift)
        assert mat.residue(shift) == want
        outside += want is None
    assert 0 < outside < 200


def test_residue_inverts_the_denominator_lead_lazily(monkeypatch):
    calls = []
    inverse = I25_FIELD.inverse
    monkeypatch.setattr(I25_FIELD, "inverse", lambda x: calls.append(x) or inverse(x))
    delta = I25_FIELD.element((0, 1))
    den = mono((0,), delta)
    assert KMatrix([[mono((1,)), mono((2,), 5)]], den).residue() == [[0, 0]]
    assert calls == []
    assert KMatrix([[mono((0,)), mono((0,), 5)]], den).residue() == [
        [inverse(delta), 5 * inverse(delta)]]
    assert calls == [delta]


def test_field_det_inverts_only_pivots_with_a_row_to_clear_with(monkeypatch):
    calls = []
    inverse = I25_FIELD.inverse
    monkeypatch.setattr(I25_FIELD, "inverse", lambda x: calls.append(x) or inverse(x))
    delta = I25_FIELD.element((0, 1))
    assert f_det([[delta, Fraction(0)], [Fraction(0), delta]]) == delta * delta
    assert calls == []
    assert f_det([[delta, Fraction(1)], [Fraction(1), delta]]) == delta * delta - 1
    assert calls == [delta]
