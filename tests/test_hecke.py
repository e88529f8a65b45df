"""Standard-basis arithmetic, the canonical bases, structure constants,
the a-function, gamma constants, and the two-sided cells."""

import itertools
import random

import pytest

from conftest import B4_MATRIX, get_session
from heckecell.cli import Session
from heckecell.errors import InputError
from heckecell.scalars import LaurentPoly

NAT_ONE = LaurentPoly.one(1)


def alg_of(name, weights="equal", order=None):
    return get_session(name, weights, order).algebra


def rand_elem(alg, rng, nterms=3):
    out = {}
    for _ in range(nterms):
        w = rng.randrange(alg.table.size)
        terms = {(rng.randrange(-3, 4),) * alg.rank: rng.randrange(-5, 6) or 1}
        out[w] = LaurentPoly(alg.rank, terms)
    return {w: c for w, c in out.items() if c}


def bruhat_leq(table, y, w):
    """Subword-property oracle: some subsequence of a reduced word of w is a
    reduced word of y."""
    word = table.word[w]
    target_len = table.length[y]
    for picks in itertools.combinations(range(len(word)), target_len):
        acc = 0
        for i in picks:
            acc = table.rmult[acc][word[i]]
        if acc == y:
            return True
    return target_len == 0 and y == 0


def test_t_multiplication_rule():
    alg = alg_of("A1")
    s = alg.table.gen(0)
    prod = alg.t_multiply(alg.t_basis(s), alg.t_basis(s))
    assert prod == {0: NAT_ONE, s: alg.xi[0]}
    # identity element
    w = alg.table.longest
    assert alg.t_multiply(alg.unit(), alg.t_basis(w)) == alg.t_basis(w)
    # eigen-relation: T_s (T_s + v^{-1}) = v (T_s + v^{-1}) by one-line expansion,
    # and the square of the canonical element picks up the factor v + v^{-1}
    cp = alg.cprime(s)
    assert alg.t_multiply(alg.t_basis(s), cp) == alg.scale(cp, alg.v[0])
    assert alg.t_multiply(cp, cp) == alg.scale(cp, alg.v[0] + alg.vinv[0])


def test_t_multiply_associative_random():
    alg = alg_of("B2")
    rng = random.Random(4)
    for _ in range(15):
        a, b, c = (rand_elem(alg, rng) for _ in range(3))
        lhs = alg.t_multiply(alg.t_multiply(a, b), c)
        rhs = alg.t_multiply(a, alg.t_multiply(b, c))
        assert lhs == rhs


def test_bar_basics():
    alg = alg_of("A1")
    s = alg.table.gen(0)
    assert alg.bar(alg.unit()) == alg.unit()
    barts = alg.bar(alg.t_basis(s))
    assert barts == {s: NAT_ONE, 0: -alg.xi[0]}
    # bar(T_s) is indeed T_s^{-1}: their product is T_1
    assert alg.t_multiply(barts, alg.t_basis(s)) == alg.unit()
    assert alg.bar(alg.cprime(s)) == alg.cprime(s)


def test_bar_is_involutive_and_multiplicative():
    alg = alg_of("I2:4")
    rng = random.Random(8)
    for _ in range(10):
        a, b = rand_elem(alg, rng), rand_elem(alg, rng)
        assert alg.bar(alg.bar(a)) == a
        assert alg.bar(alg.t_multiply(a, b)) == alg.t_multiply(alg.bar(a), alg.bar(b))


def test_cprime_base_cases():
    alg = alg_of("A2")
    assert alg.cprime(0) == alg.unit()
    s = alg.table.gen(0)
    assert alg.cprime(s) == {s: NAT_ONE, 0: alg.vinv[0]}


def test_cprime_longest_a2():
    """Bar-invariance plus negative support characterize the element, so
    checking those two properties for the closed form is an independent oracle."""
    alg = alg_of("A2")
    w0 = alg.table.longest
    expected = {y: LaurentPoly(1, {(alg.table.length[y] - 3,): 1})
                for y in range(6)}
    assert alg.bar(expected) == expected
    for y, c in expected.items():
        if y != w0:
            assert c.supported_negative(alg.order)
    assert alg.cprime(w0) == expected


@pytest.mark.parametrize("name,weights,order", [
    ("B2", "equal", None), ("I2:4", "universal", "b-first"), ("I2:5", "equal", None),
])
def test_cprime_triangular_with_negative_integral_coefficients(name, weights, order):
    alg = alg_of(name, weights, order)
    t = alg.table
    for w in range(t.size):
        cp = alg.cprime(w)
        assert cp[w] == LaurentPoly.one(alg.rank)
        for y, c in cp.items():
            if y == w:
                continue
            assert c.supported_negative(alg.order)
            assert all(isinstance(v, int) for v in c.terms.values())
            assert bruhat_leq(t, y, w)


def test_c_basis_and_bar_invariance():
    alg = alg_of("A2")
    s = alg.table.gen(0)
    assert alg.c_basis(s) == {s: -NAT_ONE, 0: alg.v[0]}
    assert alg.c_basis(0) == alg.unit()
    for w in range(6):
        c = alg.c_basis(w)
        assert alg.bar(c) == c


def test_h_constants_examples_and_invariants():
    alg = alg_of("A1")
    s = alg.table.gen(0)
    rows = alg.h_rows()
    assert rows[0][s] == {s: NAT_ONE}
    assert rows[s][s] == {s: alg.v[0] + alg.vinv[0]}

    alg4 = alg_of("I2:4")
    rows4 = alg4.h_rows()
    size = alg4.table.size
    for x in range(size):
        for y in range(size):
            assert rows4[0][y].get(y) == LaurentPoly.one(1)
            for z, h in rows4[x][y].items():
                assert h == h.bar()
                # integer constant, or terms on both sides of zero
                exps = sorted(e[0] for e in h.terms)
                assert (exps == [0]) or (exps[0] < 0 < exps[-1])


def test_h_table_matches_direct_products():
    alg = alg_of("B2")
    rows = alg.h_rows()
    rng = random.Random(12)
    for _ in range(10):
        x, y = rng.randrange(8), rng.randrange(8)
        direct = alg.t_to_c(alg.t_multiply(alg.c_basis(x), alg.c_basis(y)))
        assert direct == rows[x][y]


def test_a_function():
    alg = alg_of("A1")
    s = alg.table.gen(0)
    assert alg.a_value(0) == (0,)
    assert alg.a_value(s) == alg.weights.of_gen(0)

    alg2 = alg_of("A2")
    assert alg2.a_value(alg2.table.longest) == (3,)
    assert alg2.a_value(0) == (0,)

    # unequal weights: a(s) = L(s) per generator
    algu = alg_of("I2:4", "universal", "b-first")
    for s_idx in range(2):
        g = algu.table.gen(s_idx)
        assert algu.a_value(g) == algu.weights.of_gen(s_idx)


def test_gamma_constants():
    alg = alg_of("A1")
    s = alg.table.gen(0)
    assert alg.gamma_constant(0, 0, 0) == 1
    assert alg.gamma_constant(s, s, s) == 1
    alg2 = alg_of("A2")
    values = {alg2.gamma_constant(x, y, z)
              for x in range(6) for y in range(6) for z in range(6)}
    assert values == {0, 1}


def test_lr_cells():
    alg = alg_of("A1")
    _, cells, _ = alg.lr_cells()
    assert cells == [[0], [1]]

    alg2 = alg_of("A2")
    _, cells2, _ = alg2.lr_cells()
    assert cells2 == [[0], [1, 2, 3, 4], [5]]

    # the asymptotic order refines the equal-parameter partition on I2(4)
    eq = alg_of("I2:4")
    asym = alg_of("I2:4", "universal", "b-first")
    _, cells_eq, _ = eq.lr_cells()
    _, cells_asym, _ = asym.lr_cells()
    for cell in cells_asym:
        assert any(set(cell) <= set(c) for c in cells_eq)
    assert len(cells_asym) > len(cells_eq)


def test_full_table_size_guard():
    session = Session({"system": B4_MATRIX})
    with pytest.raises(InputError, match="limited"):
        session.algebra.h_rows()
