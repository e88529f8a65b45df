"""The canonical bases, structure constants, the a-function, gamma
constants and the two-sided cells, checked against standard-basis
references: the T-basis product, inverse and bar involution below."""

import itertools
import random
import re

import pytest

from conftest import B4_MATRIX, D4_MATRIX, get_session
from heckecell.cli import Session
from heckecell.errors import ComputationError, InputError
from heckecell.hecke import HeckeAlgebra
from heckecell.scalars import LaurentPoly, accumulate

NAT_ONE = LaurentPoly.one(1)


def gen_right(alg, h: dict, s: int) -> dict:
    """h * T_s for h in the T-basis."""
    t, out = alg.table, {}
    xi = alg.xi[s]
    for w, c in h.items():
        ws = t.rmult[w][s]
        accumulate(out, ws, c)
        if t.length[ws] < t.length[w]:
            accumulate(out, w, xi * c)
    return out


def t_multiply(alg, h1: dict, h2: dict) -> dict:
    """Product of two T-basis elements.

    Expands along stored reduced words, sharing prefixes: h1*T_w is reused
    through the right-parent chain of each w in the support of h2.
    """
    cache = {0: h1}

    def left_times(w):
        got = cache.get(w)
        if got is None:
            wp, s = alg.table.right_parent(w)
            got = cache[w] = gen_right(alg, left_times(wp), s)
        return got

    out = {}
    for w, c in h2.items():
        for u, d in left_times(w).items():
            accumulate(out, u, d * c)
    return out


def t_inverse(alg, w: int) -> dict:
    """(T_w)^{-1} in the T-basis: T_{s_1..s_k}^{-1} = T_{s_k}^{-1}..T_{s_1}^{-1},
    with T_s^{-1} = T_s - (v_s - v_s^{-1})."""
    out = {0: LaurentPoly.one(alg.rank)}
    for s in alg.table.word[w]:
        prev, out = out, alg.gen_left(s, out)
        for u, c in prev.items():
            accumulate(out, u, -(c * alg.xi[s]))
    return out


def bar(alg, h: dict, inverses=None) -> dict:
    """The ring involution sum a_w T_w -> sum bar(a_w) (T_{w^{-1}})^{-1}.

    `inverses`, a dict w -> (T_w)^{-1}, is filled and read when given, so a
    caller applying bar to many elements expands each inverse once."""
    inverses = {} if inverses is None else inverses
    out = {}
    for w, c in h.items():
        cbar = c.bar()
        wi = alg.table.inverse[w]
        if wi not in inverses:
            inverses[wi] = t_inverse(alg, wi)
        for u, d in inverses[wi].items():
            accumulate(out, u, cbar * d)
    return out


def from_c(alg, coords: dict) -> dict:
    """sum_z coords[z] C_z in the T-basis."""
    out = {}
    for z, h in coords.items():
        for u, d in alg.c_basis(z).items():
            accumulate(out, u, h * d)
    return out


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
    ts = {s: NAT_ONE}
    assert t_multiply(alg, ts, ts) == {0: NAT_ONE, s: alg.xi[0]}
    # identity element
    w = alg.table.longest
    assert t_multiply(alg, {0: NAT_ONE}, {w: NAT_ONE}) == {w: NAT_ONE}
    # eigen-relation: T_s (T_s + v^{-1}) = v (T_s + v^{-1}) by one-line expansion,
    # and the square of the canonical element picks up the factor v + v^{-1}
    cp = alg.cprime(s)
    assert t_multiply(alg, ts, cp) == {y: c * alg.v[0] for y, c in cp.items()}
    assert t_multiply(alg, cp, cp) == {y: c * (alg.v[0] + alg.vinv[0]) for y, c in cp.items()}


def test_t_multiply_associative_random():
    alg = alg_of("B2")
    rng = random.Random(4)
    for _ in range(15):
        a, b, c = (rand_elem(alg, rng) for _ in range(3))
        lhs = t_multiply(alg, t_multiply(alg, a, b), c)
        rhs = t_multiply(alg, a, t_multiply(alg, b, c))
        assert lhs == rhs


def test_bar_basics():
    alg = alg_of("A1")
    s = alg.table.gen(0)
    assert bar(alg, {0: NAT_ONE}) == {0: NAT_ONE}
    barts = bar(alg, {s: NAT_ONE})
    assert barts == {s: NAT_ONE, 0: -alg.xi[0]}
    # bar(T_s) is indeed T_s^{-1}: their product is T_1
    assert t_multiply(alg, barts, {s: NAT_ONE}) == {0: NAT_ONE}
    assert bar(alg, alg.cprime(s)) == alg.cprime(s)


def test_bar_is_involutive_and_multiplicative():
    alg = alg_of("I2:4")
    rng = random.Random(8)
    for _ in range(10):
        a, b = rand_elem(alg, rng), rand_elem(alg, rng)
        assert bar(alg, bar(alg, a)) == a
        assert bar(alg, t_multiply(alg, a, b)) == t_multiply(alg, bar(alg, a), bar(alg, b))


def test_cprime_base_cases():
    alg = alg_of("A2")
    assert alg.cprime(0) == {0: NAT_ONE}
    s = alg.table.gen(0)
    assert alg.cprime(s) == {s: NAT_ONE, 0: alg.vinv[0]}


def test_cprime_longest_a2():
    """Bar-invariance plus negative support characterize the element, so
    checking those two properties for the closed form is an independent oracle."""
    alg = alg_of("A2")
    w0 = alg.table.longest
    expected = {y: LaurentPoly(1, {(alg.table.length[y] - 3,): 1})
                for y in range(6)}
    assert bar(alg, expected) == expected
    for y, c in expected.items():
        if y != w0:
            assert max(c.terms) < (0,) * c.rank
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
            assert max(c.terms) < (0,) * c.rank
            assert all(isinstance(v, int) for v in c.terms.values())
            assert bruhat_leq(t, y, w)


def test_c_basis_and_bar_invariance():
    alg = alg_of("A2")
    s = alg.table.gen(0)
    assert alg.c_basis(s) == {s: -NAT_ONE, 0: alg.v[0]}
    assert alg.c_basis(0) == {0: NAT_ONE}
    for w in range(6):
        c = alg.c_basis(w)
        assert bar(alg, c) == c


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
        direct = t_multiply(alg, alg.c_basis(x), alg.c_basis(y))
        assert direct == from_c(alg, rows[x][y])


@pytest.mark.parametrize("name,weights,order", [
    ("A3", "equal", None), ("H3", "equal", None), ("B3", "universal", "b-first"),
    ("I2:8", "universal", "b-first"), ("I2:12", '{"0":[1],"1":[2]}', None),
])
def test_generator_rows_match_direct_products(name, weights, order):
    # gen_row reads the rows off the KL correction step; the reference
    # multiplies C_s C_w in the T-basis, and expanding sum_z h_{s,w,z} C_z
    # there compares coordinates, since {C_z} is a basis
    alg = alg_of(name, weights, order)
    for s in range(alg.table.system.ngens):
        cs = alg.c_basis(alg.table.gen(s))
        for w in range(alg.table.size):
            direct = t_multiply(alg, cs, alg.c_basis(w))
            assert direct == from_c(alg, alg.gen_row(s, w))


def stored_polys(alg) -> list:
    """Every polynomial the algebra stores, with repeats: the KL basis, the
    generator rows, the h-table and the C-basis, each built in full."""
    t = alg.table
    out = [c for w in range(t.size) for c in alg.cprime(w).values()]
    out += [h for s in range(t.system.ngens) for w in range(t.size)
            for h in alg.gen_row(s, w).values()]
    out += [h for row in alg.h_rows() for hs in row for h in hs.values()]
    out += [c for w in range(t.size) for c in alg.c_basis(w).values()]
    return out


@pytest.mark.parametrize("name,weights,order", [
    ("A3", "equal", None), ("B2", "universal", "b-first"), ("I2:5", "equal", None),
])
def test_kl_and_h_table_entries_are_nonzero_with_no_zero_coefficient(name, weights, order):
    # the peel, the generator rows and the h-table sum products on term maps;
    # an entry whose sum cancels is dropped and a coefficient that cancels is
    # deleted, as `accumulate` kept no zero
    alg = Session({"system": name, "weights": weights, "order": order}).algebra
    for p in stored_polys(alg):
        assert p.terms and all(p.terms.values())


@pytest.mark.parametrize("name,weights,order", [
    ("A3", "equal", None), ("H3", "equal", None), ("B3", "universal", "b-first"),
    ("I2:12", '{"0":[1],"1":[2]}', None),
])
def test_each_stored_value_is_held_once(name, weights, order):
    alg = Session({"system": name, "weights": weights, "order": order}).algebra
    alg.lr_cells()
    stored = stored_polys(alg)
    assert all(alg._pool[p] is p for p in stored)
    assert len({id(p) for p in stored}) == len(set(stored)) < len(stored)


@pytest.mark.parametrize("cells_first", [True, False])
@pytest.mark.parametrize("name,ascents", [("H3", 180), ("A4", 240)])
def test_each_ascent_is_peeled_once(monkeypatch, name, ascents, cells_first):
    # every peel keeps its row, so the cells and the whole KL basis, in
    # either order, peel each ascent (s, v), sv > v, exactly once
    alg = Session({"system": name}).algebra
    t = alg.table
    calls = []
    peel = HeckeAlgebra._peel

    def counted(self, s, v):
        calls.append((s, v))
        return peel(self, s, v)

    monkeypatch.setattr(HeckeAlgebra, "_peel", counted)
    if cells_first:
        alg.lr_cells()
    for w in range(t.size):
        alg.cprime(w)
    alg.lr_cells()
    assert len(calls) == len(set(calls)) == ascents
    assert all(t.length[t.lmult[v][s]] > t.length[v] for s, v in calls)


@pytest.mark.parametrize("name,peeled", [("H3", 75), ("A4", 72)])
def test_kl_basis_peels_only_where_the_inverse_is_not_shorter(monkeypatch, name, peeled):
    # Cp_u with u^{-1} < u is Cp_{u^{-1}} with its keys inverted; the whole
    # KL basis, with no cells, peels exactly the other u != 1
    alg = Session({"system": name}).algebra
    t = alg.table
    peeled_u = []
    peel = HeckeAlgebra._peel

    def counted(self, s, v):
        peeled_u.append(t.lmult[v][s])
        return peel(self, s, v)

    monkeypatch.setattr(HeckeAlgebra, "_peel", counted)
    for w in range(t.size):
        alg.cprime(w)
    assert peeled_u == [u for u in range(1, t.size) if t.inverse[u] >= u]
    assert len(peeled_u) == peeled


@pytest.mark.parametrize("name,weights,order", [
    ("H3", "equal", None), ("B3", "universal", "b-first"),
    ("I2:12", '{"0":[1],"1":[2]}', None),
])
def test_kl_basis_is_bar_invariant_with_unit_top_and_negative_support(name, weights, order):
    # the defining property of every Cp_w, the ones with keys inverted from
    # Cp_{w^{-1}} included, against the bar reference above
    alg = alg_of(name, weights, order)
    one = LaurentPoly.one(alg.rank)
    inverses = {}
    for w in range(alg.table.size):
        cp = alg.cprime(w)
        assert cp[w] == one
        assert all(max(c.terms) < (0,) * c.rank for y, c in cp.items() if y != w)
        assert bar(alg, cp, inverses) == cp


def reference_h_rows(alg) -> list:
    """The full table by the length recursion on the first left descent s of
    x, C_x = C_s C_{x'} - sum_{u != x} h_{s,x',u} C_u, run for every (x, y)
    on the generator rows `gen_row`, each entry summed by `accumulate`."""
    t = alg.table
    size = t.size
    rows = [[{y: LaurentPoly.one(alg.rank)} for y in range(size)]]
    for x in range(1, size):  # ids run in length order
        s = t.first_left_descent(x)
        xp = t.lmult[x][s]
        if xp == 0:
            rows.append([alg.gen_row(s, y) for y in range(size)])
            continue
        corr = [(u, c) for u, c in alg.gen_row(s, xp).items() if u != x]
        xrows = []
        for y in range(size):
            acc = {}
            for w, hw in rows[xp][y].items():
                for z, hz in alg.gen_row(s, w).items():
                    accumulate(acc, z, hw * hz)
            for u, cu in corr:
                for z, hz in rows[u][y].items():
                    accumulate(acc, z, -(cu * hz))
            xrows.append(acc)
        rows.append(xrows)
    return rows


@pytest.mark.parametrize("name,weights,order", [
    ("A3", "equal", None), ("H3", "equal", None), ("B3", "universal", "b-first"),
    ("B3", "universal", "natural"), ("I2:12", '{"0":[1],"1":[2]}', None),
    ("[[1,2,2],[2,1,2],[2,2,1]]", "universal", "2,0,1"),
])
def test_h_rows_equal_the_recursion_for_every_pair(name, weights, order):
    # h_rows runs the recursion for l(y) >= l(x) and inverts the keys of the
    # row (y^{-1}, x^{-1}) for the others; the reference runs it for all
    alg = alg_of(name, weights, order)
    assert alg.h_rows() == reference_h_rows(alg)


def test_a_value_catches_one_corrupt_entry():
    # h_{x,y,z} and h_{y^-1,x^-1,z^-1} share one polynomial; replacing the
    # first by one of higher degree leaves the second as it was, so
    # a(z) != a(z^{-1})
    alg = Session({"system": "A3"}).algebra
    t = alg.table
    rows = alg.h_rows()
    x, y, z = next((x, y, z) for x in range(t.size) for y in range(t.size)
                   for z in rows[x][y] if t.inverse[z] != z)
    k = 1 + max(g[0] for row in rows for hs in row for h in hs.values() for g in h.terms)
    before = rows[x][y][z]
    partner = rows[t.inverse[y]][t.inverse[x]][t.inverse[z]]
    assert partner == before
    rows[x][y][z] = before + LaurentPoly(1, {(k,): 1, (-k,): 1})
    assert rows[t.inverse[y]][t.inverse[x]][t.inverse[z]] is partner
    assert partner == before
    with pytest.raises(ComputationError,
                       match=re.escape("a(z) != a(z^{-1}): structure constants corrupt")):
        alg.a_value(z)


@pytest.mark.parametrize("name,weights,order", [
    ("H3", "equal", None), ("B3", "universal", "b-first"),
    ("I2:12", '{"0":[1],"1":[2]}', None),
])
def test_kl_basis_rows_and_cells_do_not_depend_on_call_order(name, weights, order):
    config = {"system": name, "weights": weights, "order": order}
    cells_first = Session(config).algebra
    kl_first = Session(config).algebra
    cells = cells_first.lr_cells()
    t = kl_first.table
    cprimes = [kl_first.cprime(w) for w in range(t.size)]
    assert [cells_first.cprime(w) for w in range(t.size)] == cprimes
    for s in range(t.system.ngens):
        for w in range(t.size):
            assert cells_first.gen_row(s, w) == kl_first.gen_row(s, w)
    assert kl_first.lr_cells() == cells


def reference_reach(alg) -> list:
    """reach[w] as a bitmask, by depth-first search from w over the one-step
    relation: y in supp(C_s C_w), and z^{-1} for z in supp(C_s C_{w^{-1}})."""
    t = alg.table
    step = [set() for _ in range(t.size)]
    for w in range(t.size):
        for s in range(t.system.ngens):
            step[w].update(alg.gen_row(s, w))
            step[w].update(t.inverse[z] for z in alg.gen_row(s, t.inverse[w]))
    reach = []
    for w in range(t.size):
        seen, todo = {w}, [w]
        while todo:
            for y in step[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        reach.append(sum(1 << y for y in seen))
    return reach


@pytest.mark.parametrize("name,weights,order", [
    (D4_MATRIX, "equal", None), ("H3", "equal", None), ("B3", "universal", "b-first"),
    ("I2:12", '{"0":[1],"1":[2]}', None),
])
def test_lr_preorder_matches_depth_first_closure(name, weights, order):
    # leq_lr, lambda_order and the phi filtration read the masks themselves
    alg = alg_of(name, weights, order)
    reach, cells, cell_of = alg.lr_cells()
    assert reach == reference_reach(alg)
    for w in range(alg.table.size):
        assert cells[cell_of[w]] == [y for y in range(alg.table.size)
                                     if reach[w] >> y & 1 and reach[y] >> w & 1]


def test_d4_matrix_cells():
    alg = alg_of(D4_MATRIX)
    assert alg.table.size == 192
    _, cells, _ = alg.lr_cells()
    assert len(cells) == 11


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
    gamma = alg.kl_gamma()
    assert gamma.get((0, 0, 0), 0) == 1
    assert gamma.get((s, s, s), 0) == 1
    gamma2 = alg_of("A2").kl_gamma()
    values = {gamma2.get((x, y, z), 0)
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
