"""Enumeration, lengths, descents, conjugacy and weight functions."""

import itertools

import pytest

from conftest import B4_MATRIX, D4_MATRIX, weight_of
from heckecell import coxeter
from heckecell.cli import parse_system
from heckecell.coxeter import (CoxeterSystem, ElementTable, WeightFunction,
                               equal_weights, universal_weights, validate_weights)
from heckecell.errors import InputError
from heckecell.scalars import MonomialOrder, natural_order


def table(name):
    return ElementTable(CoxeterSystem.named(name))


def mult(t, w1: int, w2: int) -> int:
    """The id of w1 w2, along the stored word of w2."""
    acc = w1
    for s in t.word[w2]:
        acc = t.rmult[acc][s]
    return acc


def brute_force_dihedral_order(m):
    """Independent count: words in two involutions with (st)^m = 1."""
    elems = {(0, 0)}  # (rotation mod m, flip)
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for rot, flip in frontier:
            for gen in (0, 1):
                # s = flip, t = rotation-by-one then flip
                if gen == 0:
                    new = ((-rot) % m, 1 - flip)
                else:
                    new = ((1 - rot) % m, 1 - flip)
                if new not in elems:
                    elems.add(new)
                    nxt.append(new)
        frontier = nxt
    return len(elems)


@pytest.mark.parametrize("name,order", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120),
    ("B2", 8), ("B3", 48), ("H3", 120),
])
def test_classical_orders(name, order):
    assert table(name).size == order


@pytest.mark.parametrize("m", range(3, 13))
def test_dihedral_orders_against_brute_force(m):
    t = table(f"I2:{m}")
    assert t.size == brute_force_dihedral_order(m) == 2 * m
    assert t.length[t.longest] == m


def test_a1_lengths():
    t = table("A1")
    assert sorted(t.length) == [0, 1]


def test_enumeration_bound(monkeypatch):
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 10)
    with pytest.raises(InputError, match="not finite, or more than 10 elements"):
        ElementTable(CoxeterSystem.named("B3"))


def test_length_steps_and_descents():
    for name in ("A3", "B3", "I2:7"):
        t = table(name)
        n = t.system.ngens
        for w in range(t.size):
            for s in range(n):
                sw = t.lmult[w][s]
                assert abs(t.length[sw] - t.length[w]) == 1
                assert bool(t.left_descents[w] >> s & 1) == (t.length[sw] < t.length[w])
                # a right descent of w is a left descent of w^{-1}
                ws = t.rmult[w][s]
                assert (bool(t.left_descents[t.inverse[w]] >> s & 1)
                        == (t.length[ws] < t.length[w]))


@pytest.mark.parametrize("system", ["A1", "A2", "A3", "A4", "B2", "B3", "H3"]
                         + [f"I2:{m}" for m in range(3, 13)] + [D4_MATRIX, B4_MATRIX])
def test_element_ids_are_in_length_order(system):
    # HeckeAlgebra.cprime builds Cp in id order and relies on every shorter
    # element having a smaller id
    t = ElementTable(parse_system(system))
    assert t.length == sorted(t.length)
    assert [w for ws in t.by_length for w in ws] == list(range(t.size))


@pytest.mark.parametrize("system", ["A3", "B3", "H3", "I2:7", D4_MATRIX])
def test_left_multiplication_against_words(system):
    t = ElementTable(parse_system(system))
    for w in range(t.size):
        for s in range(t.system.ngens):
            assert t.lmult[w][s] == mult(t, t.gen(s), w)


def test_words_are_reduced_and_inverse_involutive():
    for name in ("A3", "B2", "I2:6"):
        t = table(name)
        for w in range(t.size):
            acc = 0
            for s in t.word[w]:
                acc = t.rmult[acc][s]
            assert acc == w
            assert len(t.word[w]) == t.length[w]
            assert t.inverse[t.inverse[w]] == w
            assert t.length[t.inverse[w]] == t.length[w]
            assert mult(t, w, t.inverse[w]) == 0


def test_multiplication_against_permutation_oracle():
    # A3 = S4 acting by adjacent transpositions
    t = table("A3")
    perms = {0: (0, 1, 2, 3)}
    for w in range(t.size):
        p = (0, 1, 2, 3)
        for s in t.word[w]:
            q = list(p)
            q[s], q[s + 1] = q[s + 1], q[s]
            p = tuple(q)
        perms[w] = p
    assert len(set(perms.values())) == 24
    for w1 in range(24):
        for w2 in range(24):
            composed = tuple(perms[w1][perms[w2][i]] for i in range(4))
            assert perms[mult(t, w1, w2)] == composed


@pytest.mark.parametrize("name", ["A3", "B3", "I2:4", "I2:5", "I2:7", "H3"])
def test_generator_conjugacy_against_brute_force(name):
    t = table(name)
    n = t.system.ngens
    gens = [t.gen(s) for s in range(n)]
    conj = {(i, j): False for i in range(n) for j in range(n)}
    for i, gi in enumerate(gens):
        orbit = {gi}
        frontier = [gi]
        while frontier:
            x = frontier.pop()
            for s in range(n):
                y = t.lmult[t.rmult[x][s]][s]  # s x s
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for j, gj in enumerate(gens):
            conj[(i, j)] = gj in orbit
    classes = t.system.generator_classes()
    for i in range(n):
        for j in range(n):
            same = any(i in c and j in c for c in classes)
            assert conj[(i, j)] == same


def test_universal_weights_examples():
    a2 = CoxeterSystem.named("A2")
    u = universal_weights(a2)
    assert u.rank == 1 and u.values == ((1,), (1,))
    b2 = CoxeterSystem.named("B2")
    u = universal_weights(b2)
    assert u.rank == 2
    assert u.of_gen(0) == (0, 1) and u.of_gen(1) == (1, 0)
    i26 = CoxeterSystem.named("I2:6")
    assert universal_weights(i26).rank == 2
    i25 = CoxeterSystem.named("I2:5")
    assert universal_weights(i25).rank == 1


def test_universal_weights_valid_under_every_priority():
    for name in ("B2", "B3", "I2:6"):
        system = CoxeterSystem.named(name)
        u = universal_weights(system)
        for priority in itertools.permutations(range(u.rank)):
            order = MonomialOrder(u.rank, priority)
            assert validate_weights(system, u, order) == []


def test_weight_violations():
    b2 = CoxeterSystem.named("B2")
    bad = WeightFunction(2, ((0, 1), (0, -1)))
    problems = validate_weights(b2, bad, MonomialOrder(2, (1, 0)))
    assert any("L(s) > 0 fails" in p for p in problems)
    a2 = CoxeterSystem.named("A2")
    uneven = WeightFunction(1, ((1,), (2,)))
    problems = validate_weights(a2, uneven, natural_order(1))
    assert any("conjugate generators" in p for p in problems)


def test_weight_of_longest_element():
    b2 = CoxeterSystem.named("B2")
    t = ElementTable(b2)
    u = universal_weights(b2)
    assert weight_of(u, t, t.longest) == (2, 2)
    e = equal_weights(b2)
    assert weight_of(e, t, t.longest) == (4,)
