"""Structure constants, ring axioms, blocks, and the canonical-basis cross-check."""

import random
from fractions import Fraction

import pytest

from conftest import corrupted_ring, get_session
from heckecell.asymptotic import AsymptoticRing


def test_a1_tables():
    ring = get_session("A1").ring
    assert ring.gamma == {(0, 0, 0): 1, (1, 1, 1): 1}
    assert ring.n_vec == [1, 1]
    assert ring.d_set == [0, 1]
    assert ring.identity_element() == {0: 1, 1: 1}
    assert ring.basis_product(0, 0) == {0: 1}
    assert ring.basis_product(1, 1) == {1: 1}
    assert ring.basis_product(0, 1) == {}


def test_identity_acts_on_every_basis_vector():
    ring = get_session("I2:5").ring
    one = ring.identity_element()
    for x in range(ring.size):
        assert ring.multiply(one, {x: Fraction(1)}) == {x: Fraction(1)}
        assert ring.multiply({x: Fraction(1)}, one) == {x: Fraction(1)}


def test_trace_properties():
    ring = get_session("I2:4").ring
    inverse = ring.alg.table.inverse
    assert ring.trace({0: Fraction(1)}) == ring.n_vec[0]
    for x in range(8):
        for y in range(8):
            want = Fraction(1) if x == y else Fraction(0)
            assert ring.trace(ring.basis_product(x, inverse[y])) == want
    rng = random.Random(19)
    for _ in range(20):
        a = {rng.randrange(8): Fraction(rng.randrange(-4, 5)) for _ in range(2)}
        b = {rng.randrange(8): Fraction(rng.randrange(-4, 5)) for _ in range(2)}
        assert ring.trace(ring.multiply(a, b)) == ring.trace(ring.multiply(b, a))
    # tau(1 . t_w) = n_{w^{-1}}
    one = ring.identity_element()
    for w in range(8):
        assert ring.trace(ring.multiply(one, {w: Fraction(1)})) == ring.n_vec[inverse[w]]


def test_distinguished_set_a2():
    ring = get_session("A2").ring
    assert len(ring.d_set) == 4
    assert ring.d_set == [0, 1, 2, 5]


def test_blocks():
    ring = get_session("A1").ring
    assert ring.blocks == [[0], [1]]
    ring2 = get_session("A2").ring
    _, cells, _ = get_session("A2").algebra.lr_cells()
    assert ring2.blocks == cells
    # ideals: gamma is supported inside single blocks, so t_x t_w stays in the
    # linear span of the block of w
    ring4 = get_session("I2:4").ring
    for w in range(8):
        bw = ring4.block_of[w]
        for x in range(8):
            prod = ring4.basis_product(x, w)
            assert all(ring4.block_of[z] == bw for z in prod)


@pytest.mark.parametrize("name,weights,order", [
    ("A1", "equal", None),
    ("I2:7", "equal", None),
    ("B2", "universal", "b-first"),
])
def test_verify_ring(name, weights, order):
    session = get_session(name, weights, order)
    report = session.ring.verify(seed=0)
    assert report.ok, report.summary()


def test_corrupted_table_detected():
    session = get_session("A2")
    ring = AsymptoticRing(session.algebra, session.tensors)
    key = next(iter(ring.gamma))
    ring.gamma = dict(ring.gamma)
    ring.gamma[key] = ring.gamma[key] + 1
    report = ring.verify(seed=0)
    assert not report.ok


@pytest.mark.parametrize("name", ["A2", "B2"])
@pytest.mark.parametrize("check", ["associativity", "two-sided identity", "gamma/n duality"])
def test_row_indexed_checks_detect_a_corrupted_entry(name, check):
    report = corrupted_ring(get_session(name)).verify(seed=0)
    assert report.checks["gamma symmetries"] == []
    assert report.checks[check]


@pytest.mark.parametrize("name,weights,order", [
    ("A2", "equal", None),
    ("I2:6", "universal", "b-first"),
    ("B2", "universal", "b-first"),
])
def test_gamma_equals_canonical_side(name, weights, order):
    session = get_session(name, weights, order)
    report = session.ring.compare_with_kl()
    assert report.ok, report.summary()


def test_choice_independence_b2():
    from heckecell.reps import (dihedral_rep, leading_tensor, one_dim_rep,
                                schur_data)
    session = get_session("B2")
    alg = session.algebra
    base = session.ring
    fam = [one_dim_rep(alg, s) for s in ([1, 1], [-1, -1], [1, -1], [-1, 1])]
    fam.append(dihedral_rep(alg, 1))
    tens = [leading_tensor(r, schur_data(r)) for r in fam]
    other = AsymptoticRing(alg, tens)
    # identical values; labels differ between the two families
    base_by_key = dict(base.gamma)
    other_by_key = dict(other.gamma)
    assert base_by_key == other_by_key
    assert base.n_vec == other.n_vec and base.d_set == other.d_set


def test_gamma_integrality_crystallographic():
    for name in ("A2", "B2"):
        ring = get_session(name).ring
        assert all(Fraction(g).denominator == 1 for g in ring.gamma.values())


def test_gamma_denominators_powers_of_two_b2():
    for weights, order in (("equal", None), ("universal", "b-first")):
        ring = get_session("B2", weights, order).ring
        for g in ring.gamma.values():
            den = Fraction(g).denominator
            assert den & (den - 1) == 0
