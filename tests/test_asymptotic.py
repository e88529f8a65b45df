"""Structure constants, ring axioms, blocks, and the canonical-basis cross-check."""

import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import (corrupted_ring, edited_leading_session, f_mat_mul, get_session,
                      own_leading_tensor, ring_trace)
from heckecell.asymptotic import AsymptoticRing
from heckecell.cli import Session
from heckecell.errors import VerificationError
from heckecell.fields import CycloNumber, ProductPacking
from heckecell.matrices import f_inverse, f_nonzero
from heckecell.reps import verify_schur_relations
from heckecell.scalars import exp_neg, int_if_integral, scalar_inverse


def test_a1_tables():
    ring = get_session("A1").ring
    assert ring.gamma == {(0, 0, 0): 1, (1, 1, 1): 1}
    assert ring.n_vec == [1, 1]
    assert ring.d_set == [0, 1]
    assert ring.identity_element() == {0: 1, 1: 1}
    assert ring.multiply({0: 1}, {0: 1}) == {0: 1}
    assert ring.multiply({1: 1}, {1: 1}) == {1: 1}
    assert ring.multiply({0: 1}, {1: 1}) == {}


@pytest.mark.parametrize("name", ["A2", "I2:5"])
def test_ring_rejects_an_incomplete_family(name):
    """The ring and the Schur check share one completeness rule: the squared
    dimensions of the family sum to |W|."""
    session = get_session(name)
    alg, tensors = session.algebra, session.tensors
    size = alg.table.size
    assert sum(t.dim * t.dim for t in tensors) == size
    for family in (tensors[1:], tensors + tensors[:1], []):
        total = sum(t.dim * t.dim for t in family)
        message = f"missing irreducibles: sum of squared dimensions {total} != group order {size}"
        with pytest.raises(VerificationError, match=f"^{message}$"):
            AsymptoticRing(alg, family)
        with pytest.raises(VerificationError, match=f"^{message}$"):
            verify_schur_relations(alg, family)


def test_identity_acts_on_every_basis_vector():
    ring = get_session("I2:5").ring
    one = ring.identity_element()
    for x in range(ring.size):
        assert ring.multiply(one, {x: Fraction(1)}) == {x: Fraction(1)}
        assert ring.multiply({x: Fraction(1)}, one) == {x: Fraction(1)}


def test_trace_properties():
    ring = get_session("I2:4").ring
    inverse = ring.alg.table.inverse
    assert ring_trace(ring, {0: Fraction(1)}) == ring.n_vec[0]
    for x in range(8):
        for y in range(8):
            want = Fraction(1) if x == y else Fraction(0)
            assert ring_trace(ring, ring.multiply({x: 1}, {inverse[y]: 1})) == want
    rng = random.Random(19)
    for _ in range(20):
        a = {rng.randrange(8): Fraction(rng.randrange(-4, 5)) for _ in range(2)}
        b = {rng.randrange(8): Fraction(rng.randrange(-4, 5)) for _ in range(2)}
        assert ring_trace(ring, ring.multiply(a, b)) == ring_trace(ring, ring.multiply(b, a))
    # tau(1 . t_w) = n_{w^{-1}}
    one = ring.identity_element()
    for w in range(8):
        assert ring_trace(ring, ring.multiply(one, {w: Fraction(1)})) == ring.n_vec[inverse[w]]


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
            prod = ring4.multiply({x: 1}, {w: 1})
            assert all(ring4.block_of[z] == bw for z in prod)


@pytest.mark.parametrize("name,weights,order", [
    ("A1", "equal", None),
    ("I2:7", "equal", None),
    ("B2", "universal", "b-first"),
])
def test_verify_ring(name, weights, order):
    session = get_session(name, weights, order)
    report = session.ring.verify()
    assert report.ok, report.summary()


def test_corrupted_table_detected():
    session = get_session("A2")
    ring = AsymptoticRing(session.algebra, session.tensors)
    key = next(iter(ring.gamma))
    ring.gamma = dict(ring.gamma)
    ring.gamma[key] = ring.gamma[key] + 1
    report = ring.verify()
    assert not report.ok


@pytest.mark.parametrize("name", ["A2", "B2"])
@pytest.mark.parametrize("check", ["associativity", "two-sided identity", "gamma/n duality"])
def test_row_indexed_checks_detect_a_corrupted_entry(name, check):
    report = corrupted_ring(get_session(name)).verify()
    assert report.checks["gamma symmetries"] == []
    assert report.checks[check]


def reference_trace_dual_bases(ring) -> list:
    """trace(t_x t_{y^-1}) = delta_{x,y} one pair at a time: the reference
    for "trace dual bases", which the check reads off the duality pass."""
    inverse = ring.alg.table.inverse
    rows = ring.gamma_rows()
    bad = []
    for x in range(ring.size):
        for y in range(ring.size):
            want = 1 if x == y else 0
            if ring_trace(ring, ring.multiply({x: 1}, {inverse[y]: 1}, rows)) != want:
                bad.append(f"trace dual-basis fails at ({x},{y})")
    return bad


@pytest.mark.parametrize("name", ["I2:5", "B2", "A3", "I2:9"])
def test_trace_dual_bases_agrees_with_the_per_pair_trace(name):
    """gamma + 1 at eight keys spread over the table and n + 1 at three
    elements, one at a time: the report is the per-pair loop's."""
    session = get_session(name)
    keys = sorted(session.ring.gamma)
    rings = [corrupted_ring(session, k) for k in keys[::max(1, len(keys) // 8)][:8]]
    for w in (0, 1, session.table.size - 1):
        ring = AsymptoticRing(session.algebra, session.tensors)
        ring.n_vec = list(ring.n_vec)
        ring.n_vec[w] += 1
        rings.append(ring)
    failing = 0
    for ring in rings:
        want = reference_trace_dual_bases(ring)
        assert ring.verify().checks["trace dual bases"] == want
        failing += bool(want)
    assert 0 < failing < len(rings)


def dense_gamma_equality(ring) -> list:
    """Reference for "gamma equality": the loop over every (x, y, z), with
    gamma on the KL side read straight from the h-table and the a-values."""
    alg = ring.alg
    rows, inverse = alg.h_rows(), alg.table.inverse
    bad = []
    for x in range(ring.size):
        for y in range(ring.size):
            for z in range(ring.size):
                h = rows[x][y].get(inverse[z])
                kl = 0 if h is None else h.terms.get(exp_neg(alg.a_value(z)), 0)
                ours = ring.gamma.get((x, y, z), Fraction(0))
                if ours != kl:
                    bad.append(f"gamma mismatch at ({x},{y},{z}): reps {ours} vs kl {kl}")
    return bad


@pytest.mark.parametrize("name,weights,order", [
    ("A2", "equal", None),
    ("I2:6", "universal", "b-first"),
    ("B2", "universal", "b-first"),
    ("A3", "equal", None),
    ("I2:5", "equal", None),
])
def test_gamma_equals_canonical_side(name, weights, order):
    session = get_session(name, weights, order)
    report = session.ring.compare_with_kl()
    assert report.ok, report.summary()
    assert dense_gamma_equality(session.ring) == []


@pytest.mark.parametrize("fault,expected", [
    ("edited", ["gamma mismatch at (1,1,1): reps 2 vs kl 1"]),
    ("deleted", ["gamma mismatch at (3,4,1): reps 0 vs kl 1"]),
    ("ring-only", ["gamma mismatch at (0,0,1): reps 1 vs kl 0"]),
    ("all three", ["gamma mismatch at (0,0,1): reps 1 vs kl 0",
                   "gamma mismatch at (1,1,1): reps 2 vs kl 1",
                   "gamma mismatch at (3,4,1): reps 0 vs kl 1"]),
])
def test_gamma_equality_lists_each_fault_like_the_dense_loop(fault, expected):
    session = Session({"system": "A2"})
    ring = AsymptoticRing(session.algebra, session.tensors)
    # compared once before the edit, so a comparison that cached either
    # side would miss it
    ring.compare_with_kl()
    ring.gamma = dict(ring.gamma)
    if fault in ("edited", "all three"):
        ring.gamma[(1, 1, 1)] += 1
    if fault in ("deleted", "all three"):
        del ring.gamma[(3, 4, 1)]
    if fault in ("ring-only", "all three"):
        assert (0, 0, 1) not in session.algebra.kl_gamma()
        ring.gamma[(0, 0, 1)] = Fraction(1)
    report = ring.compare_with_kl()
    assert report.checks["gamma equality"] == expected
    assert dense_gamma_equality(ring) == expected
    assert report.checks["a-value link"] == []


def test_a_value_link_lists_an_edited_a():
    session = Session({"system": "A2"})
    tensors = list(session.tensors)
    k = next(i for i, t in enumerate(tensors) if t.label == "A:(2, 1)")
    t = tensors[k]
    tensors[k] = dataclasses.replace(t, a=(t.a[0] + 1,))
    report = AsymptoticRing(session.algebra, tensors).compare_with_kl()
    assert report.checks["gamma equality"] == []
    assert sorted(report.checks["a-value link"]) == sorted(
        f"a({w}) != a-invariant of A:(2, 1)" for w in t.entries)
    assert len(t.entries) == 4


def test_choice_independence_b2():
    from heckecell.reps import dihedral_rep, one_dim_rep
    session = get_session("B2")
    alg = session.algebra
    base = session.ring
    fam = [one_dim_rep(alg, s) for s in ([1, 1], [-1, -1], [1, -1], [-1, 1])]
    fam.append(dihedral_rep(alg, 1))
    tens = [own_leading_tensor(r) for r in fam]
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


@pytest.mark.parametrize("name,weights,order", [
    ("I2:9", "equal", None),
    ("I2:11", "equal", None),
    ("I2:12", "equal", None),
    ("B3", "universal", "b-first"),
])
def test_gamma_and_n_are_stored_as_ints(name, weights, order):
    """Every gamma and n_d here is a rational integer, which the ring stores
    as an int even over a field of degree above one."""
    ring = get_session(name, weights, order).ring
    assert all(type(g) is int for g in ring.gamma.values())
    assert all(type(c) is int for c in ring.n_vec)
    assert ring.d_set and all(ring.n_vec[d] in (1, -1) for d in ring.d_set)


def test_narrowed_ring_checks_detect_an_edited_gamma():
    """I2:9 has 18 elements, above the size at which the bimodule check
    takes the name "(100000 samples)"; gamma + 1 at a key with x != y breaks
    the cyclic symmetry too."""
    from heckecell.cellular import verify_bimodule_identity
    session = get_session("I2:9")
    ring = AsymptoticRing(session.algebra, session.tensors)
    assert ring.size > 16
    key = next(k for k in ring.gamma if k[0] != k[1])
    ring.gamma = dict(ring.gamma)
    ring.gamma[key] += 1
    assert type(ring.gamma[key]) is int
    report = ring.verify()
    assert report.checks["gamma symmetries"]
    assert report.checks["associativity"]
    bimodule = verify_bimodule_identity(session.algebra, ring)
    assert bimodule.checks["bimodule identity (100000 samples)"]


def reference_associativity(ring) -> list:
    """(t_x t_y) t_z against t_x (t_y t_z) one triple at a time, over every
    triple: the reference for the accumulated "associativity" check."""
    rows = ring.gamma_rows()
    size = ring.size
    bad = []
    for x in range(size):
        for y in range(size):
            for z in range(size):
                lhs = ring.multiply(ring.multiply({x: 1}, {y: 1}, rows), {z: 1}, rows)
                rhs = ring.multiply({x: 1}, ring.multiply({y: 1}, {z: 1}, rows), rows)
                if lhs != rhs:
                    bad.append(f"associativity fails at ({x},{y},{z})")
    return bad


ASSOC_SYSTEMS = [("I2:5", "equal", None), ("B2", "equal", None), ("A3", "equal", None),
                 ("I2:8", "equal", None), ("I2:9", "equal", None), ("B2", "universal", "b-first")]


@pytest.mark.parametrize("name,weights,order", ASSOC_SYSTEMS)
def test_associativity_agrees_with_the_per_triple_reference(name, weights, order):
    """gamma + 1, one key at a time, at four keys of each table and at two
    keys outside it; the report must be the reference's whole failing set,
    sorted, from the default call and whatever `exhaustive_max` and
    `random_triples`, which the check no longer reads. A key outside the table can make t_x (t_y t_w) nonzero
    where t_x t_y = 0, which only a right-hand side summed over every y
    sees. Some edits keep the ring associative (on a one-element block
    gamma_{x,x,x} + 1 scales t_x), but not all six."""
    session = get_session(name, weights, order)
    gamma, size = session.ring.gamma, session.ring.size
    rng = random.Random(7)
    keys = rng.sample(sorted(gamma), 4)
    while len(keys) < 6:
        key = (rng.randrange(size), rng.randrange(size), rng.randrange(size))
        if key not in gamma and key not in keys:
            keys.append(key)
    failing = 0
    for key in keys:
        ring = corrupted_ring(session, key)
        want = reference_associativity(ring)
        for kwargs in ({}, {"exhaustive_max": 0, "random_triples": 2000}):
            assert ring.verify(**kwargs).checks["associativity"] == want
        failing += bool(want)
    assert failing


@pytest.mark.parametrize("name,weights,order", [
    ("I2:9", "equal", None), ("A3", "equal", None), ("B3", "universal", "b-first"),
])
def test_passing_associativity_check_draws_nothing(name, weights, order):
    """Above 16 elements a passing check reports no triple."""
    ring = get_session(name, weights, order).ring
    assert ring.size > 16
    assert ring.verify().checks["associativity"] == []


# Pairs (x, y) at which the representation property of dihedral:1 fails after
# each edit of `edited_leading_session`.
EDITED_REP_PAIRS = {
    "zero": [(1, 3), (1, 5), (1, 7), (2, 1), (3, 1), (3, 4), (5, 5), (6, 1), (7, 1), (7, 8)],
    "nonzero": [(1, 1), (1, 3), (1, 5), (1, 7), (3, 4), (4, 1), (5, 1), (5, 5), (7, 8), (8, 1)],
}


@pytest.mark.parametrize("edit", ["zero", "nonzero"])
def test_irreducible_representations_detect_an_edited_leading_entry(edit):
    report = edited_leading_session(edit).ring.verify()
    assert report.checks["irreducible representations"] == [
        f"representation property fails for dihedral:1 at ({x},{y})"
        for x, y in EDITED_REP_PAIRS[edit]]
    # gamma was built before the edit, so the ring axioms still hold
    assert report.checks["associativity"] == []


def reference_rep_violations(ring) -> list:
    """The representation property M_x M_y = sum_z gamma_{x,y,z} M_{z^{-1}}
    tested densely for every representation and every (x, y) of W, blocks
    ignored; the reference for the block walk of `AsymptoticRing.verify`."""
    inverse = ring.alg.table.inverse
    by_pair: dict = {}
    for (x, y, z), g in ring.gamma.items():
        by_pair.setdefault((x, y), []).append((z, g))
    bad = []
    for t in ring.tensors:
        zero = [[Fraction(0)] * t.dim for _ in range(t.dim)]
        mats = [t.matrix(w) for w in range(ring.size)]
        for x in range(ring.size):
            for y in range(ring.size):
                rhs = [row[:] for row in zero]
                for z, g in by_pair.get((x, y), ()):
                    mz = mats[inverse[z]]
                    for i in range(t.dim):
                        for j in range(t.dim):
                            rhs[i][j] += g * mz[i][j]
                if f_mat_mul(mats[x], mats[y]) != rhs:
                    bad.append(f"representation property fails for {t.label} at ({x},{y})")
    return bad


def test_irreducible_representations_walk_every_pair_of_a_large_block():
    """I2:12's middle block has 22 elements: every pair of it is checked."""
    ring = edited_leading_session("zero", "I2:12").ring
    assert max(map(len, ring.blocks)) == 22
    bad = ring.verify().checks["irreducible representations"]
    assert bad and bad == reference_rep_violations(ring)


def dense_gamma(ring) -> dict:
    """gamma by the dense formula: every (x, y, z) of each block and every
    matrix entry, emitted block by block in x, y, z order. The reference for
    the nonzero walk of `AsymptoticRing._build_gamma`."""
    gamma = {}
    for bi, block in enumerate(ring.blocks):
        tens = [(t, scalar_inverse(t.f)) for t in ring.tensors
                if ring.block_of_label[t.label] == bi]
        for x in block:
            for y in block:
                prods = [(t, fi, f_mat_mul(t.matrix(x), t.matrix(y))) for t, fi in tens
                         if x in t.entries and y in t.entries]
                for z in block:
                    acc = Fraction(0)
                    for t, fi, pxy in prods:
                        if z in t.entries:
                            mz = t.matrix(z)
                            acc = acc + fi * sum((pxy[i][k] * mz[k][i] for i in range(t.dim)
                                                  for k in range(t.dim) if pxy[i][k]),
                                                 Fraction(0))
                    if acc:
                        gamma[(x, y, z)] = acc
    return gamma


def conjugated(t, p=None):
    """t with every leading matrix M replaced by P M P^{-1}, by default
    P = I + (all ones). Neither P nor P^{-1} has a zero entry, so a
    single-entry M becomes dense."""
    if p is None:
        p = [[Fraction(2 if i == j else 1) for j in range(t.dim)] for i in range(t.dim)]
    pinv, _ = f_inverse(p)
    return dataclasses.replace(t, entries={
        w: f_nonzero(f_mat_mul(f_mat_mul(p, t.matrix(w)), pinv)) for w in t.entries})


def wide(dim: int) -> list:
    """P = I + 10^12 (all ones) with the entry (0, dim-1) replaced by 1/7:
    large coordinates over a denominator D != 1 in the packed sums."""
    p = [[Fraction(int(i == j) + 10 ** 12) for j in range(dim)] for i in range(dim)]
    p[0][dim - 1] = Fraction(1, 7)
    return p


def assert_dense_formula_agrees(session, tens):
    assert all(len(ents) == t.dim ** 2 for t in tens for ents in t.entries.values())
    ring = AsymptoticRing(session.algebra, tens)
    assert list(ring.gamma.items()) == list(dense_gamma(ring).items())
    # the trace is invariant under conjugation
    assert ring.gamma == session.ring.gamma
    assert ring.n_vec == session.ring.n_vec
    report = ring.verify()
    assert report.ok, report.summary()
    assert verify_schur_relations(session.algebra, tens) == []


@pytest.mark.parametrize("name,weights,order", [
    ("I2:7", "equal", None),
    ("B2", "universal", "b-first"),
    ("A3", "equal", None),
    ("I2:11", "equal", None),
    ("I2:12", "universal", "b-first"),
    ("I2:12", '{"0":[1],"1":[2]}', None),
])
def test_dense_leading_matrices_agree_with_the_dense_formula(name, weights, order):
    session = get_session(name, weights, order)
    assert_dense_formula_agrees(session, [conjugated(t) for t in session.tensors])


@pytest.mark.parametrize("name", ["I2:7", "A3"])
def test_a_wide_conjugation_agrees_with_the_dense_formula(name):
    """Leading entries with coordinates near 10^24 over denominators that
    carry the 7 of P: the packing widths grow with them, and every sum is
    still exact."""
    session = get_session(name)
    tens = [conjugated(t, wide(t.dim)) for t in session.tensors]
    assert any((c.den if isinstance(c, CycloNumber) else c.denominator) % 7 == 0
               for t in tens for ents in t.entries.values() for _, _, c in ents)
    assert_dense_formula_agrees(session, tens)


@pytest.mark.parametrize("name,weights,order", [
    ("I2:9", "equal", None),
    ("I2:10", "equal", None),
    ("I2:11", "equal", None),
    ("I2:12", "equal", None),
    ("I2:12", "universal", "b-first"),
    ("B3", "universal", "b-first"),
    ("A3", "equal", None),
])
def test_gamma_keeps_the_dense_key_order(name, weights, order):
    ring = get_session(name, weights, order).ring
    assert list(ring.gamma.items()) == list(dense_gamma(ring).items())


@pytest.mark.parametrize("name,weights,order", [
    ("B3", "universal", "b-first"),
    ("A3", "equal", None),
])
def test_rational_unpack_is_the_narrowed_quotient(monkeypatch, name, weights, order):
    """Over Q, `ProductPacking.unpack` divides the one digit by D^k: every
    value it returns in the J build and both Schur families equals the
    Fraction quotient and hashes like it, in the narrowest type, an int when
    it is integral and a Fraction otherwise."""
    session = get_session(name, weights, order)
    assert session.algebra.table.field.degree == 1
    seen = []
    unpack = ProductPacking.unpack

    def recording(packing, n):
        got = unpack(packing, n)
        seen.append((packing, n, got))
        return got

    monkeypatch.setattr(ProductPacking, "unpack", recording)
    ring = AsymptoticRing(session.algebra, session.tensors)
    assert verify_schur_relations(session.algebra, session.tensors) == []
    dense = dense_gamma(ring)
    assert list(ring.gamma.items()) == list(dense.items())
    assert [type(g) for g in ring.gamma.values()] == [type(int_if_integral(g)) for g in dense.values()]
    assert any(n for _, n, _ in seen)
    for packing, n, got in seen:
        want = Fraction(n, packing._scale)
        assert got == want and hash(got) == hash(want)
        assert type(got) is (int if want.denominator == 1 else Fraction)
