"""B-matrices, the partial order, cellular basis axioms, the homomorphism
into the asymptotic ring, the bimodule identity, and weight specialization."""

import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest

from conftest import constant_form, corrupted_ring, edited_leading_session, get_session
from heckecell import cellular
from heckecell.asymptotic import AsymptoticRing, Report
from heckecell.cellular import (b_matrix, hecke_to_asym, lambda_order, specialize_datum,
                                verify_bimodule_identity, verify_cell_datum,
                                verify_phi, verify_specialized)
from heckecell.cli import parse_weights
from heckecell.errors import ComputationError, VerificationError
from heckecell.hecke import HeckeAlgebra
from heckecell.matrices import KMatrix, f_inverse
from heckecell.scalars import LaurentPoly, accumulate, natural_order, scalar_inverse


def test_b_matrices_i2_equal():
    for m in (4, 5, 6):
        session = get_session(f"I2:{m}")
        field = session.table.field
        jmax = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
        for j in range(1, jmax + 1):
            label = f"dihedral:{j}"
            b = session.balanced[label]
            beta = b_matrix(b.gram, b.tensor, session.algebra)
            assert beta[0][0] == field.two_cos(j, m) + 2
            assert beta[1][1] == 1 and beta[0][1] == 0


def test_b_matrix_detects_an_edited_leading_entry():
    session = edited_leading_session("zero")
    b = session.balanced["dihedral:1"]
    with pytest.raises(VerificationError,
                       match=r"constant form of dihedral:1 fails intertwining at 1$"):
        b_matrix(b.gram, b.tensor, session.algebra)


@pytest.mark.parametrize("rows,message", [
    ([[1, 1], [0, 1]], "is not symmetric"),
    ([[-1, 0], [0, 1]], r"is not positive-definite \(minor 1\)"),
    ([[1, 2], [2, 1]], r"is not positive-definite \(minor 2\)"),
])
def test_b_matrix_rejects_a_constant_form_that_is_not_symmetric_positive(rows, message):
    session = get_session("I2:5")
    with pytest.raises(VerificationError, match=f"constant form of dihedral:1 {message}$"):
        b_matrix(constant_form(rows), session.balanced["dihedral:1"].tensor, session.algebra)


def test_lambda_order_a2():
    session = get_session("A2")
    leq = lambda_order(session.algebra, session.ring)
    sgn, refl, ind = "A:(1, 1, 1)", "A:(2, 1)", "A:(3,)"
    assert leq[(sgn, refl)] and leq[(refl, ind)] and leq[(sgn, ind)]
    assert not leq[(ind, refl)] and not leq[(refl, sgn)]


@pytest.mark.parametrize("name", ["A2", "B2", "I2:5", "I2:6"])
def test_strict_order_reverses_a_invariants(name):
    session = get_session(name)
    datum = session.datum
    a_of = {t.label: t.a for t in session.ring.tensors}  # stored exponents
    for la in datum.labels:
        for mu in datum.labels:
            if la != mu and datum.leq[(la, mu)]:
                assert a_of[mu] < a_of[la]


def test_a1_cellular_elements():
    session = get_session("A1")
    datum = session.datum
    labels = sorted(datum.labels)
    elems = {k: dict(v) for k, v in datum.elements.items()}
    assert elems[("A:(2,)", 0, 0)] == {0: Fraction(1)}
    assert elems[("A:(1, 1)", 0, 0)] == {1: Fraction(1)}


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "I2:5", "I2:7"])
def test_cell_datum_axioms(name):
    session = get_session(name)
    report = verify_cell_datum(session.datum)
    assert report.ok, report.summary()


def test_fault_injection_breaks_c3():
    import copy
    session = get_session("A2")
    datum = session.datum
    broken = copy.copy(datum)
    broken.elements = dict(datum.elements)
    k1 = ("A:(3,)", 0, 0)
    k2 = ("A:(1, 1, 1)", 0, 0)
    broken.elements[k1], broken.elements[k2] = broken.elements[k2], broken.elements[k1]
    report = verify_cell_datum(broken)
    assert not report.ok
    assert report.checks["C3 left action"]


def test_c1_detects_a_singular_basis_and_c3_is_not_checked():
    import dataclasses
    datum = get_session("A2").datum
    elements = dict(datum.elements)
    elements[("A:(3,)", 0, 0)] = elements[("A:(1, 1, 1)", 0, 0)]
    report = verify_cell_datum(dataclasses.replace(datum, elements=elements))
    assert report.checks["C1 basis"] == ["transition matrix to the canonical basis is singular"]
    assert report.checks["C3 left action"] == [
        "C3 not checked: transition matrix to the canonical basis is singular"]


def test_c1_detects_a_missing_cell_and_c3_is_not_checked():
    import dataclasses
    datum = get_session("A2").datum
    report = verify_cell_datum(dataclasses.replace(datum, labels=datum.labels[1:]))
    assert report.checks["C1 basis"] == ["basis has 5 elements for group order 6"]
    assert report.checks["C3 left action"] == [
        "C3 not checked: basis has 5 elements for group order 6"]


def test_c1_detects_a_basis_over_f_that_is_not_one_over_r():
    """On I2:5, C^{onedim:++}_{0,0} times 3 keeps a basis over F, the star
    axiom and C3, but the determinant gains the factor 3, which is not a
    unit of R = Z[d][1/p : p in invertible_primes]."""
    import dataclasses
    datum = get_session("I2:5").datum
    assert 3 not in datum.invertible_primes
    key = ("onedim:++", 0, 0)
    elements = dict(datum.elements)
    elements[key] = {w: 3 * c for w, c in elements[key].items()}
    report = verify_cell_datum(dataclasses.replace(datum, elements=elements))
    (bad,) = report.checks["C1 basis"]
    assert bad.startswith("transition determinant ")
    assert bad.endswith(f" is not a unit of Z[d][1/p : p in {sorted(datum.invertible_primes)}]")
    assert report.checks["C2 star"] == [] and report.checks["C3 left action"] == []


# -- C1 and C3 from the closed-form inverse, against one elimination ---------------


def ts_times_element(alg, s: int, coeffs: dict) -> dict:
    """T_s * (sum_w c_w C_w) in C-basis coordinates, as LaurentPolys."""
    out = {}
    for w, c in coeffs.items():
        accumulate(out, w, alg.v[s].scale(c))
        for z, h in alg.gen_row(s, w).items():
            accumulate(out, z, h.scale(-c))
    return out


def to_cell_coords(inv_rows, prod: dict, keys) -> dict:
    """Express coordinates prod (w -> LaurentPoly) in the cellular basis, given
    the dense rows of the inverse transition matrix."""
    out = {}
    for w, poly in prod.items():
        row = inv_rows[w]
        for ki, key in enumerate(keys):
            c = row[ki]
            if c:
                accumulate(out, key, c * poly)
    return out


def reference_cell_datum(datum) -> dict:
    """The checks of `verify_cell_datum` by one elimination of the whole
    transition matrix, with C3 summed on LaurentPolys (`to_cell_coords`
    over the dense inverse rows); the coordinates are listed in key order."""
    alg = datum.alg
    size = alg.table.size
    keys = cellular._cell_keys(datum)
    bad, inv = [], None
    if len(keys) != size:
        bad.append(f"basis has {len(keys)} elements for group order {size}")
    else:
        try:
            inv, det = f_inverse(transition_matrix(datum))
        except ComputationError:
            bad.append("transition matrix to the canonical basis is singular")
        else:
            bad += cellular._unit_violations(alg.table.field, det, datum.invertible_primes,
                                             "transition determinant")

    report = Report()
    report.record("C1 basis", bad)
    report.record("C2 star", cellular._star_violations(datum))
    report.record("C3 left action", cellular._c3_violations(datum, reference_coords(datum, inv))
                  if inv is not None else [f"C3 not checked: {bad[0]}"])
    return report.checks


def reference_coords(datum, inv):
    """coords(s, key) on LaurentPolys: T_s times the element, expressed
    through the dense inverse rows `inv` by `to_cell_coords`, in key order."""
    keys = cellular._cell_keys(datum)
    index = {key: k for k, key in enumerate(keys)}

    def coords(s, key):
        found = to_cell_coords(
            inv, ts_times_element(datum.alg, s, datum.elements[key]), keys)
        return dict(sorted(found.items(), key=lambda item: index[item[0]]))

    return coords


def transition_matrix(datum) -> list:
    """P[key][w], the coefficient of C_w in the element `key`, dense."""
    return [[datum.elements[key].get(w, 0) for w in range(datum.alg.table.size)]
            for key in cellular._cell_keys(datum)]


def eliminated_rows(datum) -> list:
    """The nonzero entries of each row of the transition matrix's inverse,
    from `f_inverse`: u -> {key index: entry}."""
    inv, _ = f_inverse(transition_matrix(datum))
    return [{k: c for k, c in enumerate(row) if c} for row in inv]


def certified(datum):
    """`_certified_coords` on the datum's own Q and invertible primes."""
    keys = cellular._cell_keys(datum)
    return cellular._certified_coords(datum, keys, cellular._closed_form_rows(datum, keys),
                                      datum.invertible_primes)


def scaled_element(datum, key, factor):
    """A copy of the datum with the element `key` times `factor`."""
    elements = dict(datum.elements)
    elements[key] = {w: factor * c for w, c in elements[key].items()}
    return dataclasses.replace(datum, elements=elements)


def single_coefficient_edits(datum) -> list:
    """A copy of the datum for each (key, w) in a key's support, with the
    coefficient of C_w in that element raised by one."""
    edits = []
    for key in cellular._cell_keys(datum):
        for w in datum.elements[key]:
            elements = dict(datum.elements)
            elements[key] = dict(elements[key])
            elements[key][w] = elements[key][w] + 1
            edits.append(dataclasses.replace(datum, elements=elements))
    return edits


CLOSED_FORM_SYSTEMS = [
    ("A2", "equal", None), ("A3", "equal", None), ("B2", "equal", None),
    ("B2", "universal", "b-first"), ("I2:5", "equal", None), ("I2:9", "equal", None),
    ("I2:11", "equal", None), ("I2:12", "universal", "b-first"),
    ("I2:12", '{"0":[1],"1":[2]}', None), ("B3", "universal", "b-first"),
    ("B3", "universal", "natural"), ("B3", '{"0":[1],"1":[2],"2":[2]}', None),
    ("A4", "equal", None),
]


@pytest.mark.parametrize("name,weights,order", CLOSED_FORM_SYSTEMS)
def test_closed_form_inverse_equals_the_eliminated_rows(name, weights, order):
    """Q[u][(lam,s,t)] = f^-1 (M_u beta^-1)[s][t] is certified and is the
    inverse that one elimination finds, entry for entry."""
    datum = get_session(name, weights, order).datum
    keys = cellular._cell_keys(datum)
    rows = cellular._closed_form_rows(datum, keys)
    assert [dict(row) for row in rows] == eliminated_rows(datum)
    assert certified(datum) is not None
    assert verify_cell_datum(datum).checks == reference_cell_datum(datum)


@pytest.mark.parametrize("name,weights,order,edit", [
    ("I2:5", "equal", None, None), ("I2:12", "universal", "b-first", None),
    ("B2", "universal", "b-first", None), ("A3", "equal", None, None),
    ("I2:9", "equal", None, 0), ("B2", "equal", None, 3),
])
def test_packed_c3_coordinates_equal_the_laurent_route(name, weights, order, edit):
    """Every coordinate of every T_s C^lam_{s,t}, from Q's rows or, for an
    edited datum, from the elimination's, against the LaurentPoly route."""
    datum = get_session(name, weights, order).datum
    if edit is not None:
        datum = single_coefficient_edits(datum)[edit]
    keys = cellular._cell_keys(datum)
    inv, _ = f_inverse(transition_matrix(datum))
    if edit is None:
        rows = cellular._closed_form_rows(datum, keys)
    else:
        assert certified(datum) is None
        rows = [[(k, c) for k, c in enumerate(row) if c] for row in inv]
    packed = cellular._cell_coords(datum, keys, rows)
    want = reference_coords(datum, inv)
    for s in range(datum.alg.table.system.ngens):
        for key in keys:
            got, ref = packed(s, key), want(s, key)
            assert got == ref and list(got) == list(ref)


def test_c1_passes_a_negated_element_without_the_certificate():
    """C^{onedim:++}_{0,0} times -1 on I2:5 is still a basis over R, but no
    longer the inverse of Q: the elimination decides C1, and it passes."""
    datum = get_session("I2:5").datum
    negated = scaled_element(datum, ("onedim:++", 0, 0), -1)
    assert certified(negated) is None
    report = verify_cell_datum(negated)
    assert report.ok, report.summary()
    assert report.checks == reference_cell_datum(negated)


def test_c1_reports_the_elimination_for_an_entry_outside_r():
    """A coefficient 1/7 on I2:5 (7 is not invertible there) fails the
    certificate's membership test; the report is the elimination's."""
    datum = get_session("I2:5").datum
    assert 7 not in datum.invertible_primes
    scaled = scaled_element(datum, ("onedim:++", 0, 0), Fraction(1, 7))
    assert certified(scaled) is None
    report = verify_cell_datum(scaled)
    (bad,) = report.checks["C1 basis"]
    assert bad.startswith("transition determinant ")
    assert report.checks == reference_cell_datum(scaled)


def test_c1_reports_the_elimination_when_q_leaves_r():
    """With no prime inverted, Q on I2:5 has entries over 5 outside R while
    PQ = I still holds: membership alone refuses the certificate."""
    datum = dataclasses.replace(get_session("I2:5").datum, invertible_primes=set())
    assert certified(datum) is None
    report = verify_cell_datum(datum)
    assert report.checks["C1 basis"] == [
        "transition determinant 25 is not a unit of Z[d][1/p : p in []]"]
    assert report.checks == reference_cell_datum(datum)


def test_membership_in_r_reads_the_reduced_denominator():
    field = get_session("I2:5").table.field
    assert cellular._lies_in_r(3, set())
    assert cellular._lies_in_r(Fraction(3, 20), {2, 5})
    assert not cellular._lies_in_r(Fraction(1, 7), {2, 5})
    assert cellular._lies_in_r(field.delta() * Fraction(1, 4), {2})
    assert not cellular._lies_in_r(field.delta() * Fraction(1, 6), {2})


def test_every_single_coefficient_edit_reports_as_the_elimination():
    """B2: each coefficient of each element raised by one, the whole report
    against the reference (CI sweeps I2:5 and A3 too)."""
    datum = get_session("B2").datum
    edits = single_coefficient_edits(datum)
    assert len(edits) == sum(len(c) for c in datum.elements.values())
    for edited in edits:
        assert verify_cell_datum(edited).checks == reference_cell_datum(edited)


def test_phi_values_a1():
    session = get_session("A1")
    alg, ring = session.algebra, session.ring
    s = alg.table.gen(0)
    # phi(C_1) = identity
    one = {w: LaurentPoly.constant(1, c) for w, c in ring.identity_element().items()}
    assert phi_element(alg, ring, {0: LaurentPoly.one(1)}) == one
    # phi(C_s) = (v + v^{-1}) t_s
    img = hecke_to_asym(alg, ring, s)
    assert img == {s: LaurentPoly(1, {(1,): 1, (-1,): 1})}


@pytest.mark.parametrize("name,weights,order", [
    ("A1", "equal", None), ("A2", "equal", None), ("B2", "equal", None),
    ("I2:4", "equal", None), ("B2", "universal", "b-first"),
])
def test_phi_suite(name, weights, order):
    session = get_session(name, weights, order)
    report = verify_phi(session.algebra, session.ring)
    assert report.ok, report.summary()


@pytest.mark.parametrize("name,weights,order", [
    ("A1", "equal", None), ("A2", "equal", None),
    ("I2:6", "universal", "b-first"),
])
def test_bimodule_identity(name, weights, order):
    session = get_session(name, weights, order)
    report = verify_bimodule_identity(session.algebra, session.ring)
    assert report.ok, report.summary()


def test_bimodule_sums_may_run_over_the_whole_group():
    """Restricting the middle sum to the cell of w is an optimization; on a
    small group the unrestricted sums of the reference must agree with it."""
    session = get_session("B2")
    report = verify_bimodule_identity(session.algebra, session.ring)
    assert report.ok
    assert report.checks == reference_bimodule(session.algebra, session.ring,
                                               restrict_cell=False)


@pytest.mark.parametrize("exhaustive_max,samples", [(16, 100000), (0, 2000)],
                         ids=["exhaustive", "sampled"])
def test_bimodule_identity_detects_a_corrupted_gamma(exhaustive_max, samples):
    session = get_session("B2")
    report = verify_bimodule_identity(session.algebra, corrupted_ring(session),
                                      exhaustive_max=exhaustive_max, samples=samples)
    assert not report.ok


def phi_element(alg, ring, coeffs_c: dict) -> dict:
    """phi extended A-linearly from the canonical-basis images."""
    out = {}
    for w, poly in coeffs_c.items():
        for z, p in hecke_to_asym(alg, ring, w).items():
            accumulate(out, z, p * poly)
    return out


def reference_phi_multiplicative(alg, ring) -> list:
    """phi(C_s) phi(C_y) against phi(sum_z h_{s,y,z} C_z) for every generator
    s and every y, through `phi_element`: the reference for "phi
    multiplicative"."""
    rows = alg.h_rows()
    bad = []
    for s in range(alg.table.system.ngens):
        x = alg.table.gen(s)
        for y in range(alg.table.size):
            lhs = ring.multiply(hecke_to_asym(alg, ring, x), hecke_to_asym(alg, ring, y))
            if lhs != phi_element(alg, ring, rows[x][y]):
                bad.append(f"multiplicativity fails at ({x},{y})")
    return bad


@pytest.mark.parametrize("name", ["A2", "B2", "I2:9"])
def test_phi_multiplicative_detects_a_corrupted_gamma(name):
    """I2:9 has 18 elements: every (generator, y) pair is checked."""
    session = get_session(name)
    ring = corrupted_ring(session)
    bad = verify_phi(session.algebra, ring).checks["phi multiplicative"]
    assert bad and bad == reference_phi_multiplicative(session.algebra, ring)


def test_invertible_primes_i2():
    # the norm of every f over I2(m) concentrates in the primes of m
    session = get_session("I2:5")
    assert session.datum.invertible_primes == {5}
    session = get_session("I2:7")
    assert session.datum.invertible_primes == {7}


def test_b3_equal_datum_lies_over_r_and_not_over_z_delta():
    """B3 equal: 41 cellular coefficients have denominator 2. They lie in
    R = Z[d][1/2], as the norms of beta and f invert 2, and the certificate
    passes C1-C3."""
    datum = get_session("B3").datum
    assert datum.invertible_primes == {2}
    coeffs = [c for e in datum.elements.values() for c in e.values()]
    assert sum(not cellular._lies_in_r(c, set()) for c in coeffs) == 41
    assert all(cellular._lies_in_r(c, {2}) for c in coeffs)
    assert certified(datum) is not None
    assert verify_cell_datum(datum).ok


def test_build_cell_datum_refuses_a_coefficient_outside_r():
    """With no prime inverted, B3 equal's denominators 2 leave R, while A3's
    coefficients lie in Z."""
    def build(name):
        session = get_session(name)
        grams = {label: b.gram for label, b in session.balanced.items()}
        return cellular.build_cell_datum(session.algebra, session.ring, grams)

    with mock.patch.object(cellular, "norm_primes", return_value=set()):
        with pytest.raises(VerificationError,
                           match=r"^integrality violation in cellular element of B:\(\(1, 1\), \(1,\)\)$"):
            build("B3")
        assert build("A3").invertible_primes == set()


@pytest.mark.parametrize("name,weights,order", [
    ("B2", "universal", "b-first"), ("I2:6", "universal", "b-first"), ("A3", "equal", None),
])
def test_rational_cell_coefficients_are_stored_as_ints(name, weights, order):
    """Every coefficient of a cellular element over Q is a rational integer,
    stored as an int, and so is every coefficient of its specialization."""
    session = get_session(name, weights, order)
    datum = session.datum
    assert datum.alg.table.field.degree == 1
    coeffs = [c for e in datum.elements.values() for c in e.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    spec = specialize_datum(datum, get_session(name).algebra)
    assert all(type(c) is int for e in spec.elements.values()
               for p in e.values() for c in p.terms.values())


def test_irrational_cell_coefficients_stay_cyclotomic():
    """On I2:12 the rational coefficients are ints and the rest CycloNumbers."""
    datum = get_session("I2:12").datum
    kinds = {type(c).__name__ for e in datum.elements.values() for c in e.values()}
    assert kinds == {"int", "CycloNumber"}


def test_specialize_identity_is_noop():
    session = get_session("B2", "universal", "b-first")
    datum = session.datum
    spec = specialize_datum(datum, session.algebra)
    # expanding the datum directly into the standard basis must agree
    alg = session.algebra
    for key, coeffs in datum.elements.items():
        direct = {}
        for w, c in coeffs.items():
            for u, p in alg.c_basis(w).items():
                add = p.scale(c)
                cur = direct.get(u)
                direct[u] = add if cur is None else cur + add
        direct = {u: p for u, p in direct.items() if p}
        assert spec.elements[key] == direct


def test_specialize_b2_to_equal_parameters():
    session = get_session("B2", "universal", "b-first")
    target = get_session("B2").algebra
    spec = specialize_datum(session.datum, target)
    report = verify_specialized(spec)
    assert report.ok, report.summary()


def test_specialized_c3_detects_swapped_elements():
    session = get_session("B2", "universal", "b-first")
    spec = specialize_datum(session.datum, get_session("B2").algebra)
    a, b = ("B:((2,), ())", 0, 0), ("B:((1, 1), ())", 0, 0)
    spec.elements[a], spec.elements[b] = spec.elements[b], spec.elements[a]
    assert not certified_specialized(spec)
    report = verify_specialized(spec)
    assert report.checks["C3 (specialized)"], report.summary()


def test_specialized_a_prime_basis_detects_a_doubled_element():
    """Twice an element keeps the determinant a single monomial, -2 eps^g,
    but -2 is no unit of Z[delta] when invertible_primes is empty."""
    session = get_session("B2", "universal", "b-first")
    spec = specialize_datum(session.datum, get_session("B2").algebra)
    assert verify_specialized(spec).checks["A'-basis"] == []
    assert spec.invertible_primes == set()
    key = ("B:((2,), ())", 0, 0)
    spec.elements[key] = {u: p + p for u, p in spec.elements[key].items()}
    assert not certified_specialized(spec)
    assert verify_specialized(spec).checks["A'-basis"] == [
        "specialized determinant coefficient -2 is not a unit of Z[d][1/p : p in []]"]


def test_specialized_a_prime_basis_detects_a_determinant_with_two_terms():
    """(1 + eps) times one element makes the determinant (1 + eps) c eps^g,
    which is no unit of the Laurent ring."""
    session = get_session("B2", "universal", "b-first")
    spec = specialize_datum(session.datum, get_session("B2").algebra)
    one_plus_eps = LaurentPoly(1, {(0,): 1, (1,): 1})
    key = ("B:((2,), ())", 0, 0)
    spec.elements[key] = {u: p * one_plus_eps for u, p in spec.elements[key].items()}
    assert not certified_specialized(spec)
    assert verify_specialized(spec).checks["A'-basis"] == [
        "specialized determinant is not a unit of the Laurent ring"]


def test_specialized_a_prime_basis_detects_a_singular_basis():
    session = get_session("B2", "universal", "b-first")
    spec = specialize_datum(session.datum, get_session("B2").algebra)
    spec.elements[("B:((2,), ())", 0, 0)] = spec.elements[("B:((1, 1), ())", 0, 0)]
    assert not certified_specialized(spec)
    report = verify_specialized(spec)
    assert report.checks["A'-basis"] == ["specialized transition matrix is singular"]
    assert report.checks["C3 (specialized)"] == [
        "C3 not checked: specialized transition matrix is singular"]


def test_specialized_a_prime_basis_reads_the_invertible_primes():
    """I2:6 specialized to equal parameters has determinant -16 eps^g: a unit
    once 2 is inverted, as the datum's invertible_primes {2} says."""
    session = get_session("I2:6", "universal", "b-first")
    spec = specialize_datum(session.datum, get_session("I2:6").algebra)
    assert spec.invertible_primes == {2}
    assert verify_specialized(spec).ok and certified_specialized(spec)
    spec.invertible_primes = set()
    assert not certified_specialized(spec)
    assert verify_specialized(spec).checks["A'-basis"] == [
        "specialized determinant coefficient -16 is not a unit of Z[d][1/p : p in []]"]


def test_specialize_accepts_nonpositive_targets():
    """The target weight function need not be positive; only the source order
    matters. Sending b to -a still yields a basis with the cellular axioms."""
    session = get_session("I2:6", "universal", "b-first")
    from heckecell.coxeter import WeightFunction
    target_w = WeightFunction(1, ((-1,), (1,)))
    target = HeckeAlgebra(session.table, target_w, natural_order(1),
                          require_positive=False)
    spec = specialize_datum(session.datum, target)
    report = verify_specialized(spec)
    assert report.ok, report.summary()


def test_specialize_i26_collapses_to_one_variable():
    session = get_session("I2:6", "universal", "b-first")
    sys6 = session.system
    from heckecell.coxeter import WeightFunction
    target_w = WeightFunction(1, ((3,), (1,)))  # b -> 3a
    target = HeckeAlgebra(session.table, target_w, natural_order(1))
    spec = specialize_datum(session.datum, target)
    report = verify_specialized(spec)
    assert report.ok, report.summary()
    # substitution oracle: specializing exponents (a, b) -> a + 3b coordinatewise
    datum = session.datum
    alg = session.algebra
    rng = random.Random(3)
    keys = list(datum.elements)
    for key in rng.sample(keys, 4):
        direct = {}
        for w, c in datum.elements[key].items():
            for u, p in alg.c_basis(w).items():
                for g, coeff in p.terms.items():
                    a, b = alg.order.user(g)  # terms are keyed by stored exponents
                    h = (a + 3 * b,)
                    cur = direct.setdefault(u, {})
                    cur[h] = cur.get(h, 0) + coeff * c
        direct = {u: LaurentPoly(1, terms) for u, terms in direct.items()}
        direct = {u: p for u, p in direct.items() if p}
        assert spec.elements[key] == direct


# -- the specialized certificate against the elimination ----------------------------


def specialized(name, target):
    """The universal/b-first basis of `name` specialized to the target weights
    (CLI text), under the natural order, as `cell specialize` does."""
    session = get_session(name, "universal", "b-first")
    weights = parse_weights(target, session.system)
    alg = HeckeAlgebra(session.table, weights, natural_order(weights.rank),
                       require_positive=False)
    return specialize_datum(session.datum, alg)


def certified_specialized(spec) -> bool:
    """Whether the certificate of `verify_specialized` holds."""
    return cellular._specialized_coords(spec, cellular._cell_keys(spec)) is not None


def eliminated_specialized(spec) -> dict:
    """The checks of `verify_specialized` with the certificate refused, so
    that the elimination decides them."""
    with mock.patch.object(cellular, "_specialized_coords", return_value=None):
        return verify_specialized(spec).checks


def specialized_edits(spec) -> list:
    """A copy of the basis for each term of each specialized element, with
    that coefficient raised by one."""
    edits = []
    for key, coeffs in spec.elements.items():
        for u, p in coeffs.items():
            for g in p.terms:
                elements = dict(spec.elements)
                elements[key] = {**coeffs, u: p + LaurentPoly.monomial(g)}
                edits.append(dataclasses.replace(spec, elements=elements))
    return edits


SPECIALIZATION_TARGETS = [
    ("B3", '{"0":[1],"1":[2],"2":[2]}'), ("B3", "equal"), ("B3", '{"0":[3],"1":[2],"2":[2]}'),
    ("B3", '{"0":[2],"1":[1],"2":[1]}'), ("B3", '{"0":[3],"1":[1],"2":[1]}'),
    ("I2:8", '{"0":[1],"1":[2]}'), ("I2:8", '{"0":[2],"1":[1]}'),
    ("I2:8", '{"0":[1],"1":[3]}'), ("I2:8", "equal"),
    ("B2", '{"0":[1],"1":[2]}'), ("B2", '{"0":[2],"1":[1]}'),
    ("I2:6", '{"0":[2],"1":[1]}'), ("I2:6", '{"0":[-1],"1":[1]}'),
]


@pytest.mark.parametrize("name,target", SPECIALIZATION_TARGETS)
def test_specialized_certificate_agrees_with_the_elimination(name, target):
    """The certificate holds, the report is the elimination's, and each
    certified C3 coordinate is the elimination's numerator over the
    determinant, which is a constant: det P_T = +-det P."""
    spec = specialized(name, target)
    alg, size = spec.alg, spec.alg.table.size
    keys = cellular._cell_keys(spec)
    coords = cellular._specialized_coords(spec, keys)
    assert coords is not None
    report = verify_specialized(spec)
    assert report.ok, report.summary()
    assert report.checks == eliminated_specialized(spec)
    zero = LaurentPoly.zero(alg.rank)
    inv = KMatrix.from_polys(
        [[spec.elements[key].get(w, zero) for w in range(size)] for key in keys]).inverse()
    ((g, det),) = inv.den.terms.items()
    assert not any(g)
    for s in range(alg.table.system.ngens):
        for key in keys:
            numerators = {}
            for w, poly in alg.gen_left(s, spec.elements[key]).items():
                for k, c in enumerate(inv.num[w]):
                    accumulate(numerators, keys[k], c * poly)
            assert coords(s, key) == {k: p.scale(scalar_inverse(det))
                                      for k, p in numerators.items()}


def test_every_specialized_coefficient_edit_reports_as_the_elimination():
    """B2 to (2, 1): each coefficient of each specialized element raised by
    one, the whole report against the elimination's (CI sweeps I2:6 to
    equal parameters too)."""
    spec = specialized("B2", '{"0":[2],"1":[1]}')
    edits = specialized_edits(spec)
    assert len(edits) == sum(len(p.terms) for e in spec.elements.values() for p in e.values())
    for edited in edits:
        assert not certified_specialized(edited)
        assert verify_specialized(edited).checks == eliminated_specialized(edited)


def test_every_datum_coefficient_edit_reports_as_the_elimination():
    """B2 to (2, 1): each coefficient of the source datum raised by one, the
    specialized elements left as they were. The elements no longer compare
    equal to the datum's, specialized, so the certificate refuses the basis,
    and the elimination passes it: the elements are still a cellular basis."""
    spec = specialized("B2", '{"0":[2],"1":[1]}')
    datum = spec.datum
    for key, coeffs in datum.elements.items():
        for w, c in coeffs.items():
            elements = {**datum.elements, key: {**coeffs, w: c + 1}}
            edited = dataclasses.replace(spec, datum=dataclasses.replace(datum,
                                                                         elements=elements))
            assert not certified_specialized(edited)
            report = verify_specialized(edited)
            assert report.ok and report.checks == eliminated_specialized(edited)


# -- the bimodule check against its LaurentPoly form -----------------------------


def reference_bimodule(alg, ring, exhaustive_max=16, samples=100000, restrict_cell=True):
    """The bimodule identity summed as LaurentPolys, one quadruple at a time
    over every quadruple: the oracle for the coefficient-level check.
    `exhaustive_max` and `samples` choose the check's name only."""
    size = alg.table.size
    rows, inverse = alg.h_rows(), alg.table.inverse
    _, cells, cell_of = alg.lr_cells()
    gamma = ring.gamma

    def check(x, xp, y, w):
        cw = cell_of[w]
        lhs = rhs = LaurentPoly.zero(alg.rank)
        for u in range(size):
            if restrict_cell and cell_of[u] != cw:
                continue
            g = gamma.get((w, xp, inverse[u]))
            h = rows[x][u].get(y)
            if g and h:
                lhs = lhs + h.scale(g)
            g = gamma.get((u, xp, inverse[y]))
            h = rows[x][w].get(u)
            if g and h:
                rhs = rhs + h.scale(g)
        return lhs == rhs

    cases = [(w, y, x, xp) for w in range(size) for y in cells[cell_of[w]]
             for x in range(size) for xp in range(size)]
    name = ("bimodule identity (exhaustive)" if size <= exhaustive_max
            else f"bimodule identity ({samples} samples)")
    bad = [f"identity fails at (x={x},x'={xp},y={y},w={w})"
           for w, y, x, xp in cases if not check(x, xp, y, w)]
    return {name: bad}


class _AlteredRows:
    """An algebra whose h_rows() is a replaced table; all else is delegated."""

    def __init__(self, alg, rows):
        self._alg, self._rows = alg, rows

    def h_rows(self):
        return self._rows

    def __getattr__(self, name):
        return getattr(self._alg, name)


def corrupted_h_rows(alg, x, w, u):
    """alg with h_{x,w,u} raised by 1; the cached table is not touched."""
    rows = [list(r) for r in alg.h_rows()]
    rows[x][w] = dict(rows[x][w])
    rows[x][w][u] = rows[x][w].get(u, LaurentPoly.zero(alg.rank)) + LaurentPoly.one(alg.rank)
    return _AlteredRows(alg, rows)


def ring_with_gamma(session, key, value):
    """A fresh ring with gamma[key] set, even outside the blocks."""
    ring = AsymptoticRing(session.algebra, session.tensors)
    ring.gamma = dict(ring.gamma)
    ring.gamma[key] = value
    return ring


@pytest.mark.parametrize("restrict_cell", [True, False])
@pytest.mark.parametrize("exhaustive_max,samples", [(16, 100000), (0, 3000)],
                         ids=["exhaustive", "sampled"])
def test_bimodule_identity_agrees_with_the_reference(restrict_cell, exhaustive_max, samples):
    """The check sums over the cell of w; the reference sums over the cell
    (restrict_cell) or over the whole group, which agree while gamma is
    supported on the blocks."""
    session = get_session("B2")
    alg, ring = session.algebra, session.ring
    _, _, cell_of = alg.lr_cells()
    assert cell_of[0] != cell_of[1]
    cases = [
        (alg, ring, True),
        # h_{s,s,s} = v + v^-1 for the generator s = 1, read on both sides
        (corrupted_h_rows(alg, 1, 1, 1), ring, False),
        (alg, corrupted_ring(session), False),
    ]
    if restrict_cell:
        # gamma_{s,s,1} with 1 outside the cell of s: read only by the unrestricted sums
        cases.append((alg, ring_with_gamma(session, (1, 1, 0), 1), True))
    for a, r, ok in cases:
        report = verify_bimodule_identity(a, r, exhaustive_max=exhaustive_max,
                                          samples=samples)
        assert report.checks == reference_bimodule(a, r, exhaustive_max, samples,
                                                   restrict_cell)
        assert report.ok == ok



def i2_9_faults():
    """I2:9 (|W| = 18 > 16) with gamma_{1,1,1} + 1 and with h_{1,1,1} + 1."""
    session = get_session("I2:9")
    alg = session.algebra
    assert alg.table.size == 18
    return [(alg, corrupted_ring(session)), (corrupted_h_rows(alg, 1, 1, 1), session.ring)]


def test_bimodule_failing_set_is_every_failing_quadruple():
    """At exhaustive_max = 18 the report is the whole failing set on I2:9,
    which must be the cases that fail one by one."""
    for alg, ring in i2_9_faults():
        report = verify_bimodule_identity(alg, ring, exhaustive_max=18)
        assert not report.ok
        assert report.checks == reference_bimodule(alg, ring, exhaustive_max=18)


def test_bimodule_sampled_report_lists_the_failing_draws():
    """The default call on I2:9, whose check is named "(100000 samples)",
    lists the whole failing set, the one the exhaustive call lists."""
    for alg, ring in i2_9_faults():
        report = verify_bimodule_identity(alg, ring)
        assert not report.ok
        (cases,) = verify_bimodule_identity(alg, ring, exhaustive_max=18).checks.values()
        assert report.checks == {"bimodule identity (100000 samples)": cases}


@pytest.mark.parametrize("name,weights,order", [
    ("I2:9", "equal", None), ("B3", "universal", "b-first"),
])
def test_passing_bimodule_check_draws_nothing(monkeypatch, name, weights, order):
    commutator, calls = cellular._commutator_failures, []

    def counted(x, *args):
        calls.append(x)
        return commutator(x, *args)

    monkeypatch.setattr(cellular, "_commutator_failures", counted)
    session = get_session(name, weights, order)
    assert session.table.size > 16
    report = verify_bimodule_identity(session.algebra, session.ring)
    assert report.checks == {"bimodule identity (100000 samples)": []}
    # the certificate passes, so the commutator runs for the generators only
    assert calls == [session.table.gen(s) for s in range(session.table.system.ngens)]


# -- the bimodule certificate against the commutator for every x -----------------


def all_x_bimodule(alg, ring, exhaustive_max=16, samples=100000) -> dict:
    """The bimodule report from the commutator of every x, certificate or not."""
    rows = alg.h_rows()
    _, _, cell_of = alg.lr_cells()
    g_col, g_row = cellular._gamma_blocks(alg, ring)
    failing = set()
    for x in range(alg.table.size):
        failing |= cellular._commutator_failures(x, rows, cell_of, g_col, g_row)
    return cellular._bimodule_report(alg, failing, exhaustive_max, samples).checks


def in_cell_faults(alg) -> list:
    """(x, w, u) of every nonzero h_{x,w,u} with u ~ w, and of every diagonal
    entry h_{x,w,w}, x = 1 included: the h + 1 faults of the certificate tests."""
    rows = alg.h_rows()
    _, _, cell_of = alg.lr_cells()
    size = alg.table.size
    nonzero = {(x, w, u) for x in range(size) for w in range(size)
               for u in rows[x][w] if cell_of[u] == cell_of[w]}
    return sorted(nonzero | {(x, w, w) for x in range(size) for w in range(size)})


@pytest.mark.parametrize("name,weights,order", [
    ("B2", "equal", None), ("I2:5", "equal", None), ("B2", "universal", "b-first"),
])
def test_bimodule_certificate_reports_as_the_all_x_loop(name, weights, order):
    """Every in-cell h + 1 fault, and gamma + 1 at 14 keys spread over the
    table: the report is the one the commutator over every x writes."""
    session = get_session(name, weights, order)
    alg, ring = session.algebra, session.ring
    keys = sorted(ring.gamma)
    cases = [(corrupted_h_rows(alg, *f), ring) for f in in_cell_faults(alg)]
    cases += [(alg, corrupted_ring(session, k)) for k in keys[::max(1, len(keys) // 14)][:14]]
    failed = 0
    for a, r in cases:
        report = verify_bimodule_identity(a, r)
        assert report.checks == all_x_bimodule(a, r)
        failed += not report.ok
    assert 0 < failed < len(cases)


def test_bimodule_report_lists_every_failing_case_above_16_elements():
    """A3 (24 elements) with h_{1,w,w} + 1 at w = 17: the default call fails
    and lists the 4 cases the commutator of every x finds."""
    session = get_session("A3")
    faulty = corrupted_h_rows(session.algebra, 0, 17, 17)
    report = verify_bimodule_identity(faulty, session.ring)
    (cases,) = report.checks.values()
    assert len(cases) == 4
    assert report.checks == all_x_bimodule(faulty, session.ring)


def test_bimodule_premise_catches_the_non_generator_faults_phi_misses():
    """On B2, phi multiplicative reads only the generator rows: of the in-cell
    faults h_{x,w,u} + 1 with x neither 1 nor a generator, it misses 22, such
    as h_{3,4,5} + 1. The recursion premise reads every row, so the check
    falls back to every x, and each report lists failing cases."""
    session = get_session("B2")
    alg, ring = session.algebra, session.ring
    length, rows = alg.table.length, alg.h_rows()
    missed = [(x, w, u) for x, w, u in in_cell_faults(alg)
              if length[x] >= 2 and u in rows[x][w]
              and verify_phi(corrupted_h_rows(alg, x, w, u), ring).ok]
    assert len(missed) == 22 and (3, 4, 5) in missed
    for f in missed:
        report = verify_bimodule_identity(corrupted_h_rows(alg, *f), ring)
        assert not report.ok
    faulty = corrupted_h_rows(alg, 3, 4, 5)
    assert verify_bimodule_identity(faulty, ring).checks == reference_bimodule(faulty, ring)


def test_cell_suite_fails_every_h_fault_phi_passes():
    """On B2, `verify_phi` passes 40 of the 96 in-cell h + 1 faults, as its
    induction takes the `h_rows` recursion as given: 4 in the identity row
    and 36 in rows of length >= 2, 22 of these at a nonzero entry. Each
    breaks conditions (1)-(2) of `verify_bimodule_identity`, whose report
    then fails: the cell suite fails on all of them."""
    session = get_session("B2")
    alg, ring = session.algebra, session.ring
    _, _, cell_of = alg.lr_cells()
    length, rows = alg.table.length, alg.h_rows()
    faults = in_cell_faults(alg)
    passed = [f for f in faults if verify_phi(corrupted_h_rows(alg, *f), ring).ok]
    assert (len(faults), len(passed)) == (96, 40)
    assert sum(x == 0 for x, _, _ in passed) == 4
    assert sum(length[x] >= 2 and u in rows[x][w] for x, w, u in passed) == 22
    for f in passed:
        faulty = corrupted_h_rows(alg, *f)
        assert not cellular._recursion_certificate(faulty, faulty.h_rows(), cell_of), f
        assert not verify_bimodule_identity(faulty, ring).ok, f


def recursion_mismatches(alg, rows) -> list:
    """The x with l(x) >= 2 at which the in-cell blocks, read from `rows` as
    LaurentPolys, break B_x = B_{x'} B_s - sum_{u != x} h_{s,x',u} B_u; no
    length test."""
    t = alg.table
    _, _, cell_of = alg.lr_cells()

    def block(x):
        return {(w, u): h for w, hw in enumerate(rows[x]) for u, h in hw.items()
                if cell_of[u] == cell_of[w] and h}

    bad = []
    for x in range(t.size):
        if t.length[x] < 2:
            continue
        s = t.first_left_descent(x)
        xp, gs = t.lmult[x][s], t.gen(s)
        bs, rhs = block(gs), {}
        for (w, v), h in block(xp).items():
            for (v2, u), g in bs.items():
                if v2 == v:
                    accumulate(rhs, (w, u), h * g)
        for u, c in rows[gs][xp].items():
            if u != x:
                for key, h in block(u).items():
                    accumulate(rhs, key, -(c * h))
        if rhs != block(x):
            bad.append(x)
    return bad


def test_bimodule_premise_rejects_a_correction_no_shorter_than_x():
    """A2: h_{s,x',w0} + 1 in the generator row of x = s x', with B_x lowered
    by B_{w0} so that every recursion identity still holds. Only the length
    test fails the premise; the commutator of every x then writes the report
    (B_{w0} lives on the one-element cell of w0, so it still passes)."""
    session = get_session("A2")
    alg, ring = session.algebra, session.ring
    t = alg.table
    w0 = t.longest
    x = next(x for x in t.by_length[2] if x != t.lmult[w0][t.first_left_descent(w0)])
    s = t.first_left_descent(x)
    xp = t.lmult[x][s]
    rows = [list(r) for r in alg.h_rows()]
    assert recursion_mismatches(alg, rows) == []
    rows[t.gen(s)][xp] = {**rows[t.gen(s)][xp], w0: LaurentPoly.one(alg.rank)}
    rows[x][w0] = {**rows[x][w0], w0: rows[x][w0][w0] - rows[w0][w0][w0]}
    _, _, cell_of = alg.lr_cells()
    assert [(w, u) for w, hw in enumerate(rows[w0]) for u in hw
            if cell_of[u] == cell_of[w]] == [(w0, w0)]
    assert recursion_mismatches(alg, rows) == []
    assert not cellular._recursion_certificate(alg, rows, cell_of)
    faulty = _AlteredRows(alg, rows)
    report = verify_bimodule_identity(faulty, ring)
    assert report.ok and report.checks == all_x_bimodule(faulty, ring)


# -- fault injection for the filtration and star checks -------------------------


@pytest.mark.parametrize("name", ["A2", "B2", "I2:9"])
def test_phi_unital_detects_an_edited_identity_row(name):
    """h_{1,d,d} raised by one for a d in D doubles the term n_d t_d of
    phi(C_1), which is then not the ring identity."""
    session = get_session(name)
    alg, ring = session.algebra, session.ring
    assert verify_phi(alg, ring).checks["phi unital"] == []
    d = min(ring.d_set)
    report = verify_phi(corrupted_h_rows(alg, 0, d, d), ring)
    assert report.checks["phi unital"] == [
        "image of the identity canonical-basis element is not the ring identity"]


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_verify_phi_builds_each_image_once(name, monkeypatch):
    """The "phi unital" check reads phi(C_1) off the images the other checks
    use: one `hecke_to_asym` call per element of W."""
    session = get_session(name)
    calls = []

    def counted(alg, ring, w):
        calls.append(w)
        return hecke_to_asym(alg, ring, w)

    monkeypatch.setattr(cellular, "hecke_to_asym", counted)
    assert verify_phi(session.algebra, session.ring).ok
    assert sorted(calls) == list(range(session.table.size))


@pytest.mark.parametrize("name", ["A2", "I2:9"])
def test_phi_filtration_detects_an_edited_h_entry(name):
    """I2:9 has 18 elements: the filtration check runs at every size."""
    from heckecell.cli import Session
    session = Session({"system": name})
    alg, ring = session.algebra, session.ring
    assert verify_phi(alg, ring).ok
    rows = alg.h_rows()
    x = alg.table.gen(0)
    # w outside the distinguished set, so no image phi(C_y) reads h_{x,w,.}
    w = next(w for w in range(alg.table.size) if w not in ring.d_set)
    rows[x][w] = dict(rows[x][w])
    rows[x][w][w] = rows[x][w].get(w, LaurentPoly.zero(1)) + LaurentPoly.one(1)
    report = verify_phi(alg, ring)
    assert report.checks["phi filtration"] == [f"filtration fails: C_{x} on t_{w} hits t_{w}"]


def _edited_off_diagonal(elements, labels, msize):
    """A copy of elements with one coefficient of an off-diagonal element changed."""
    lab = next(lab for lab in labels if msize[lab] > 1)
    key = (lab, 0, 1)
    edited = dict(elements)
    edited[key] = dict(elements[key])
    w = next(iter(edited[key]))
    edited[key][w] = edited[key][w] + edited[key][w]
    return lab, edited


def test_c2_star_detects_an_edited_off_diagonal_element():
    import dataclasses
    datum = get_session("A2").datum
    lab, edited = _edited_off_diagonal(datum.elements, datum.labels, datum.msize)
    report = verify_cell_datum(dataclasses.replace(datum, elements=edited))
    assert report.checks["C2 star"] == [f"star axiom fails for {lab} at (0,1)",
                                        f"star axiom fails for {lab} at (1,0)"]


def test_specialized_c2_star_detects_an_edited_off_diagonal_element():
    session = get_session("B2", "universal", "b-first")
    spec = specialize_datum(session.datum, get_session("B2").algebra)
    lab, spec.elements = _edited_off_diagonal(spec.elements, spec.labels, spec.msize)
    assert not certified_specialized(spec)
    report = verify_specialized(spec)
    assert report.checks["C2 star (specialized)"] == [
        f"star axiom fails for {lab} at (0,1)", f"star axiom fails for {lab} at (1,0)"]
