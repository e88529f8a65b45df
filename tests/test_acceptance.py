"""Acceptance suite: every exactness criterion the package promises.

Each test prints one pass/fail line (run pytest -s to see them). All checks
are exact identities in the coefficient field or its Laurent extension; there
are no tolerances anywhere.
"""

import os
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import get_session
from heckecell.cellular import (b_matrix, specialize_datum,
                                verify_bimodule_identity, verify_cell_datum,
                                verify_phi, verify_specialized)
from heckecell.matrices import KMatrix
from heckecell.reps import (gram_average, load_rep, schur_data,
                            verify_schur_relations)
from heckecell.scalars import LaurentPoly


def report(num: int, description: str, ok: bool):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_dihedral_gram_constant_matrices():
    ok = True
    for m in range(3, 13):
        session = get_session(f"I2:{m}")
        field = session.table.field
        jmax = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
        for j in range(1, jmax + 1):
            omega = session.balanced[f"dihedral:{j}"].gram
            consts = omega.residue()
            want = [[field.two_cos(j, m) + 2, Fraction(0)], [Fraction(0), Fraction(1)]]
            ok = ok and consts == want
        if m % 2 == 0:
            # two-variable lexicographic order, larger weight on the first generator
            asym = get_session(f"I2:{m}", "universal", "b-first")
            for j in range(1, jmax + 1):
                omega = asym.balanced[f"dihedral:{j}"].gram
                consts = omega.residue()
                ok = ok and consts == [[Fraction(1), Fraction(0)],
                                       [Fraction(0), Fraction(1)]]
    report(1, "dihedral Gram constant matrices, both parameter regimes", ok)


def test_criterion_02_determinant_products():
    ok = True
    for m in range(3, 13):
        session = get_session(f"I2:{m}")
        field = session.table.field
        jmax = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
        prod = field.one
        for j in range(1, jmax + 1):
            label = f"dihedral:{j}"
            b = session.balanced[label]
            beta = b_matrix(b.gram, b.tensor, session.algebra)
            det = beta[0][0] * beta[1][1] - beta[0][1] * beta[1][0]
            prod = prod * det
        want = field.from_rational(1 if m % 2 else Fraction(m, 2))
        ok = ok and prod == want
    report(2, "det(B_j) products: 1 for odd m, m/2 for even m", ok)


def test_criterion_03_schur_relation_suite():
    ok = True
    systems = (["A1", "A2", "A3", "B2", "B3"]
               + [f"I2:{m}" for m in range(3, 13)])
    for name in systems:
        session = get_session(name)
        ok = ok and verify_schur_relations(session.algebra, session.tensors) == []
    # second monomial order wherever the weight lattice has rank two
    for name in ["B2", "B3"] + [f"I2:{m}" for m in range(4, 13, 2)]:
        session = get_session(name, "universal", "b-first")
        ok = ok and verify_schur_relations(session.algebra, session.tensors) == []
    report(3, "Schur relations (*) and (*') for all built-in families", ok)


def test_criterion_04_gamma_matches_canonical_side():
    ok = True
    for name in ["A2", "A3", "B2"] + [f"I2:{m}" for m in range(3, 9)]:
        session = get_session(name)
        rep = session.ring.compare_with_kl()
        ok = ok and rep.ok
    for name, orient in (("B2", "b-first"), ("I2:4", "b-first"), ("I2:6", "b-first")):
        session = get_session(name, "universal", orient)
        rep = session.ring.compare_with_kl()
        ok = ok and rep.ok
    report(4, "gamma from representations equals gamma from the canonical basis,"
              " and nonzero leading matrices force a(z) = a_lambda", ok)


def test_criterion_05_ring_axioms():
    ok = True
    systems = (["A1", "A2", "A3", "B2", "B3"]
               + [f"I2:{m}" for m in range(3, 13)])
    for name in systems:
        session = get_session(name)
        rep = session.ring.verify()
        ok = ok and rep.ok
    report(5, "associativity, identity, trace duality, cyclic and anti-involution"
              " symmetries: zero violations", ok)


def test_criterion_06_integrality():
    ok = True
    for name in ("A1", "A2", "A3", "B2", "B3"):
        ring = get_session(name).ring
        ok = ok and all(Fraction(g).denominator == 1 for g in ring.gamma.values())
    for name in ("B2", "B3"):
        for weights, order in (("equal", None), ("universal", "b-first")):
            ring = get_session(name, weights, order).ring
            for g in ring.gamma.values():
                den = Fraction(g).denominator
                ok = ok and den & (den - 1) == 0
    for m in range(3, 13):
        session = get_session(f"I2:{m}")
        field = session.table.field
        for t in session.tensors:
            for ents in t.entries.values():
                for _, _, c in ents:
                    ok = ok and field.is_ring_integer(c)
    report(6, "gamma integral (crystallographic), 2-local (type B), tensors in"
              " the cosine ring (dihedral)", ok)


def test_criterion_07_cell_datum_axioms():
    ok = True
    for name in ["A1", "A2", "B2"] + [f"I2:{m}" for m in range(3, 9)]:
        session = get_session(name)
        rep = verify_cell_datum(session.datum)
        ok = ok and rep.ok
    report(7, "cell datum axioms C1 (basis, unit determinant), C2 (star),"
              " C3 (t-independence) exact", ok)


def test_criterion_08_homomorphism_into_asymptotic_ring():
    ok = True
    for name in ["A1", "A2", "B2"] + [f"I2:{m}" for m in range(3, 9)]:
        session = get_session(name)
        rep = verify_phi(session.algebra, session.ring)
        ok = ok and rep.ok
    report(8, "unital homomorphism: multiplicativity and strict filtration", ok)


def test_criterion_09_bimodule_identity():
    ok = True
    for name in ["A2", "B2"] + [f"I2:{m}" for m in range(3, 9)]:
        session = get_session(name)
        rep = verify_bimodule_identity(session.algebra, session.ring)
        ok = ok and rep.ok
    for name, orient in (("B2", "b-first"), ("I2:4", "b-first"), ("I2:6", "b-first")):
        session = get_session(name, "universal", orient)
        rep = verify_bimodule_identity(session.algebra, session.ring)
        ok = ok and rep.ok
    for name in ("A3", "B3"):
        session = get_session(name)
        rep = verify_bimodule_identity(session.algebra, session.ring)
        ok = ok and rep.ok
    report(9, "bimodule compatibility identity: decided for every case,"
              " on small groups and on A3/B3", ok)


def test_criterion_10_choice_independence():
    from heckecell.asymptotic import AsymptoticRing
    from heckecell.reps import dihedral_rep, leading_tensor, one_dim_rep
    ok = True
    for weights, order in (("equal", None), ("universal", "b-first")):
        session = get_session("B2", weights, order)
        alg = session.algebra
        fam = [one_dim_rep(alg, s) for s in ([1, 1], [-1, -1], [1, -1], [-1, 1])]
        fam.append(dihedral_rep(alg, 1))
        tens = [leading_tensor(r, schur_data(r)) for r in fam]
        other = AsymptoticRing(alg, tens)
        ok = ok and other.gamma == session.ring.gamma
        ok = ok and other.n_vec == session.ring.n_vec
    report(10, "seminormal and dihedral families give identical structure"
               " constants on B2", ok)


def test_criterion_11_specialization():
    session = get_session("B2", "universal", "b-first")
    target = get_session("B2").algebra
    spec = specialize_datum(session.datum, target)
    rep = verify_specialized(spec)
    report(11, "B2 universal-weight basis specialized to equal parameters stays"
               " a basis and re-passes C2/C3", rep.ok)


H3_WGRAPH_PATHS = [
    Path(os.environ.get("HECKECELL_H3_3S_WGRAPH", "")),
    Path(__file__).parent / "data" / "h3_3s_wgraph.json",
]


def test_criterion_12_h3_table_check():
    path = next((p for p in H3_WGRAPH_PATHS if p and p.is_file()), None)
    if path is None:
        print("criterion 12 [SKIP] no H3 W-graph data file supplied")
        pytest.skip("no H3 W-graph data file supplied")
    session = get_session("H3")
    alg = session.algebra
    rep = load_rep(alg, path)
    assert rep.dim == 3
    field = alg.table.field
    delta = field.delta()
    v = LaurentPoly.monomial((1,))
    one = LaurentPoly.one(1)
    zero = LaurentPoly.zero(1)
    abar = LaurentPoly.constant(1, -(field.one + delta))  # conjugate of (sqrt5-1)/2
    diag = v * v + one
    printed = KMatrix.from_polys(
        [[diag, -v, zero], [-v, diag, abar * v], [zero, abar * v, diag]])
    omega = gram_average(rep)
    ok = True
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    ok = ok and (omega.entry(i, j) * printed.entry(k, l)
                                 == omega.entry(k, l) * printed.entry(i, j))
    # the averaged form is canonical only up to a scalar; pin it down by
    # normalizing the (0,0) constant term to 1 before the determinant check
    consts = omega.residue()
    c00 = consts[0][0]
    ok = ok and bool(c00) and field.sign(c00) > 0
    inv = field.inverse(c00) if not isinstance(c00, Fraction) else 1 / c00
    consts = [[x * inv for x in row] for row in consts]
    minors = []
    from heckecell.matrices import f_det
    for k in range(1, 4):
        minors.append(f_det([row[:k] for row in consts[:k]]))
    ok = ok and all(field.sign(mv) > 0 for mv in minors)
    from heckecell.cellular import norm_primes
    ok = ok and norm_primes(field, minors[-1]) <= {2, 5}
    report(12, "H3 averaged Gram matches the printed invariant form", ok)
