"""Representation constructors, Schur data, balancing, leading coefficients."""

import dataclasses
import gc
import json
from fractions import Fraction

import pytest

from conftest import (constant_form, edited_leading_session, get_session, own_leading_tensor,
                      weight_of)
from heckecell import reps
from heckecell.cellular import _lies_in_r
from heckecell.cli import Session
from heckecell.errors import ComputationError, InputError, VerificationError
from heckecell.matrices import KMatrix
from heckecell.reps import (MatrixRep, SchurData, balance, balanced_tensor, builtin_family,
                            check_intertwining, dihedral_rep, gram_average, index_rep,
                            invariant_gram, is_balanced, leading_tensor, load_rep, one_dim_rep,
                            rep_from_dict, schur_data, seminormal_rep, sign_rep, trace_poly,
                            verify_schur_relations)
from heckecell.scalars import LaurentPoly, accumulate, scalar_inverse


def traces(rep) -> list:
    """trace rho(T_w) for every w, in id order."""
    return [trace_poly(m) for m in rep.words()]


def own_schur_data(rep) -> SchurData:
    return schur_data(rep, rep.words())


def own_gram(rep):
    """`invariant_gram` of `rep` over its own word matrices."""
    return invariant_gram(rep, rep.words())


def test_one_dimensional_traces():
    alg = get_session("B2").algebra
    rind, rsgn = traces(index_rep(alg)), traces(sign_rep(alg))
    for w in range(alg.table.size):
        lw = weight_of(alg.weights, alg.table, w)
        assert rind[w] == LaurentPoly.monomial(lw)
        sign = -1 if alg.table.length[w] % 2 else 1
        assert rsgn[w] == LaurentPoly.monomial(tuple(-x for x in lw), sign)
    with pytest.raises(InputError, match="constant on conjugacy classes"):
        one_dim_rep(get_session("A2").algebra, [1, -1])


def test_a1_leading_coefficients():
    alg = get_session("A1").algebra
    for rep, expect in ((index_rep(alg), {0: 1, 1: 0}), (sign_rep(alg), {0: 0, 1: 1})):
        t = own_leading_tensor(rep)
        for w, val in expect.items():
            assert t.matrix(w)[0][0] == val


def test_a1_schur_elements():
    alg = get_session("A1").algebra
    si = own_schur_data(index_rep(alg))
    assert si.c == LaurentPoly(1, {(0,): 1, (2,): 1}) and si.a == (0,) and si.f == 1
    ss = own_schur_data(sign_rep(alg))
    assert ss.c == LaurentPoly(1, {(0,): 1, (-2,): 1}) and ss.a == (1,) and ss.f == 1


def test_dihedral_mu_at_m3():
    # equal parameters, m = 3: mu_1 = 1 + (zeta + zeta^{-1}) + 1 = 1
    alg = get_session("I2:3").algebra
    rep = dihedral_rep(alg, 1)
    # off-diagonal entry of rho(T_{s1}) is mu_1
    assert rep.gens[0].num[1][0].exact_divide(rep.gens[0].den) == LaurentPoly.one(1)
    with pytest.raises(InputError, match="out of range"):
        dihedral_rep(alg, 2)


@pytest.mark.parametrize("m", range(3, 13))
def test_dihedral_construction_and_gram_equal_parameters(m):
    """Construction validates the quadratic and braid relations; the attached
    form intertwines, the model is balanced (by the Gram test and by the
    direct definition) and the form's constant matrix is
    diag(2 + zeta^j + zeta^{-j}, 1)."""
    alg = get_session(f"I2:{m}").algebra
    field = alg.table.field
    jmax = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
    for j in range(1, jmax + 1):
        rep = dihedral_rep(alg, j)
        omega = own_gram(rep)
        assert is_balanced(rep, omega) is True
        assert balanced_tensor(rep).rep is rep
        consts = omega.residue()
        zz = field.two_cos(j, m)
        assert consts[0][0] == zz + 2
        assert consts[1][1] == 1 and consts[0][1] == 0 and consts[1][0] == 0


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
def test_dihedral_gram_identity_when_first_weight_larger(m):
    alg = get_session(f"I2:{m}", "universal", "b-first").algebra
    jmax = (m - 2) // 2
    for j in range(1, jmax + 1):
        rep = dihedral_rep(alg, j)
        omega = own_gram(rep)
        consts = omega.residue()
        assert consts == [[1, 0], [0, 1]]


def test_gram_average_proportional_to_attached_form():
    alg = get_session("I2:5").algebra
    rep = dihedral_rep(alg, 2)
    ga, om = gram_average(rep.words()).fractions(), own_gram(rep).fractions()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert ga[i][j] * om[k][l] == ga[k][l] * om[i][j]


def test_seminormal_a1_is_index():
    alg = get_session("A1").algebra
    assert traces(seminormal_rep(alg, (2,))) == traces(index_rep(alg))


def test_seminormal_a2_matches_dihedral():
    # A2 and I2:3 have the same Coxeter matrix, hence identical element tables
    a2 = get_session("A2").algebra
    i23 = get_session("I2:3").algebra
    sn = seminormal_rep(a2, (2, 1))
    dh = dihedral_rep(i23, 1)
    assert own_schur_data(sn).a == (1,)
    assert traces(sn) == traces(dh)


def test_seminormal_b2_matches_dihedral():
    b2 = get_session("B2").algebra
    i24 = get_session("I2:4").algebra
    sn = seminormal_rep(b2, ((1,), (1,)))
    dh = dihedral_rep(i24, 1)
    assert traces(sn) == traces(dh)
    with pytest.raises(InputError):
        seminormal_rep(b2, ((2,), (1,)))


def test_character_orthogonality_at_one():
    """Specializing eps -> 1 gives the classical character: it must be a
    rational integer, have degree chi(1) = dim, and satisfy the first
    orthogonality relation sum_w chi(w) chi(w^{-1}) = |W|."""
    for name in ("A2", "A3", "B2"):
        alg = get_session(name).algebra
        for rep in builtin_family(alg):
            vals = [sum(t.terms.values()) for t in traces(rep)]
            assert all(Fraction(v).denominator == 1 for v in vals)
            assert vals[0] == rep.dim
            total = sum(vals[w] * vals[alg.table.inverse[w]]
                        for w in range(alg.table.size))
            assert total == alg.table.size


def test_braid_validation_rejects_corrupt_matrices():
    alg = get_session("I2:4").algebra
    good = dihedral_rep(alg, 1)
    bad_gens = [good.gens[0], good.gens[1].scale_poly(LaurentPoly.monomial((1,)))]
    from heckecell.reps import MatrixRep
    with pytest.raises(VerificationError, match="braid violation"):
        MatrixRep(alg, "corrupt", bad_gens)


def twisted_i24():
    """rho_1 of I2:4 conjugated by diag(eps, 1), with the Schur data of rho_1."""
    alg = get_session("I2:4").algebra
    rep = dihedral_rep(alg, 1)
    eps, inv_eps = LaurentPoly.monomial((1,)), LaurentPoly.monomial((-1,))
    one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
    d = KMatrix.from_polys([[eps, zero], [zero, one]])
    dinv = KMatrix.from_polys([[inv_eps, zero], [zero, one]])
    return MatrixRep(alg, "twisted", [dinv * g * d for g in rep.gens]), own_schur_data(rep)


def test_unbalanced_after_monomial_conjugation():
    """Conjugating by diag(eps, 1) yields an equivalent representation whose
    own normalized invariant form acquires a singular constant matrix."""
    twisted, sd = twisted_i24()
    words = twisted.words()
    omega = gram_average(words)
    assert is_balanced(twisted, omega) is False
    with pytest.raises(VerificationError, match="representation not balanced"):
        leading_tensor(twisted, sd, words)

    # balancing recovers an equivalent balanced model with the same invariants
    fixed, fixed_words = balance(twisted, omega, words)
    assert is_balanced(fixed, fixed.gram) is True
    assert leading_tensor(fixed, sd, fixed_words).a == sd.a


@pytest.mark.parametrize("model", ["twisted I2:4", "B2 universal"])
@pytest.mark.parametrize("sign,parity", [(-1, None), (1, 0), (1, 1), (-1, 1)])
def test_balance_ignores_a_scalar_multiple_of_the_form(model, sign, parity):
    """balance(rep, c Omega) for c = -1, eps^g and -eps^g (g = 0 for parity
    None, else g even or odd) gives the generators and the normalized form
    of balance(rep, Omega). An odd g takes the parity fix, and sign -1 the
    sign flip, which the unscaled form reaches on neither model."""
    if model == "twisted I2:4":
        rep, _ = twisted_i24()
        omega = gram_average(rep.words())
        exps = [(-2,), (3,)]
    else:
        alg = get_session("B2", "universal", "b-first").algebra
        rep = next(r for r in builtin_family(alg) if r.dim == 2)
        omega = own_gram(rep)
        exps = [(2, -4), (1, 2)]
    g = (0,) * rep.alg.rank if parity is None else exps[parity]
    words = rep.words()
    want, _ = balance(rep, omega, words)
    got, _ = balance(rep, omega.scale_poly(LaurentPoly.monomial(g, sign)), words)
    assert got.gens == want.gens
    assert got.gram == want.gram


# B3 equal has two seminormal models that need balancing.
BALANCE_SYSTEMS = [("A2", "equal", None), ("A3", "equal", None),
                   ("B2", "universal", "b-first"), ("B3", "universal", "b-first"),
                   ("B3", "equal", None)] + [(f"I2:{m}", "equal", None) for m in range(5, 13)]


def reference_balanced(omega):
    """The criterion before the residue map: det Omega, a Bareiss determinant
    over the Laurent ring, has valuation zero."""
    return omega.det().valuation()[0] == (0,) * omega.rank


@pytest.mark.parametrize("system,weights,order", BALANCE_SYSTEMS,
                         ids=[f"{s}-{w}" for s, w, _ in BALANCE_SYSTEMS])
def test_is_balanced_agrees_with_the_laurent_determinant(system, weights, order):
    """Every built-in representation, before and after balancing."""
    session = get_session(system, weights, order)
    seen = set()
    for rep in session.family:
        omega = own_gram(rep)
        flag = is_balanced(rep, omega)
        assert flag is reference_balanced(omega)
        seen.add(flag)
        # balanced_tensor cross-checked both verdicts against the direct definition
        b = session.balanced[rep.label]
        assert (b.rep is rep) is flag
        assert is_balanced(b.rep, b.gram) is reference_balanced(b.gram) is True
    assert True in seen


def test_is_balanced_agrees_with_the_laurent_determinant_on_a_twisted_model():
    twisted, sd = twisted_i24()
    omega = gram_average(twisted.words())
    assert is_balanced(twisted, omega) is reference_balanced(omega) is False
    b = balanced_tensor(twisted)
    assert b.rep is not twisted and b.schur == sd
    assert is_balanced(b.rep, b.gram) is reference_balanced(b.gram) is True


def test_is_balanced_rejects_a_gram_outside_the_valuation_ring():
    rep = dihedral_rep(get_session("I2:5").algebra, 1)
    omega = own_gram(rep).scale_poly(LaurentPoly.monomial((-1,)))
    with pytest.raises(VerificationError, match="Gram matrix not normalized into O"):
        is_balanced(rep, omega)


@pytest.mark.parametrize("rows,message", [
    ([[1, 1], [0, 1]], "is not symmetric"),
    ([[1, 0], [0, 1]], "fails intertwining at generator 0"),  # rho(T_0) is not symmetric
])
def test_check_intertwining_rejects_a_form_that_is_not_invariant(rows, message):
    rep = dihedral_rep(get_session("I2:5").algebra, 1)
    with pytest.raises(VerificationError, match=f"Gram matrix for dihedral:1 {message}$"):
        check_intertwining(rep, constant_form(rows))


def test_balance_rejects_an_indefinite_form_at_its_zero_pivot():
    """[[0, 1], [1, 1]] has e_0^tr Omega e_0 = 0 with e_0 != 0, so no change of
    basis makes it positive."""
    rep = dihedral_rep(get_session("I2:5").algebra, 1)
    with pytest.raises(ComputationError, match="^form is not definite$"):
        balance(rep, constant_form([[0, 1], [1, 1]]), rep.words())


def test_wrong_a_invariant_fails_the_direct_check_and_the_tensor(monkeypatch):
    """With a one too small, eps^a rho(T_1) lies outside O: the direct
    definition then disagrees with the (correct) determinant criterion, and
    the leading tensor refuses the representation."""
    rep = dihedral_rep(get_session("I2:5").algebra, 1)
    sd = own_schur_data(rep)
    wrong = SchurData(sd.c, tuple(x - 1 for x in sd.a), sd.f)
    assert is_balanced(rep, own_gram(rep)) is True
    assert balanced_tensor(rep).rep is rep
    monkeypatch.setattr(reps, "schur_data", lambda r, words: wrong)
    with pytest.raises(ComputationError, match="disagrees with the direct definition"):
        balanced_tensor(rep)
    with pytest.raises(VerificationError, match="representation not balanced"):
        leading_tensor(rep, wrong, rep.words())


def test_gram_test_rejecting_a_model_inside_o_is_a_disagreement(monkeypatch):
    """The other direction: every eps^a rho(T_w) lies in O, but the Gram test
    says unbalanced."""
    rep = dihedral_rep(get_session("I2:5").algebra, 1)
    assert balanced_tensor(rep).rep is rep
    monkeypatch.setattr(reps, "is_balanced", lambda r, omega: False)
    with pytest.raises(ComputationError, match="disagrees with the direct definition"):
        balanced_tensor(rep)


def test_a_model_the_gram_test_still_rejects_fails_balancing(monkeypatch):
    twisted, _ = twisted_i24()
    monkeypatch.setattr(reps, "is_balanced", lambda r, omega: False)
    with pytest.raises(VerificationError, match="balancing failed for twisted"):
        balanced_tensor(twisted)


def test_balance_restores_gamma_table():
    """The leading tensors of a rebalanced twisted model generate the same
    structure constants as the original family (choice independence)."""
    from heckecell.asymptotic import AsymptoticRing
    from heckecell.reps import MatrixRep
    alg = get_session("I2:4").algebra
    family = builtin_family(alg)
    base = AsymptoticRing(alg, [own_leading_tensor(r) for r in family])

    rep = dihedral_rep(alg, 1)
    d = KMatrix.from_polys(
        [[LaurentPoly.monomial((2,)), LaurentPoly.zero(1)],
         [LaurentPoly.zero(1), LaurentPoly.one(1)]])
    dinv = KMatrix.from_polys(
        [[LaurentPoly.monomial((-2,)), LaurentPoly.zero(1)],
         [LaurentPoly.zero(1), LaurentPoly.one(1)]])
    twisted = MatrixRep(alg, "dihedral:1", [dinv * g * d for g in rep.gens])
    words = twisted.words()
    fixed, fixed_words = balance(twisted, invariant_gram(twisted, words), words)
    tens2 = [leading_tensor(fixed, own_schur_data(r), fixed_words) if r.label == "dihedral:1"
             else own_leading_tensor(r) for r in family]
    other = AsymptoticRing(alg, tens2)
    assert base.gamma == other.gamma


def test_b3_seminormal_generators_share_one_denominator_per_binomial():
    # entries over 1 - r and (1 - r)^2 share (1 - r)^2, three terms; the
    # product of the distinct denominators, (1 - r)^3, had four
    session = get_session("B3", "universal", "b-first")
    dens = [g.den for r in session.family for g in r.gens]
    assert max(len(d.terms) for d in dens) == 3


def test_b3_balanced_models_read_their_words_through_the_conjugator():
    # B3 equal rebalances two seminormal models; each word matrix `balance`
    # returns is C^-1 rho(T_w) C from the replaced model's words, and must
    # equal the balanced model's own word matrix, its generators multiplied
    # along the reduced word of w
    session = get_session("B3")
    balanced = session.balanced
    replaced = [r for r in session.family if balanced[r.label].rep is not r]
    assert [r.label for r in replaced] == ["B:((1, 1), (1,))", "B:((1,), (2,))"]
    for r in replaced:
        words = r.words()
        model, conjugated = balance(r, invariant_gram(r, words), words)
        assert model.gens == balanced[r.label].rep.gens
        own = model.words()
        assert len(conjugated) == len(own) == session.table.size
        assert all(got == want for got, want in zip(conjugated, own))


def word_matrix_census(config: dict) -> tuple:
    """(made, held): the ids of the KMatrix objects that building
    `Session(config).ring` leaves alive, and of the generators and forms that
    its family and balanced models hold."""
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) is KMatrix]  # kept, so no id is reused
    seen = {id(o) for o in before}
    session = Session(config)
    session.ring  # noqa: B018 - builds every balanced model and its tensor
    gc.collect()
    made = {id(o) for o in gc.get_objects() if type(o) is KMatrix} - seen
    held = {id(r.gram) for r in session.family}
    held.update(id(g) for r in session.family for g in r.gens)
    for b in session.balanced.values():
        held.update([id(b.gram), id(b.rep.gram), *map(id, b.rep.gens)])
    return made, held


WORD_CENSUS_SYSTEMS = [{"system": "B3"}, {"system": "I2:12", "weights": '{"0":[1],"1":[2]}'},
                       {"system": "B3", "weights": "universal", "order": "b-first"}]


@pytest.mark.parametrize("config", WORD_CENSUS_SYSTEMS, ids=["B3", "I2:12-1,2", "B3-universal"])
def test_no_word_matrix_outlives_the_balanced_models(config):
    # B3 equal and I2:12 with weights (1, 2) rebalance models, B3 universal
    # does not; every KMatrix left alive is a generator or a form
    made, held = word_matrix_census(config)
    assert made and made <= held


def test_balanced_seminormal_b2_has_integral_tensor():
    session = get_session("B2")
    for t in session.tensors:
        for ents in t.entries.values():
            for _, _, c in ents:
                assert Fraction(c).denominator == 1


@pytest.mark.parametrize("m", [5, 7])
def test_dihedral_tensors_lie_in_the_cosine_ring(m):
    session = get_session(f"I2:{m}")
    for t in session.tensors:
        for ents in t.entries.values():
            for _, _, c in ents:
                assert _lies_in_r(c, set())


def test_a4_seminormal_smoke():
    from heckecell.reps import partitions, standard_tableaux
    session = get_session("A4")
    assert sum(len(standard_tableaux((tuple(p),)))**2 for p in partitions(5)) == 120
    rep = seminormal_rep(session.algebra, (3, 2))
    assert rep.dim == 5
    sd = own_schur_data(rep)
    assert sd.a == (2,) and sd.f == 1


def test_h3_needs_representation_files():
    with pytest.raises(InputError, match="supply representation files"):
        builtin_family(get_session("H3").algebra)


def test_schur_relations_and_duplicate_detection():
    session = get_session("I2:5")
    alg = session.algebra
    assert verify_schur_relations(alg, session.tensors) == []
    # same total dimension but a repeated irreducible: cross-orthogonality fails
    fam = builtin_family(alg)
    fam[1] = fam[0]
    tens = [own_leading_tensor(r) for r in fam]
    assert verify_schur_relations(alg, tens)
    # incomplete family: dimension count gate
    with pytest.raises(VerificationError, match="missing irreducibles"):
        verify_schur_relations(alg, tens[:2])


# Violations of each orthogonality family after each edit of
# `edited_leading_session`, as (label, label, i, j, k, l) or (x, y).
D1, D2 = "dihedral:1", "dihedral:2"
EDITED_SCHUR_VIOLATIONS = {
    ("first", "zero"): [(D1, D1, 0, 0, 1, 0), (D1, D1, 1, 0, 0, 0), (D1, D1, 1, 0, 1, 0),
                        (D1, D2, 1, 0, 0, 0), (D2, D1, 0, 0, 1, 0)],
    ("first", "nonzero"): [(D1, D1, 0, 0, 0, 0), (D1, D2, 0, 0, 0, 0), (D2, D1, 0, 0, 0, 0)],
    ("second", "zero"): [(1, 4), (1, 8), (3, 1), (7, 1)],
    ("second", "nonzero"): [(1, 1), (1, 5), (5, 1)],
    ("first", "erased"): [("onedim:++", "onedim:++", 0, 0, 0, 0)],
    ("second", "erased"): [(0, 0)],
}


@pytest.mark.parametrize("edit", ["zero", "nonzero", "erased"])
@pytest.mark.parametrize("family", ["first", "second"])
def test_schur_relations_detect_an_edited_leading_entry(family, edit):
    session = edited_leading_session(edit)
    found = [v for v in verify_schur_relations(session.algebra, session.ring.tensors)
             if v.startswith(f"{family} family")]
    if family == "first":
        want = [f"first family fails at ({a},{b},i={i},j={j},k={k},l={l})"
                for a, b, i, j, k, l in EDITED_SCHUR_VIOLATIONS[(family, edit)]]
    else:
        want = [f"second family fails at (x={x},y={y})"
                for x, y in EDITED_SCHUR_VIOLATIONS[(family, edit)]]
    assert found == want


def reference_schur_relations(alg, tensors) -> list:
    """Both orthogonality families summed one field product at a time: the
    reference for the packed sums of `verify_schur_relations`."""
    size, inverse = alg.table.size, alg.table.inverse
    violations = []
    for li, t1 in enumerate(tensors):
        for lj, t2 in enumerate(tensors):
            acc: dict = {}
            for w, ents in t1.entries.items():
                for k, l, b in t2.entries.get(inverse[w], ()):
                    for i, j, a in ents:
                        accumulate(acc, (i, j, k, l), a * b)
            keys = set(acc)
            if li == lj:
                keys.update((i, j, j, i) for i in range(t1.dim) for j in range(t1.dim))
            for i, j, k, l in sorted(keys):
                want = t1.f if (li == lj and i == l and j == k) else 0
                if acc.get((i, j, k, l), 0) != want:
                    violations.append(f"first family fails at ({t1.label},{t2.label},"
                                      f"i={i},j={j},k={k},l={l})")
    acc = {}
    for t in tensors:
        fi = scalar_inverse(t.f)
        for x, ents in t.entries.items():
            for i, j, a in ents:
                for z, zents in t.entries.items():
                    for k, l, c in zents:
                        if (k, l) == (j, i):
                            accumulate(acc, (x, inverse[z]), fi * a * c)
    for x, y in sorted(set(acc) | {(x, x) for x in range(size)}):
        if acc.get((x, y), 0) != (x == y):
            violations.append(f"second family fails at (x={x},y={y})")
    return violations


@pytest.mark.parametrize("name,weights,order", [
    ("I2:11", "equal", None), ("I2:12", "universal", "b-first"), ("B3", "universal", "b-first"),
])
def test_packed_schur_sums_agree_with_the_field_products(name, weights, order):
    """An entry of each representation moved by 1/3 (by delta/3 over a field
    of degree above one): both families list the reference's violations."""
    session = get_session(name, weights, order)
    alg = session.algebra
    field = alg.table.field
    step = Fraction(1, 3) if field.degree == 1 else field.delta() * Fraction(1, 3)
    tensors = []
    for t in session.tensors:
        w = max(t.entries)
        entries = dict(t.entries)
        (i, j, c), *rest = entries[w]
        entries[w] = [(i, j, c + step), *rest]
        tensors.append(dataclasses.replace(t, entries=entries))
    found = verify_schur_relations(alg, tensors)
    assert found == reference_schur_relations(alg, tensors)
    assert any(v.startswith("first") for v in found)
    assert any(v.startswith("second") for v in found)
    assert reference_schur_relations(alg, session.tensors) == []


def test_minimality_of_the_shift():
    """Some entry of eps^a rho(T_w) has constant term != 0: the tensor of a
    balanced representation is never empty, and a smaller shift would fail."""
    for name in ("A2", "B2"):
        session = get_session(name)
        for t in session.tensors:
            assert t.entries


def test_a_value_link_equal_parameters():
    for name in ("A2", "B2", "I2:3", "I2:4", "I2:5", "I2:6"):
        session = get_session(name)
        alg = session.algebra
        for t in session.tensors:
            for w in t.entries:
                assert alg.a_value(w) == t.a


# -- file loading -------------------------------------------------------------------


@pytest.mark.parametrize("weights,order", [("equal", None), ("universal", "b-first")])
def test_explicit_file_roundtrip(tmp_path, weights, order):
    session = get_session("I2:4", weights, order)
    alg = session.algebra
    rep = dihedral_rep(alg, 1)
    field = alg.table.field
    data = {
        "label": "rho1",
        "dim": 2,
        "generators": {
            str(s): [[rep.gens[s].num[i][j].exact_divide(rep.gens[s].den).to_str(field, alg.order)
                      for j in range(2)] for i in range(2)]
            for s in range(2)
        },
    }
    path = tmp_path / "rho1.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = load_rep(alg, path)
    for s in range(2):
        assert loaded.gens[s] == rep.gens[s]


def test_wgraph_degenerate_and_two_dimensional():
    alg = get_session("A2").algebra
    s0 = alg.table.gen(0)
    ind = rep_from_dict(alg, {"label": "ind", "wgraph": {"vertices": [[]], "edges": []}})
    assert traces(ind)[s0] == traces(index_rep(alg))[s0]
    sgn = rep_from_dict(alg, {"label": "sgn", "wgraph": {"vertices": [[0, 1]], "edges": []}})
    assert traces(sgn)[s0] == traces(sign_rep(alg))[s0]
    two = rep_from_dict(alg, {
        "label": "refl",
        "wgraph": {"vertices": [[0], [1]], "edges": [{"u": 0, "v": 1, "weight": 1}]},
    })
    assert traces(two) == traces(seminormal_rep(alg, (2, 1)))


A3_REFLECTION_WGRAPH = {"label": "refl", "wgraph": {"vertices": [[0], [1], [2]],
                                                     "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}]}}


def fraction_coefficients(mats) -> list:
    """The Fraction coefficients of the numerators and denominators of mats."""
    return [c for m in mats for p in [m.den] + [x for row in m.num for x in row]
            for c in p.terms.values() if type(c) is Fraction]


@pytest.mark.parametrize("case", [("B2", '{"0":[1],"1":[2]}'), ("B3", "equal"),
                                  ("B3", '{"0":[1],"1":[2],"2":[2]}'),
                                  ("I2:12", '{"0":[1],"1":[2]}'), ("A3", "wgraph")],
                         ids=lambda case: "-".join(case))
def test_word_matrices_carry_no_fraction(case):
    """Rational coefficients are cleared where they enter (`from_fractions`,
    integer W-graph weights), so the generators of every model, and the
    generators, word matrices and Gram of every rebalanced one, have int or
    cyclotomic coefficients only."""
    system, weights = case
    if weights == "wgraph":
        family = [rep_from_dict(get_session(system).algebra, A3_REFLECTION_WGRAPH)]
        models = [balanced_tensor(family[0])]
    else:
        session = get_session(system, weights)
        family = session.family
        models = [session.balanced[rep.label] for rep in family]
    assert fraction_coefficients(g for rep in family for g in rep.gens) == []
    rebalanced = 0
    for rep, b in zip(family, models):
        if b.rep is not rep:
            words = rep.words()
            model, conjugated = balance(rep, invariant_gram(rep, words), words)
            assert model.gens == b.rep.gens
            assert fraction_coefficients([*model.gens, *conjugated, model.gram, b.gram]) == []
            rebalanced += 1
    if case == ("B3", "equal"):
        assert rebalanced


def test_wgraph_braid_violation_rejected():
    alg = get_session("A2").algebra
    with pytest.raises(VerificationError, match="braid violation"):
        rep_from_dict(alg, {
            "label": "bad",
            "wgraph": {"vertices": [[0], [1]],
                       "edges": [{"u": 0, "v": 1, "weight": 2}]},
        })


def test_load_rep_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="cannot read"):
        load_rep(get_session("A2").algebra, path)
