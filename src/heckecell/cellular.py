"""Cellular structure on the Hecke algebra from asymptotic-ring data.

The partial order on irreducibles compares blocks inside the two-sided
preorder; B-matrices are the constant-term matrices of the normalized
invariant forms; the cellular basis elements are

    C^lam_{s,t} = sum_w sum_u beta^lam_{t,u} M^lam_{u,s}(t_{w^{-1}}) C_w,

with constant coefficients in R = Z[delta][1/p : p in invertible_primes],
the primes of the norms of the B-matrix determinants and of the f_lam.
The module also provides the algebra homomorphism into the (Laurent-extended) asymptotic ring, the bimodule
compatibility identity that underpins it, axiom verification for the cell
datum, and weight specialization of the finished basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .asymptotic import AsymptoticRing, Report
from .coxeter import WeightFunction
from .errors import ComputationError, InputError, VerificationError
from .fields import CycloNumber, ProductPacking
from .hecke import HeckeAlgebra
from .matrices import KMatrix, f_det, f_inverse, f_nonzero, f_sparse_mul
from .reps import LeadingTensor
from .scalars import LaurentPoly, accumulate, int_if_integral, scalar_inverse

def b_matrix(rep_gram: KMatrix, tensor: LeadingTensor, alg: HeckeAlgebra):
    """Constant-term matrix of a normalized balanced Gram form.

    Asserts: symmetric, positive-definite (exact signs of leading principal
    minors), nonzero determinant, and the intertwining property against the
    leading matrices of the same representation, `tensor`, for every group
    element.
    """
    label = tensor.label
    field = alg.table.field
    d = rep_gram.dim
    beta = rep_gram.residue()
    if beta is None:
        raise ComputationError("not in valuation ring")
    for i in range(d):
        for j in range(i):
            if beta[i][j] != beta[j][i]:
                raise VerificationError(f"constant form of {label} is not symmetric")
    for k in range(1, d + 1):
        minor = f_det([row[:k] for row in beta[:k]])
        if field.sign(minor) <= 0:
            raise VerificationError(
                f"constant form of {label} is not positive-definite (minor {k})")
    inverse = alg.table.inverse
    nz = tensor.entries
    ents = f_nonzero(beta)
    for w in range(alg.table.size):
        lhs = f_sparse_mul(ents, nz.get(inverse[w], ()))
        rhs = f_sparse_mul([(j, i, c) for i, j, c in nz.get(w, ())], ents)
        if lhs != rhs:
            raise VerificationError(f"constant form of {label} fails intertwining at {w}")
    return beta


def norm_primes(field, value) -> set:
    """Rational primes dividing the numerator or denominator of the norm."""
    n = field.norm(value)
    primes = set()
    for v in (abs(n.numerator), n.denominator):
        p = 2
        while p * p <= v:
            if v % p == 0:
                primes.add(p)
                while v % p == 0:
                    v //= p
            p += 1
        if v > 1:
            primes.add(v)
    return primes


@dataclass
class CellDatum:
    alg: HeckeAlgebra
    ring: AsymptoticRing
    labels: list
    leq: dict            # (label, label) -> bool for the partial order
    msize: dict          # label -> number of rows/columns of its M-set
    bmatrices: dict      # label -> constant symmetric matrix over F
    elements: dict       # (label, s, t) -> {w: F-scalar}, coordinates in the C-basis
    invertible_primes: set = dc_field(default_factory=set)


def lambda_order(alg: HeckeAlgebra, ring: AsymptoticRing) -> dict:
    """The partial order: lam <= mu iff lam = mu, or block(lam) sits strictly
    below block(mu) in the two-sided preorder. Checked to be representative-
    independent, antisymmetric and transitive, once per pair of blocks."""
    labels = [t.label for t in ring.tensors]
    block = ring.block_of_label
    _, _, cell_of = alg.lr_cells()
    below: dict = {}  # (block, block) -> bool
    for la in labels:
        for mu in labels:
            pair = (block[la], block[mu])
            if la != mu and pair not in below:
                results = {(alg.leq_lr(x, y) and cell_of[x] != cell_of[y])
                           for x in ring.blocks[pair[0]] for y in ring.blocks[pair[1]]}
                if len(results) != 1:
                    raise ComputationError(
                        f"order between {la} and {mu} depends on block representatives")
                below[pair] = results.pop()
    leq = {(la, mu): la == mu or below[(block[la], block[mu])] for la in labels for mu in labels}
    for la in labels:
        for mu in labels:
            if la != mu and leq[(la, mu)] and leq[(mu, la)]:
                raise ComputationError("lambda order is not antisymmetric")
            for nu in labels:
                if leq[(la, mu)] and leq[(mu, nu)] and not leq[(la, nu)]:
                    raise ComputationError("lambda order is not transitive")
    return leq


def build_cell_datum(alg: HeckeAlgebra, ring: AsymptoticRing, grams: dict) -> CellDatum:
    """Assemble the cell datum from balanced Gram forms (label -> KMatrix).

    invertible_primes is read off every tensor first; then each coefficient
    must lie in R (`_lies_in_r`, the membership rule of C1's certificate).
    It is stored through `scalars.int_if_integral`, as the ring stores n:
    a rational integer is an int (every rational coefficient on the
    systems checked), so specialization, the transition matrices and the
    T_s products of the checks run int arithmetic."""
    field = alg.table.field
    inverse = alg.table.inverse
    leq = lambda_order(alg, ring)
    labels = [t.label for t in ring.tensors]
    bmats = {t.label: b_matrix(grams[t.label], t, alg) for t in ring.tensors}
    msize = {t.label: t.dim for t in ring.tensors}
    primes = set().union(*(norm_primes(field, f_det(bmats[t.label])) | norm_primes(field, t.f)
                           for t in ring.tensors))
    elements = {}
    for t in ring.tensors:
        block = set(ring.blocks[ring.block_of_label[t.label]])
        # the coefficient of C_{w^{-1}} in C^lam_{s,tt} is (beta M_w)[tt][s]
        columns: dict = {}
        ents = f_nonzero(bmats[t.label])
        for w, mw in t.entries.items():
            for (tt, s), acc in f_sparse_mul(ents, mw).items():
                columns.setdefault((s, tt), {})[inverse[w]] = int_if_integral(acc)
        for s in range(t.dim):
            for tt in range(t.dim):
                coeffs = columns.get((s, tt), {})
                for winv, acc in coeffs.items():
                    if winv not in block:
                        raise ComputationError(
                            f"cellular element of {t.label} leaves its block")
                    if not _lies_in_r(acc, primes):
                        raise VerificationError(
                            f"integrality violation in cellular element of {t.label}")
                elements[(t.label, s, tt)] = coeffs
    return CellDatum(alg, ring, labels, leq, msize, bmats, elements, primes)


# -- axiom verification ------------------------------------------------------------


def verify_cell_datum(datum: CellDatum) -> Report:
    """C1 basis, C2 star and C3 left action of the cell datum.

    C1 asks for a basis over R = Z[delta][1/p : p in invertible_primes]. The
    transition matrix P[(lam,s,t)][u] = (beta_lam M^lam_{u^-1})[t][s] has the
    closed-form inverse Q[u][(lam,s,t)] = f_lam^-1 (M^lam_u beta_lam^-1)[s][t]:
    the first Schur family, sum_w M^lam_w[a][s] M^mu_{w^-1}[s'][b] =
    d_{lam,mu} d_ab d_ss' f_lam, makes (PQ)[(lam,s,t)][(mu,s',t')] =
    d_{lam,mu} d_ss' (beta_lam beta_lam^-1)[t][t']. C1 passes on a certificate
    (`_certified_coords`): |W| keys, every entry of P and Q in R
    (`_lies_in_r`) and PQ = I; then det P det Q = 1 makes det P a unit of R.
    Otherwise one elimination over F inverts P, and C1 asks that det P be a
    unit of R (P lies over R, so P^-1 = adj P / det P then does): every failing
    C1 report comes from there. C3 is checked only on a square, nonsingular
    basis, from the rows of either inverse."""
    report = Report()
    size = datum.alg.table.size
    keys = _cell_keys(datum)
    bad = []
    coords = None
    if len(keys) != size:
        bad.append(f"basis has {len(keys)} elements for group order {size}")
    elif (coords := _certified_coords(datum, keys, _closed_form_rows(datum, keys),
                                      datum.invertible_primes)) is None:
        try:
            inv, det = f_inverse([[datum.elements[key].get(w, 0) for w in range(size)]
                                  for key in keys])
        except ComputationError:
            bad.append("transition matrix to the canonical basis is singular")
        else:
            bad += _unit_violations(datum.alg.table.field, det, datum.invertible_primes,
                                    "transition determinant")
            coords = _cell_coords(datum, keys, [[(k, c) for k, c in enumerate(row) if c]
                                                for row in inv])
    report.record("C1 basis", bad)
    report.record("C2 star", _star_violations(datum))
    report.record("C3 left action", _c3_violations(datum, coords) if coords is not None
                  else [f"C3 not checked: {bad[0]}"])
    return report


def _closed_form_rows(datum: CellDatum, keys: list) -> list:
    """The rows u -> [(key index, Q[u][key])] of the closed-form inverse Q."""
    index = {key: k for k, key in enumerate(keys)}
    rows: list = [[] for _ in range(datum.alg.table.size)]
    for t in datum.ring.tensors:
        binv, _ = f_inverse(datum.bmatrices[t.label])
        fi = scalar_inverse(t.f)
        right = [(j, tt, fi * c) for j, tt, c in f_nonzero(binv)]
        for u, mu in t.entries.items():
            rows[u] += [(index[(t.label, s, tt)], c)
                        for (s, tt), c in f_sparse_mul(mu, right).items()]
    return rows


def _certified_coords(datum: CellDatum, keys: list, rows: list, primes: set):
    """`_cell_coords` on the rows of Q if every entry of P and Q lies in
    R = Z[delta][1/p : p in primes] and each element's own coordinates, its
    row of PQ, are itself; else None."""
    entries = [c for key in keys for c in datum.elements[key].values()]
    entries += [q for row in rows for _, q in row]
    if not all(_lies_in_r(c, primes) for c in entries):
        return None
    coords = _cell_coords(datum, keys, rows)
    one = LaurentPoly.one(datum.alg.rank)
    return coords if all(coords(None, key) == {key: one} for key in keys) else None


def _lies_in_r(c, primes: set) -> bool:
    """Whether c lies in R = Z[delta][1/p : p in primes]: every prime of its
    reduced denominator is in `primes`. Exact, as the powers of delta are a
    Z-basis of Z[delta], the ring of integers of Q(delta)."""
    den = c.den if isinstance(c, CycloNumber) else c.denominator
    for p in primes:
        while den % p == 0:
            den //= p
    return den == 1


def _unit_violations(field, c, primes: set, what: str) -> list:
    """[] when c in R = Z[delta][1/p : p in primes] is a unit of R, i.e. its
    norm has no prime factor outside `primes`; else the one violation. Exact,
    as Q(delta) is Galois and R is stable under its automorphisms: the norm
    is c times conjugates of c, all in R."""
    if norm_primes(field, c) <= primes:
        return []
    return [f"{what} {field.format(c)} is not a unit of Z[d][1/p : p in {sorted(primes)}]"]


def _cell_keys(basis) -> list:
    """(label, s, t) for every element of a CellDatum or SpecializedBasis."""
    return [(lab, s, t) for lab in basis.labels
            for s in range(basis.msize[lab]) for t in range(basis.msize[lab])]


def _star_violations(basis) -> list:
    """The star axiom: w -> w^{-1} carries the coordinates of C^lam_{s,t} to
    those of C^lam_{t,s}. `basis` is a CellDatum or a SpecializedBasis."""
    inverse = basis.alg.table.inverse
    bad = []
    for lab, s, t in _cell_keys(basis):
        starred = {inverse[w]: c for w, c in basis.elements[(lab, s, t)].items()}
        if starred != basis.elements[(lab, t, s)]:
            bad.append(f"star axiom fails for {lab} at ({s},{t})")
    return bad


def _c3_violations(basis, coords) -> list:
    """Left multiplication by each T_s modulo lower layers: T_s C^lam_{s,t}
    may reach only C^lam_{s',t} and layers strictly below lam, and the
    coefficient matrix r(s', s) must not depend on the right tableau index t.

    `basis` is a CellDatum or a SpecializedBasis; coords(s_gen, key) gives the
    cellular coordinates of T_s times the element `key` as Laurent
    polynomials, all times one common nonzero Laurent polynomial (1 when
    they are exact, det P_T for the numerators of `verify_specialized`'s
    elimination), which changes no support and no t-independence."""
    alg = basis.alg
    bad = []
    for lab in basis.labels:
        d = basis.msize[lab]
        allowed_below = {mu for mu in basis.labels if mu != lab and basis.leq[(mu, lab)]}
        for s_gen in range(alg.table.system.ngens):
            r_mats = []
            for t in range(d):
                r_mat = [[LaurentPoly.zero(alg.rank)] * d for _ in range(d)]
                coords_ok = True
                for s in range(d):
                    for (mu, s2, t2), poly in coords(s_gen, (lab, s, t)).items():
                        if mu == lab:
                            if t2 != t:
                                bad.append(f"C3 support fails for {lab},{s_gen}: "
                                           f"hits ({mu},{s2},{t2}) from t={t}")
                                coords_ok = False
                            else:
                                r_mat[s2][s] = poly
                        elif mu not in allowed_below:
                            bad.append(f"C3 filtration fails for {lab},{s_gen}: hits {mu}")
                            coords_ok = False
                if coords_ok:
                    r_mats.append(r_mat)
            for other in r_mats[1:]:
                if other != r_mats[0]:
                    bad.append(f"C3 t-independence fails for {lab}, generator {s_gen}")
                    break
    return bad


def _cell_coords(datum: CellDatum, keys: list, rows: list):
    """coords(s, key) for `_c3_violations`, in key order, from the rows of an
    inverse transition matrix; s None gives the element's own coordinates.
    T_s C_w = v_s C_w - sum_z h_{s,w,z} C_z, so the coordinate at key k and
    exponent e sums c_w a Q[z][k] over the terms a eps^e of v_s (z = w) and
    of -h_{s,w,z} (a = 1, z = w for s None), on packed ints, read back once
    per (k, e). A polynomial has one term at e at most, so each w gives one
    product from v_s and one for each z: at most |W| (|W| + 1) per (k, e)."""
    alg = datum.alg
    size = alg.table.size
    support = {w for key in keys for w in datum.elements[key]}
    moves = {s: {w: [(w, e, a) for e, a in alg.v[s].terms.items()] + [
        (z, e, -a) for z, h in alg.gen_row(s, w).items() for e, a in h.terms.items()]
        for w in support} for s in range(alg.table.system.ngens)}
    moves[None] = {w: [(w, (0,) * alg.rank, 1)] for w in support}
    packing = ProductPacking(alg.table.field, [
        c for key in keys for c in datum.elements[key].values()] + [
        a for mv in moves.values() for ts in mv.values() for _, _, a in ts] + [
        q for row in rows for _, q in row], 3, size * (size + 1))
    pack, unpack = packing.pack, packing.unpack
    rows = [[(k, pack(q)) for k, q in row] for row in rows]
    moves = {s: {w: [(z, e, pack(a)) for z, e, a in ts] for w, ts in mv.items()}
             for s, mv in moves.items()}

    def coords(s, key):
        acc: dict = {}
        for w, c in datum.elements[key].items():
            c = pack(c)
            for z, e, a in moves[s][w]:
                ca = c * a
                for k, q in rows[z]:
                    acc[(k, e)] = acc.get((k, e), 0) + ca * q
        out: dict = {}
        for k, e in sorted(acc):
            if v := unpack(acc[(k, e)]):
                out.setdefault(keys[k], {})[e] = v
        return {key: LaurentPoly(alg.rank, terms) for key, terms in out.items()}

    return coords


# -- the homomorphism into the Laurent-extended asymptotic ring -----------------------


def hecke_to_asym(alg: HeckeAlgebra, ring: AsymptoticRing, w: int) -> dict:
    """Image of C_w: sum over d in D and z in the cell of d of h_{w,d,z} n_d t_z,
    as a dict z -> LaurentPoly."""
    out = {}
    rows = alg.h_rows()
    for d in ring.d_set:
        nd = ring.n_vec[d]
        for z, h in rows[w][d].items():
            if alg.sim_lr(z, d):
                accumulate(out, z, h.scale(nd))
    return out


def phi_element(alg: HeckeAlgebra, ring: AsymptoticRing, coeffs_c: dict) -> dict:
    """A-linear extension of the canonical-basis images."""
    out = {}
    for w, poly in coeffs_c.items():
        for z, p in hecke_to_asym(alg, ring, w).items():
            accumulate(out, z, p * poly)
    return out


def verify_phi(alg: HeckeAlgebra, ring: AsymptoticRing) -> Report:
    """Unitality, multiplicativity and the filtration property of the map,
    each exhaustive at every |W|.

    Multiplicativity, phi(C_x) phi(C_y) = sum_z h_{x,y,z} phi(C_z), is
    checked on the n |W| pairs with x a generator s. These cover every pair,
    by induction on l(x) along the recursion a true table satisfies: for
    x = s x' with l(x) = l(x') + 1,

        C_x = C_s C_{x'} - sum_{u != x} h_{s,x',u} C_u,    l(u) < l(x'),

    so sum_z h_{x,y,z} phi(C_z) is

        sum_w h_{x',y,w} sum_z h_{s,w,z} phi(C_z)
            - sum_u h_{s,x',u} sum_z h_{u,y,z} phi(C_z)
        = phi(C_s) (phi(C_{x'}) phi(C_y)) - sum_u h_{s,x',u} phi(C_u) phi(C_y)

    by the pairs (s, w) and the hypothesis for x' and each u. Regrouped as
    (phi(C_s) phi(C_{x'}) - sum_u h_{s,x',u} phi(C_u)) phi(C_y), the pair
    (s, x') and h_{s,x',x} = 1 make it phi(C_x) phi(C_y). Length 0 is
    "phi unital" with the ring's "two-sided identity".

    The induction takes the stored table to satisfy that recursion, which
    this check does not read: conditions (1)-(2) of
    `verify_bimodule_identity` are the check of that recursion on every
    in-cell entry, so a fault in a row of neither 1 nor a generator
    may pass here and is left to that check.

    The regrouping needs J to be associative. That follows from two checks
    that are exhaustive as well: the ring's "irreducible representations"
    (t_x -> M^lam_x is multiplicative) and the second Schur family (the
    tuples (M^lam_x)_lam are linearly independent). Together they make
    t_x -> (M^lam_x)_lam an injective multiplicative map into an associative
    algebra.

    The filtration check takes the same n |W| products."""
    report = Report()
    size = alg.table.size
    rank = alg.rank

    one = {w: LaurentPoly.constant(rank, c) for w, c in ring.identity_element().items()}
    bad = []
    if phi_element(alg, ring, {0: LaurentPoly.one(rank)}) != one:
        bad.append("image of the identity canonical-basis element is not the ring identity")
    report.record("phi unital", bad)

    bad = []
    rows = alg.h_rows()
    images = [hecke_to_asym(alg, ring, w) for w in range(size)]
    grows = ring.gamma_rows()
    gens = [alg.table.gen(s) for s in range(alg.table.system.ngens)]
    for x in gens:
        for y in range(size):
            lhs = ring.multiply(images[x], images[y], grows)
            rhs = {}
            for z, h in rows[x][y].items():
                for u, p in images[z].items():
                    accumulate(rhs, u, p * h)
            if lhs != rhs:
                bad.append(f"multiplicativity fails at ({x},{y})")
    report.record("phi multiplicative", bad)

    bad = []
    for x in gens:
        for w in range(size):
            # phi(C_x) t_w minus the regular-module transport
            # C_x . t_w = sum_z h_{x,w,z} t_z
            diff = ring.multiply(images[x], {w: LaurentPoly.one(rank)}, grows)
            for z, h in rows[x][w].items():
                accumulate(diff, z, -h)
            for y in diff:
                if not (alg.leq_lr(y, w) and not alg.sim_lr(y, w)):
                    bad.append(f"filtration fails: C_{x} on t_{w} hits t_{y}")
    report.record("phi filtration", bad)
    return report


def verify_bimodule_identity(alg: HeckeAlgebra, ring: AsymptoticRing,
                             exhaustive_max: int = 16, samples: int = 100000) -> Report:
    """For w ~ y in the two-sided order:
    sum_u gamma_{w,x',u^{-1}} h_{x,u,y} = sum_u h_{x,w,u} gamma_{u,x',y^{-1}}, u ~ w.

    In matrix form, with G_{x'}[w][u] = gamma_{w,x',u^{-1}} and
    B_x[w][u] = h_{x,w,u}, both kept only where u ~ w, this is
    G_{x'} B_x = B_x G_{x'}. The failing cases of one x are the keys left
    when both products, for every x', are summed into one map
    (`_commutator_failures`).

    The check is decided from the generators and the h-table recursion,
    every matrix read from the stored `h_rows()`. If

      1. B_1 = I,
      2. for every x with l(x) >= 2, s its first left descent and x' = s x,
         B_x = B_{x'} B_s - sum_{u != x} h_{s,x',u} B_u, with every such u
         shorter than x, and
      3. every B_s commutes with every G_{x'},

    then every B_x commutes with every G_{x'}, by induction on l(x): length
    0 is (1), length 1 is (3), and for l(x) >= 2 the right side of (2) is
    a sum of products of B_{x'}, B_s and the B_u, all shorter than x, so
    it commutes. Without the length test, an entry of a generator row at
    some u no shorter than x would let the induction lean on B_u before
    B_u is proved. On a true table, (2) is C_s C_{x'} = sum_u h_{s,x',u} C_u,
    the recursion the table satisfies, acting on the subquotient module of
    each two-sided cell, where C_x acts by B_x (row w holds the image of
    C_w). (2) reads every in-cell entry of the table, so a fault in a row
    of neither 1 nor a generator fails it, where "phi multiplicative",
    which reads generator rows only, may pass.

    A passing check runs the commutator for the n generators only. In
    process, min of nine calls on a 2-vCPU Xeon VM under Python 3.11.7:
    A4 0.064 s against 0.115 s for the commutator of every x, the five
    `dihedral` systems 0.022 s against 0.129 s, B3 universal/b-first level
    at 0.011 s. When the certificate fails, the commutator runs for every
    x, and its failing set covers every case at every |W|.

    The report lists that whole set in (w, y, x, x') order. `exhaustive_max`
    and `samples` only choose the check's name, "bimodule identity
    (exhaustive)" up to `exhaustive_max` elements and "(<samples> samples)"
    above: the name and both parameters stay until the benchmark is
    re-pinned, as its artifacts hold the name and `perfbench/tracer.py`
    binds the parameters by name."""
    size = alg.table.size
    rows = alg.h_rows()
    _, _, cell_of = alg.lr_cells()
    g_col, g_row = _gamma_blocks(alg, ring)
    gens = [alg.table.gen(s) for s in range(alg.table.system.ngens)]
    failing = set()
    for x in gens:
        failing |= _commutator_failures(x, rows, cell_of, g_col, g_row)
    if failing or not _recursion_certificate(alg, rows, cell_of):
        for x in range(size):
            if x not in gens:
                failing |= _commutator_failures(x, rows, cell_of, g_col, g_row)
    return _bimodule_report(alg, failing, exhaustive_max, samples)


def _gamma_blocks(alg: HeckeAlgebra, ring: AsymptoticRing):
    """The entries of every G_{x'}, with u ~ w, by column and by row:
    g_col[u] = [(x', w, gamma_{w,x',u^-1})], g_row[w] = [(x', u, same)]."""
    size = alg.table.size
    inverse = alg.table.inverse
    _, _, cell_of = alg.lr_cells()
    g_col: list = [[] for _ in range(size)]
    g_row: list = [[] for _ in range(size)]
    for (w, xp), row in ring.gamma_rows().items():
        for z, g in row:
            u = inverse[z]
            if cell_of[u] == cell_of[w]:
                g_col[u].append((xp, w, g))
                g_row[w].append((xp, u, g))
    return g_col, g_row


def _commutator_failures(x: int, rows, cell_of, g_col, g_row) -> set:
    """The (w, y, x, x') at which G_{x'} B_x and B_x G_{x'} differ, for every x'.

    Both products are summed into one map keyed (x', w, y, exponent), from
    the nonzero entries of the G_{x'} and of B_x indexed by row and by
    column, one step per product of nonzero coefficients; a key left in
    the map is a failing case."""
    size = len(rows)
    h_row: list = [[] for _ in range(size)]  # w -> [(u, h_{x,w,u})]
    h_col: list = [[] for _ in range(size)]  # u -> [(w, h_{x,w,u})]
    for w, hw in enumerate(rows[x]):
        cw = cell_of[w]
        for u, h in hw.items():
            if cell_of[u] == cw:
                h_row[w].append((u, h.terms))
                h_col[u].append((w, h.terms))
    # G_{x'} B_x - B_x G_{x'} for every x', by middle index u and exponent
    diff: dict = {}
    for u in range(size):
        if h_row[u]:
            for xp, w, g in g_col[u]:
                for y, terms in h_row[u]:
                    for e, c in terms.items():
                        accumulate(diff, (xp, w, y, e), g * c)
        if h_col[u]:
            for xp, y, g in g_row[u]:
                for w, terms in h_col[u]:
                    for e, c in terms.items():
                        accumulate(diff, (xp, w, y, e), -(g * c))
    return {(w, y, x, xp) for xp, w, y, _ in diff}


def _recursion_certificate(alg: HeckeAlgebra, rows, cell_of) -> bool:
    """Conditions (1) and (2) of `verify_bimodule_identity`: B_1 = I, and
    B_x = B_{x'} B_s - sum_{u != x} h_{s,x',u} B_u with every such u shorter
    than x, all read from `rows`. False at the first failure. (2) reads
    every x, so it also checks the rows `HeckeAlgebra.h_rows` fills from
    their partners under T_w -> T_{w^{-1}}.

    Each exponent e is packed into the int sum_i e_i k^i, k = 4 m + 1 for m
    the largest |e_i| stored: additive, and one-to-one on the exponents
    whose coordinates are at most 2 m in size, which holds every sum of two."""
    t = alg.table
    size, length = t.size, t.length
    exps = {e for row in rows for hw in row for h in hw.values() for e in h.terms}
    k = 4 * max((abs(a) for e in exps for a in e), default=0) + 1
    pack = {e: sum(a * k ** i for i, a in enumerate(e)) for e in exps}
    # blocks[x][w] = [(u, packed exponent, coefficient)] over the terms of
    # h_{x,w,u}, u ~ w: the rows of B_x
    blocks = [[[(u, pack[e], c) for u, h in hw.items() if cell_of[u] == cell_of[w]
                for e, c in h.terms.items()]
               for w, hw in enumerate(row)] for row in rows]
    if any(block != [(w, 0, 1)] for w, block in enumerate(blocks[0])):
        return False
    for x in range(size):
        if length[x] < 2:
            continue
        s = t.first_left_descent(x)
        xp, bs = t.lmult[x][s], blocks[t.gen(s)]
        corr = [(u, pack[e], -c) for u, h in rows[t.gen(s)][xp].items() if u != x
                for e, c in h.terms.items()]
        if any(length[u] >= length[x] for u, _, _ in corr):
            return False
        bx, bxp = blocks[x], blocks[xp]
        for w in range(size):
            # B_{x'} B_s - sum_u h_{s,x',u} B_u - B_x on row w, by (u, exponent)
            diff: dict = {}
            for v, e, c in bxp[w]:
                for u, f, d in bs[v]:
                    accumulate(diff, (u, e + f), c * d)
            for v, e, c in corr:
                for u, f, d in blocks[v][w]:
                    accumulate(diff, (u, e + f), c * d)
            for u, f, d in bx[w]:
                accumulate(diff, (u, f), -d)
            if diff:
                return False
    return True


def _bimodule_report(alg: HeckeAlgebra, failing: set, exhaustive_max: int,
                     samples: int) -> Report:
    """The bimodule report from the set of failing (w, y, x, x'), sorted."""
    name = ("bimodule identity (exhaustive)" if alg.table.size <= exhaustive_max
            else f"bimodule identity ({samples} samples)")
    report = Report()
    report.record(name, [f"identity fails at (x={x},x'={xp},y={y},w={w})"
                         for w, y, x, xp in sorted(failing)])
    return report


# -- weight specialization ----------------------------------------------------------


def specialization_hom(source: WeightFunction, target: WeightFunction) -> list:
    """Images of the source coordinate vectors under the group homomorphism
    determined by the target weight function (coordinate i of the source is
    the class-i indicator, so it maps to the target weight of that class).
    Both are an algebra's weights, so stored exponents map to stored ones.
    Generators that share a source coordinate must share a target weight."""
    images = [None] * source.rank
    for s, vec in enumerate(source.values):
        nonzero = [i for i, x in enumerate(vec) if x]
        if len(nonzero) != 1 or vec[nonzero[0]] != 1:
            raise InputError("specialization requires universal source weights")
        if images[nonzero[0]] not in (None, target.of_gen(s)):
            raise InputError(f"generators sharing source coordinate {nonzero[0]} "
                             "have different target weights")
        images[nonzero[0]] = target.of_gen(s)
    if any(im is None for im in images):
        raise InputError("some source coordinate touches no generator")
    return images


@dataclass
class SpecializedBasis:
    alg: HeckeAlgebra        # the target algebra
    labels: list
    leq: dict
    msize: dict
    elements: dict           # (label, s, t) -> {w: LaurentPoly over target rank}
    invertible_primes: set   # the datum's: R = Z[delta][1/p : p in them]
    datum: CellDatum         # the source: its certified Q certifies the basis by base change


def specialize_datum(datum: CellDatum, target_alg: HeckeAlgebra) -> SpecializedBasis:
    """Push the cellular basis along the exponent homomorphism fixed by the
    target weights; elements are returned in the T-basis of the target algebra."""
    src = datum.alg
    images = specialization_hom(src.weights, target_alg.weights)
    rank2 = target_alg.rank
    elements = {}
    for key, coeffs in datum.elements.items():
        tcoeffs = {}
        for w, c in coeffs.items():
            for u, p in src.c_basis(w).items():
                accumulate(tcoeffs, u, p.scale(c))
        # specializing the exponents can cancel terms
        elements[key] = {u: q for u, p in tcoeffs.items()
                         if (q := p.specialize_exponents(images, rank2))}
    return SpecializedBasis(target_alg, list(datum.labels), dict(datum.leq),
                            dict(datum.msize), elements, set(datum.invertible_primes), datum)


def verify_specialized(spec: SpecializedBasis) -> Report:
    """A'-basis, then the star axiom and t-independence of the generator
    action, checked only on a square, nonsingular basis.

    Specialization is the base change R[Gamma] -> R[Gamma'] along the
    exponent homomorphism of `specialization_hom`. It fixes every T_w, so it
    carries the source algebra's products to the target's. The certificate
    (`_specialized_coords`): the keys are the datum's, |W| of them; the
    elements are `specialize_datum` of the datum's, compared forward; and
    `_certified_coords` passes over R = Z[delta][1/p : p in
    spec.invertible_primes]. Then the datum's elements are a basis of the
    source algebra over R[Gamma] whose coordinates are exact, read off the
    inverse Q. Base change keeps a basis with an exact inverse a basis, and
    keeps each identity T_s C^lam_{s,t} = sum coords(s, key) C^mu_{s',t'}:
    A' is [], and C3 reads the datum's coordinates with their exponents
    specialized.

    Otherwise one elimination inverts P_T, the elements' coordinates in the
    target T-basis, and its determinant must be a unit of R[Gamma]: a single
    monomial c eps^g. The datum's elements lie over R, hence so does c, and
    such a c is a unit of R exactly when its norm has no prime factor
    outside invertible_primes. C3 then reads the numerators of the inverse,
    the exact coordinates times det P_T."""
    report = Report()
    alg = spec.alg
    size = alg.table.size
    keys = _cell_keys(spec)
    bad, coords = [], None
    if len(keys) != size:
        bad.append(f"basis has {len(keys)} elements for group order {size}")
    elif (coords := _specialized_coords(spec, keys)) is None:
        zero = LaurentPoly.zero(alg.rank)
        try:
            inv = KMatrix.from_polys(
                [[spec.elements[key].get(w, zero) for w in range(size)] for key in keys]).inverse()
        except ComputationError:
            bad.append("specialized transition matrix is singular")
        else:
            # the transition matrix has denominator 1: inv.den is its determinant
            if len(inv.den.terms) != 1:
                bad.append("specialized determinant is not a unit of the Laurent ring")
            else:
                (c,) = inv.den.terms.values()
                bad += _unit_violations(alg.table.field, c, spec.invertible_primes,
                                        "specialized determinant coefficient")

            def coords(s_gen, key):
                out = {}
                for w, poly in alg.gen_left(s_gen, spec.elements[key]).items():
                    for ki, c in enumerate(inv.num[w]):
                        if c:
                            accumulate(out, keys[ki], c * poly)
                return out
    report.record("A'-basis", bad)
    report.record("C2 star (specialized)", _star_violations(spec))
    report.record("C3 (specialized)", _c3_violations(spec, coords) if coords is not None
                  else [f"C3 not checked: {bad[0]}"])
    return report


def _specialized_coords(spec: SpecializedBasis, keys: list):
    """coords(s, key) when the certificate of `verify_specialized` holds: the
    datum's certified coordinates with their exponents specialized, zero
    ones dropped, in key order; else None."""
    datum, alg = spec.datum, spec.alg
    if keys != _cell_keys(datum) or spec.elements != specialize_datum(datum, alg).elements:
        return None
    source = _certified_coords(datum, keys, _closed_form_rows(datum, keys),
                               spec.invertible_primes)
    if source is None:
        return None
    images = specialization_hom(datum.alg.weights, alg.weights)

    def coords(s_gen, key):
        return {k: q for k, p in source(s_gen, key).items()
                if (q := p.specialize_exponents(images, alg.rank))}

    return coords
