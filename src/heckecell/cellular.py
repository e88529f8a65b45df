"""Cellular structure on the Hecke algebra from asymptotic-ring data.

The partial order on irreducibles compares blocks inside the two-sided
preorder; B-matrices are the constant-term matrices of the normalized
invariant forms; the cellular basis elements are

    C^lam_{s,t} = sum_w sum_u beta^lam_{t,u} M^lam_{u,s}(t_{w^{-1}}) C_w,

with constant coefficients in Z[delta]. The module also provides the algebra
homomorphism into the (Laurent-extended) asymptotic ring, the bimodule
compatibility identity that underpins it, axiom verification for the cell
datum, and weight specialization of the finished basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .asymptotic import AsymptoticRing, Report
from .coxeter import WeightFunction
from .errors import ComputationError, InputError, VerificationError
from .hecke import HeckeAlgebra
from .matrices import KMatrix, f_det, f_inverse, f_nonzero, f_sparse_mul
from .scalars import LaurentPoly, accumulate

def b_matrix(rep_gram: KMatrix, ring: AsymptoticRing, label: str):
    """Constant-term matrix of a normalized balanced Gram form.

    Asserts: symmetric, positive-definite (exact signs of leading principal
    minors), nonzero determinant, and the intertwining property against the
    asymptotic-ring representation for every group element.
    """
    field = ring.alg.table.field
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
    tensor = next((t for t in ring.tensors if t.label == label), None)
    if tensor is None:
        raise ComputationError(f"unknown representation label {label}")
    inverse = ring.alg.table.inverse
    nz = tensor.nonzero()
    ents = f_nonzero(beta)
    for w in range(ring.size):
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
    independent, antisymmetric and transitive."""
    labels = [t.label for t in ring.tensors]
    _, _, cell_of = alg.lr_cells()
    leq = {}
    for la in labels:
        bla = ring.blocks[ring.block_of_label[la]]
        for mu in labels:
            bmu = ring.blocks[ring.block_of_label[mu]]
            if la == mu:
                leq[(la, mu)] = True
                continue
            results = {
                (alg.leq_lr(x, y) and cell_of[x] != cell_of[y])
                for x in bla for y in bmu
            }
            if len(results) != 1:
                raise ComputationError(
                    f"order between {la} and {mu} depends on block representatives")
            leq[(la, mu)] = results.pop()
    for la in labels:
        for mu in labels:
            if la != mu and leq[(la, mu)] and leq[(mu, la)]:
                raise ComputationError("lambda order is not antisymmetric")
            for nu in labels:
                if leq[(la, mu)] and leq[(mu, nu)] and not leq[(la, nu)]:
                    raise ComputationError("lambda order is not transitive")
    return leq


def build_cell_datum(alg: HeckeAlgebra, ring: AsymptoticRing, grams: dict) -> CellDatum:
    """Assemble the cell datum from balanced Gram forms (label -> KMatrix)."""
    field = alg.table.field
    inverse = alg.table.inverse
    leq = lambda_order(alg, ring)
    labels = [t.label for t in ring.tensors]
    bmats, msize, elements = {}, {}, {}
    primes = set()
    for t in ring.tensors:
        beta = b_matrix(grams[t.label], ring, t.label)
        bmats[t.label] = beta
        msize[t.label] = t.dim
        primes |= norm_primes(field, f_det(beta))
        primes |= norm_primes(field, t.f)
        block = set(ring.blocks[ring.block_of_label[t.label]])
        # the coefficient of C_{w^{-1}} in C^lam_{s,tt} is (beta M_w)[tt][s]
        columns: dict = {}
        ents = f_nonzero(beta)
        for w, mw in t.nonzero().items():
            for (tt, s), acc in f_sparse_mul(ents, mw).items():
                columns.setdefault((s, tt), {})[inverse[w]] = acc
        for s in range(t.dim):
            for tt in range(t.dim):
                coeffs = columns.get((s, tt), {})
                for winv, acc in coeffs.items():
                    if winv not in block:
                        raise ComputationError(
                            f"cellular element of {t.label} leaves its block")
                    if not field.is_ring_integer(acc):
                        raise VerificationError(
                            f"integrality violation in cellular element of {t.label}")
                elements[(t.label, s, tt)] = coeffs
    primes.discard(1)
    return CellDatum(alg, ring, labels, leq, msize, bmats, elements, primes)


# -- axiom verification ------------------------------------------------------------


def verify_cell_datum(datum: CellDatum) -> Report:
    report = Report()
    alg = datum.alg
    size = alg.table.size
    keys = _cell_keys(datum)

    bad = []
    if len(keys) != size:
        bad.append(f"basis has {len(keys)} elements for group order {size}")
    mat = [[datum.elements[key].get(w, Fraction(0)) for w in range(size)] for key in keys]
    if f_det(mat) == 0:
        bad.append("transition matrix to the canonical basis is singular")
    report.record("C1 basis", bad)
    report.record("C2 star", _star_violations(datum))
    report.record("C3 left action", _verify_c3(datum, mat, keys))
    return report


def _verify_c3(datum: CellDatum, transition, keys) -> list:
    # transition is keys x w; its inverse is w x keys, so coordinates of a
    # C-basis vector p are x[ki] = sum_w inv[w][ki] p[w]
    tinv_t = f_inverse(transition)

    def coords(s_gen, key):
        prod = _ts_times_element(datum.alg, s_gen, datum.elements[key])
        return _to_cell_coords(tinv_t, prod, keys, LaurentPoly.scale)

    return _c3_violations(datum, coords)


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
    polynomials, all over one common denominator."""
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


def _ts_times_element(alg: HeckeAlgebra, s: int, coeffs: dict) -> dict:
    """T_s * (sum_w c_w C_w) in C-basis coordinates; c_w are F-scalars."""
    out = {}
    vs = alg.v[s]
    for w, c in coeffs.items():
        accumulate(out, w, vs.scale(c))
        for z, h in alg.gen_row(s, w).items():
            accumulate(out, z, h.scale(-c))
    return out


def _to_cell_coords(inv_rows, prod: dict, keys, mul) -> dict:
    """Express coordinates prod (w -> LaurentPoly) in the cellular basis, given
    the rows of the inverse transition matrix and how to multiply a
    polynomial by one of their entries."""
    out = {}
    for w, poly in prod.items():
        row = inv_rows[w]
        for ki, key in enumerate(keys):
            c = row[ki]
            if c:
                accumulate(out, key, mul(poly, c))
    return out


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


def verify_phi(alg: HeckeAlgebra, ring: AsymptoticRing,
               exhaustive_max: int = 16, seed: int = 0, samples: int = 200) -> Report:
    """Unitality, multiplicativity and the filtration property of the map.

    Multiplicativity is sampled above exhaustive_max; the filtration check
    takes n |W| products against |W|^2 and is always exhaustive."""
    report = Report()
    size = alg.table.size
    rank = alg.rank

    one = {w: LaurentPoly.constant(rank, c) for w, c in ring.identity_element().items()}
    bad = []
    if phi_element(alg, ring, {0: LaurentPoly.one(rank)}) != one:
        bad.append("image of the identity canonical-basis element is not the ring identity")
    report.record("phi unital", bad)

    bad = []
    if size <= exhaustive_max:
        pairs = [(x, y) for x in range(size) for y in range(size)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(samples)]
    rows = alg.h_rows()
    images = [hecke_to_asym(alg, ring, w) for w in range(size)]
    grows = ring.gamma_rows()
    for x, y in pairs:
        lhs = ring.multiply(images[x], images[y], grows)
        rhs = {}
        for z, h in rows[x][y].items():
            for u, p in images[z].items():
                accumulate(rhs, u, p * h)
        if lhs != rhs:
            bad.append(f"multiplicativity fails at ({x},{y})")
    report.record("phi multiplicative", bad)

    bad = []
    gens = [alg.table.gen(s) for s in range(alg.table.system.ngens)]
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
                             exhaustive_max: int = 16, samples: int = 100000,
                             seed: int = 0, restrict_cell: bool = True) -> Report:
    """For w ~ y in the two-sided order:
    sum_u gamma_{w,x',u^{-1}} h_{x,u,y} = sum_u h_{x,w,u} gamma_{u,x',y^{-1}}."""
    report = Report()
    size = alg.table.size
    rows = alg.h_rows()
    inverse = alg.table.inverse
    _, cells, cell_of = alg.lr_cells()
    gamma = ring.gamma

    def keep(u, w):
        # with restrict_cell, u runs over the cell of w only
        return not restrict_cell or cell_of[u] == cell_of[w]

    # left: (w, x') -> [(u, gamma_{w,x',u^-1})]; right: (x, w) -> [(u, h_{x,w,u})]
    left = {(w, xp): [(inverse[z], g) for z, g in row if keep(inverse[z], w)]
            for (w, xp), row in ring.gamma_rows().items()}
    right = [[[(u, h.terms) for u, h in rows[x][w].items() if keep(u, w)]
              for w in range(size)] for x in range(size)]
    bad = []

    def check(x, xp, y, w):
        # LHS - RHS, accumulated coefficientwise by exponent
        diff = {}
        row = rows[x]
        for u, g in left.get((w, xp), ()):
            h = row[u].get(y)
            if h:
                for e, c in h.terms.items():
                    accumulate(diff, e, g * c)
        yinv = inverse[y]
        for u, terms in right[x][w]:
            g = gamma.get((u, xp, yinv))
            if g:
                for e, c in terms.items():
                    accumulate(diff, e, -(g * c))
        return not diff

    if size <= exhaustive_max:
        for w in range(size):
            peers = cells[cell_of[w]]
            for y in peers:
                for x in range(size):
                    for xp in range(size):
                        if not check(x, xp, y, w):
                            bad.append(f"identity fails at (x={x},x'={xp},y={y},w={w})")
        report.record("bimodule identity (exhaustive)", bad)
    else:
        for w, y, x, xp in sampled_quadruples(size, cells, cell_of, samples, seed):
            if not check(x, xp, y, w):
                bad.append(f"identity fails at (x={x},x'={xp},y={y},w={w})")
        report.record(f"bimodule identity ({samples} samples)", bad)
    return report


def sampled_quadruples(size: int, cells, cell_of, samples: int, seed: int):
    """The (w, y, x, x') cases of the sampled bimodule check, y in the cell of w.

    The stream is the one random.Random(seed).randrange gives: each draw is
    the rejection loop randrange(n) runs on getrandbits(n.bit_length()),
    without randrange's own call overhead.
    """
    getrandbits = random.Random(seed).getrandbits

    def below(n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    for _ in range(samples):
        w = below(size)
        peers = cells[cell_of[w]]
        y = peers[below(len(peers))]
        yield w, y, below(size), below(size)


# -- weight specialization ----------------------------------------------------------


def specialization_hom(source: WeightFunction, target: WeightFunction) -> list:
    """Images of the source coordinate vectors under the group homomorphism
    determined by the target weight function (coordinate i of the source is
    the class-i indicator, so it maps to the target weight of that class)."""
    images = [None] * source.rank
    for s, vec in enumerate(source.values):
        nonzero = [i for i, x in enumerate(vec) if x]
        if len(nonzero) != 1 or vec[nonzero[0]] != 1:
            raise InputError("specialization requires universal source weights")
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
                            dict(datum.msize), elements)


def verify_specialized(spec: SpecializedBasis) -> Report:
    """A'-basis via an exact determinant (must be a unit: a single monomial),
    then the star axiom and t-independence of the generator action."""
    report = Report()
    alg = spec.alg
    size = alg.table.size
    keys = _cell_keys(spec)
    zero = LaurentPoly.zero(alg.rank)
    transition = KMatrix.from_polys(
        [[spec.elements[key].get(w, zero) for w in range(size)] for key in keys], alg.order)
    bad = []
    det = transition.det()
    if not det:
        bad.append("specialized transition matrix is singular")
    else:
        q = det.as_laurent()
        if len(q.terms) != 1:
            bad.append("specialized determinant is not a unit of the Laurent ring")
    report.record("A'-basis", bad)
    report.record("C2 star (specialized)", _star_violations(spec))

    # every coordinate has the denominator inv.den, so numerators are compared
    inv = transition.inverse()

    def coords(s_gen, key):
        prod = alg.gen_left(s_gen, spec.elements[key])
        return _to_cell_coords(inv.num, prod, keys, LaurentPoly.__mul__)

    report.record("C3 (specialized)", _c3_violations(spec, coords))
    return report
