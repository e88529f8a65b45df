"""Matrix representations of the Hecke algebra and their leading coefficients.

Constructors: one-dimensional characters, the two-dimensional dihedral series,
seminormal models for types A and B (standard Young (bi)tableaux acted on
through Jucys-Murphy residues), and file-loaded representations (explicit
matrices or W-graphs). Every constructor validates the defining relations.

From a representation this module computes its Schur element and the derived
invariants (a, f), an invariant symmetric bilinear form (attached by the
built-in models, averaged over W for a loaded one), the balancing change of
basis that puts every entry of eps^a rho(T_w) inside the valuation ring, and
the tensor of leading matrix coefficients: the constant terms of
(-1)^{l(w)} eps^a rho_{ij}(T_w), the raw input of the asymptotic ring, stored
once as the nonzero entries of each leading matrix.

Every constant term here is one residue map O -> F (`KMatrix.residue`):
the leading tensors, the balance test and, in `cellular`, the B-matrices.
A representation is balanced when its normalized form Omega has entries in O
and det Omega is a unit of O. The residue map is a ring homomorphism, so
det Omega is a unit of O if and only if det(Omega mod p) != 0, and the test
is a determinant over the field F.

`balanced_tensor` runs these steps for one representation, each check once,
on one list of word matrices rho(T_w) (`MatrixRep.words`) that it drops on
return: a form is checked where it is made, and the residue pass that builds
a model's leading tensor is also the direct check of the Gram test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ComputationError, InputError, VerificationError, read_json
from .fields import ProductPacking
from .hecke import HeckeAlgebra
from .matrices import KMatrix, f_det, f_nonzero
from .scalars import LaurentFraction, LaurentPoly, exp_neg, exp_sub, scalar_inverse


class MatrixRep:
    """A matrix representation of H over the Laurent fraction field: its
    label, generators rho(T_s) and, for a built-in model, an attached
    invariant form. It holds no word matrices; `words` returns them."""

    def __init__(self, alg: HeckeAlgebra, label: str, gens, gram: KMatrix | None = None,
                 validate: bool = True):
        self.alg = alg
        self.label = label
        self.gens = list(gens)
        self.dim = gens[0].dim
        self.gram = gram
        if validate:
            self.validate()

    def __repr__(self):
        return f"MatrixRep({self.label!r}, dim={self.dim})"

    def words(self) -> list:
        """rho(T_w) for every w, in id order, each rho(T_{w'}) rho(T_s) for
        (w', s) = right_parent(w); ids run in length order, so w' < w."""
        table = self.alg.table
        out = [KMatrix.identity(self.dim, self.alg.rank)]
        for w in range(1, table.size):
            wp, s = table.right_parent(w)
            out.append(out[wp] * self.gens[s])
        return out

    def validate(self):
        """Quadratic relation per generator, braid relation per pair."""
        alg = self.alg
        n = alg.table.system.ngens
        ident = KMatrix.identity(self.dim, alg.rank)
        for s in range(n):
            m = self.gens[s]
            if m * m != ident + m.scale_poly(alg.xi[s]):
                raise VerificationError(
                    f"braid violation: quadratic relation fails for generator {s} in {self.label}")
        for s in range(n):
            for t in range(s + 1, n):
                mst = alg.table.system.matrix[s][t]
                a = b = ident
                for k in range(mst):
                    a = a * self.gens[s if k % 2 == 0 else t]
                    b = b * self.gens[t if k % 2 == 0 else s]
                if a != b:
                    raise VerificationError(
                        f"braid violation: pair ({s},{t}) of order {mst} in {self.label}")


@dataclass
class SchurData:
    """c: Schur element; a: its half-valuation shift; f: leading coefficient."""

    c: LaurentPoly
    a: tuple
    f: object


def trace_poly(m: KMatrix) -> LaurentPoly:
    """trace(m) of a word matrix as a Laurent polynomial (always exact)."""
    acc = LaurentPoly.zero(m.rank)
    for i in range(m.dim):
        acc = acc + m.num[i][i]
    q = acc.exact_divide(m.den)
    if q is None:
        raise ComputationError("representation not defined over expected ring")
    return q


def schur_data(rep: MatrixRep, words: list) -> SchurData:
    alg = rep.alg
    table = alg.table
    traces = [trace_poly(m) for m in words]
    acc = LaurentPoly.zero(alg.rank)
    for w in range(table.size):
        acc = acc + traces[w] * traces[table.inverse[w]]
    c = acc.scale(Fraction(1, rep.dim))
    g = c.min_exponent()
    if any(x % 2 for x in g):
        raise ComputationError(
            f"Schur element of {rep.label} has odd valuation {alg.order.user(g)}")
    a = tuple(-x // 2 for x in g)
    if a < (0,) * alg.rank:
        raise ComputationError(f"negative a-invariant for {rep.label}")
    f = c.terms[g]
    if table.field.sign(f) <= 0:
        raise VerificationError(f"leading Schur coefficient of {rep.label} is not positive")
    return SchurData(c, a, f)


# -- invariant bilinear forms ---------------------------------------------------


def gram_average(words: list) -> KMatrix:
    """sum_w rho(T_w)^tr rho(T_w), normalized into the valuation ring.

    Only loaded representations are averaged; the built-in models attach an
    equivalent invariant form instead.
    """
    acc = words[0]
    for m in words[1:]:
        acc = acc + m.transpose() * m
    return normalize_gram(acc)


def normalize_gram(omega: KMatrix) -> KMatrix:
    """Scale by a monomial so all entries have valuation >= 0, some exactly 0.

    An entry x/den has valuation g_x - g_den, and the order is translation
    invariant, so the least valuation is the least g_x less g_den.
    """
    gs = [x.min_exponent() for row in omega.num for x in row if x]
    if not gs:
        raise ComputationError("zero Gram matrix")
    gmin = exp_sub(min(gs), omega.den.min_exponent())
    if not any(gmin):
        return omega
    return KMatrix([[x.shift(exp_neg(gmin)) for x in row] for row in omega.num], omega.den)


def invariant_gram(rep: MatrixRep, words: list) -> KMatrix:
    """The attached invariant form if present, otherwise the literal average
    over `rep`'s word matrices, normalized and checked for intertwining."""
    omega = gram_average(words) if rep.gram is None else normalize_gram(rep.gram)
    check_intertwining(rep, omega)
    return omega


def check_intertwining(rep: MatrixRep, omega: KMatrix) -> None:
    """Omega rho(T_s) = rho(T_s)^tr Omega for all generators (which suffices)."""
    if omega != omega.transpose():
        raise VerificationError(f"Gram matrix for {rep.label} is not symmetric")
    for s, g in enumerate(rep.gens):
        if omega * g != g.transpose() * omega:
            raise VerificationError(
                f"Gram matrix for {rep.label} fails intertwining at generator {s}")


def is_balanced(rep: MatrixRep, omega: KMatrix) -> bool:
    """Whether det Omega is a unit of O, for a normalized form Omega of `rep`.

    Omega must have entries in O. The residue map O -> F is a ring
    homomorphism, so det Omega is a unit of O if and only if
    det(Omega mod p) != 0, a determinant over the field.
    """
    res = omega.residue()
    if res is None:
        raise VerificationError("Gram matrix not normalized into O")
    return bool(f_det(res))


def balance(rep: MatrixRep, omega: KMatrix, words: list) -> tuple:
    """Change basis so the representation becomes balanced; return the new
    model and its word matrices (C^-1 rho(T_w)) C, read from `rep`'s `words`.

    Diagonalizes the invariant form omega by congruence over K, fixes the global
    parity and sign of the diagonal valuations, rescales each basis vector by
    eps^{-g_i} with g_i half the diagonal valuation, and conjugates.

    A zero pivot m[k][k] is p_k^tr Omega p_k = 0 for the nonzero column p_k
    of the basis change, so Omega is not definite. K is ordered by the sign
    of the leading coefficient, so by Sylvester's law of inertia any diagonal
    form congruent to Omega has mixed signs or a zero, which the sign test
    below rejects anyway.
    """
    alg = rep.alg
    d = rep.dim
    one = LaurentFraction.from_poly(LaurentPoly.one(alg.rank))
    zero = LaurentFraction.zero(alg.rank)
    basis = [[one if i == j else zero for j in range(d)] for i in range(d)]  # columns
    m = omega.fractions()
    for k in range(d):
        if not m[k][k]:
            raise ComputationError("form is not definite")
        for i in range(k + 1, d):
            if m[k][i]:
                f = m[k][i] / m[k][k]
                for c in range(d):
                    basis[c][i] = basis[c][i] - f * basis[c][k]
                for c in range(d):
                    m[c][i] = m[c][i] - f * m[c][k]
                for c in range(d):
                    m[i][c] = m[i][c] - f * m[k][c]
    diag = [m[i][i] for i in range(d)]  # the pivots, each final after its step
    vals = [x.valuation() for x in diag]
    # global parity fix: any K-scalar multiple of the form is as good
    parity = tuple(x % 2 for x in vals[0][0])
    if any(parity):
        # eps^{-parity} times the form fixes all parities (the new form is normalized)
        vals = [(exp_sub(g, parity), r) for g, r in vals]
    field = alg.table.field
    if field.sign(vals[0][1]) < 0:
        diag = [-x for x in diag]
        vals = [(g, -r) for g, r in vals]
    half = []
    for g, r in vals:
        if any(x % 2 for x in g):
            raise ComputationError("diagonal form value with odd valuation")
        if field.sign(r) <= 0:
            raise ComputationError("diagonal form value with non-positive leading term")
        half.append(tuple(x // 2 for x in g))
    # conjugator C = P diag(eps^{-g_i}); new rep = C^{-1} rho C
    cmat = KMatrix.from_fractions(basis)
    scalemat = KMatrix(
        [[LaurentPoly.monomial(exp_neg(half[j])) if i == j else LaurentPoly.zero(alg.rank)
          for j in range(d)] for i in range(d)],
        LaurentPoly.one(alg.rank))
    conj = cmat * scalemat
    conj_inv = conj.inverse()
    new_gens = [conj_inv * g * conj for g in rep.gens]
    new_gram_rows = [[(diag[i] if i == j else zero) for j in range(d)] for i in range(d)]
    for i in range(d):
        g2 = exp_neg(tuple(2 * x for x in half[i]))
        x = new_gram_rows[i][i]
        new_gram_rows[i][i] = LaurentFraction(x.num.shift(g2), x.den)
    new_gram = KMatrix.from_fractions(new_gram_rows)
    out = MatrixRep(alg, rep.label, new_gens, gram=normalize_gram(new_gram), validate=False)
    check_intertwining(out, out.gram)
    return out, [conj_inv * m * conj for m in words]


# -- leading matrix coefficients -------------------------------------------------


@dataclass
class LeadingTensor:
    """Constant terms of (-1)^{l(w)} eps^a rho_{ij}(T_w) for one representation.

    `entries` is the one stored form: w -> [(i, j, c)], the nonzero entries of
    the leading matrix at w in row-major order, for each w where that matrix
    is nonzero, in increasing w. The leading matrices are sparse (on the
    built-in families every nonzero one has a single nonzero entry), so the
    ring, Schur and cellular computations walk `entries` instead of d x d
    loops; any matrix, dense ones included, costs in proportion to its
    nonzero entries. Readers index `entries` afresh on every call, so an
    edit of it is never missed.
    """

    label: str
    dim: int
    a: tuple
    f: object
    entries: dict

    def matrix(self, w: int) -> list:
        """The leading matrix at w, d x d."""
        m = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, j, c in self.entries.get(w, ()):
            m[i][j] = c
        return m


def leading_tensor(rep: MatrixRep, schur: SchurData, words: list) -> LeadingTensor:
    alg = rep.alg
    entries = {}
    for w, m in enumerate(words):
        rows = m.residue(schur.a)
        if rows is None:
            raise VerificationError(f"representation not balanced: {rep.label}")
        if ents := f_nonzero(rows):
            if alg.table.length[w] % 2:
                ents = [(i, j, -c) for i, j, c in ents]
            entries[w] = ents
    return LeadingTensor(rep.label, rep.dim, schur.a, schur.f, entries)


@dataclass
class BalancedModel:
    """Schur data, a balanced model, its normalized form and its leading tensor."""

    schur: SchurData
    rep: MatrixRep
    gram: KMatrix
    tensor: LeadingTensor


def balanced_tensor(rep: MatrixRep) -> BalancedModel:
    """`rep`, or `balance`'s model of it if the Gram test fails, with its data.

    Each model gets one residue pass, `leading_tensor`'s, which must fail on
    `rep` exactly when the Gram test does. The word matrices are built once,
    by `rep.words()`, and `balance` conjugates them for its model; no one
    holds them after the call returns."""
    words = rep.words()
    schur = schur_data(rep, words)
    omega = invariant_gram(rep, words)
    balanced = is_balanced(rep, omega)

    def tensor_of(model, words):
        try:
            return leading_tensor(model, schur, words)
        except VerificationError:  # some eps^a rho(T_w) lies outside O
            return None

    model, tensor = rep, tensor_of(rep, words)
    if not balanced and tensor is None:
        model, words = balance(rep, omega, words)
        omega = model.gram
        if not is_balanced(model, omega):
            raise VerificationError(f"balancing failed for {rep.label}")
        balanced, tensor = True, tensor_of(model, words)
    if balanced != (tensor is not None):
        raise ComputationError(
            f"balancedness criterion disagrees with the direct definition for {rep.label}")
    return BalancedModel(schur, model, omega, tensor)


def check_complete(size: int, tensors: list) -> None:
    """Raise unless the squared dimensions of the family sum to |W| = size,
    as they do for a complete set of irreducibles."""
    total = sum(t.dim * t.dim for t in tensors)
    if total != size:
        raise VerificationError(
            f"missing irreducibles: sum of squared dimensions {total} != group order {size}")


def verify_schur_relations(alg: HeckeAlgebra, tensors: list) -> list:
    """Check both orthogonality families for a complete tensor collection:

        sum_w c^{ij}_{w,lam} c^{kl}_{w^{-1},mu} = d_il d_jk d_{lam,mu} f_lam
        sum_lam sum_{i,j} f^{-1} c^{ij}_{x,lam} c^{ji}_{y^{-1},lam} = d_xy

    Both sides are sums of products of two leading entries, summed on packed
    ints (`fields.ProductPacking`) and read back once per key: at most |W|
    products per (i, j, k, l) in the first family, one per w, and at most
    sum dim^2 = |W| per (x, y) in the second.

    Returns a list of violation descriptions (empty means all hold exactly).
    Raises if the family is incomplete (sum of squared dimensions != |W|).
    """
    size = alg.table.size
    check_complete(size, tensors)
    inverse = alg.table.inverse
    fis = [scalar_inverse(t.f) for t in tensors]
    packing = ProductPacking(alg.table.field, [
        v for t, fi in zip(tensors, fis) for ents in t.entries.values()
        for _, _, c in ents for v in (c, fi * c)], 2, size)
    pack, unpack = packing.pack, packing.unpack
    entries = [{w: [(i, j, pack(c)) for i, j, c in ents] for w, ents in t.entries.items()}
               for t in tensors]
    violations = []
    for li, t1 in enumerate(tensors):
        for lj, t2 in enumerate(tensors):
            acc: dict = {}
            get = acc.get
            e2 = entries[lj]
            for w, ents in entries[li].items():
                for k, l, b in e2.get(inverse[w], ()):
                    for i, j, a in ents:
                        key = (i, j, k, l)
                        acc[key] = get(key, 0) + a * b
            keys = set(acc)
            if li == lj:
                keys.update((i, j, j, i) for i in range(t1.dim) for j in range(t1.dim))
            for i, j, k, l in sorted(keys):
                want = t1.f if (li == lj and i == l and j == k) else 0
                if unpack(get((i, j, k, l), 0)) != want:
                    violations.append(
                        f"first family fails at ({t1.label},{t2.label},"
                        f"i={i},j={j},k={k},l={l})")
    acc = {}
    get = acc.get
    for t, fi, packed in zip(tensors, fis, entries):
        by_pos: dict = {}
        for w, ents in packed.items():
            for i, j, c in ents:
                by_pos.setdefault((i, j), []).append((inverse[w], c))
        for x, ents in t.entries.items():
            for i, j, a in ents:
                fa = pack(fi * a)
                for y, c in by_pos.get((j, i), ()):
                    key = (x, y)
                    acc[key] = get(key, 0) + fa * c
    for x, y in sorted(set(acc) | {(x, x) for x in range(size)}):
        if unpack(get((x, y), 0)) != int(x == y):
            violations.append(f"second family fails at (x={x},y={y})")
    return violations


# -- constructors -----------------------------------------------------------------


def one_dim_rep(alg: HeckeAlgebra, signs) -> MatrixRep:
    """T_s -> v_s (sign +1 on the class of s) or -v_s^{-1} (sign -1).

    `signs` maps each generator index to +-1, constant on conjugacy classes.
    """
    n = alg.table.system.ngens
    for cls in alg.table.system.generator_classes():
        if len({signs[s] for s in cls}) != 1:
            raise InputError("one-dimensional signs must be constant on conjugacy classes")
    gens = []
    for s in range(n):
        p = alg.v[s] if signs[s] > 0 else -alg.vinv[s]
        gens.append(KMatrix.from_polys([[p]]))
    label = "onedim:" + "".join("+" if signs[s] > 0 else "-" for s in range(n))
    gram = KMatrix.from_polys([[LaurentPoly.one(alg.rank)]])
    return MatrixRep(alg, label, gens, gram=gram)


def index_rep(alg: HeckeAlgebra) -> MatrixRep:
    return one_dim_rep(alg, [1] * alg.table.system.ngens)


def sign_rep(alg: HeckeAlgebra) -> MatrixRep:
    return one_dim_rep(alg, [-1] * alg.table.system.ngens)


def dihedral_rep(alg: HeckeAlgebra, j: int) -> MatrixRep:
    """The two-dimensional representation rho_j of a rank-2 system of order 2m.

    rho_j(T_{s1}) = [[-v1^{-1}, 0], [mu_j, v1]],
    rho_j(T_{s2}) = [[v2, 1], [0, -v2^{-1}]],
    mu_j = v1 v2^{-1} + zeta^j + zeta^{-j} + v1^{-1} v2  (zeta of order m),
    with the invariant form
    Omega_j = [[v1 mu_j (v2 + v2^{-1}), v1 mu_j], [v1 mu_j, v1 (v1 + v1^{-1})]].
    """
    system = alg.table.system
    if system.ngens != 2:
        raise InputError("dihedral representations need a rank-2 system")
    m = system.matrix[0][1]
    jmax = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
    if not 1 <= j <= jmax:
        raise InputError(f"dihedral index j={j} out of range 1..{jmax}")
    field = alg.table.field
    rank = alg.rank
    v1, v1i = alg.v[0], alg.vinv[0]
    v2, v2i = alg.v[1], alg.vinv[1]
    zeta = LaurentPoly.constant(rank, field.two_cos(j, m))
    mu = v1 * v2i + zeta + v1i * v2
    zero = LaurentPoly.zero(rank)
    one = LaurentPoly.one(rank)
    m1 = KMatrix.from_polys([[-v1i, zero], [mu, v1]])
    m2 = KMatrix.from_polys([[v2, one], [zero, -v2i]])
    omega = KMatrix.from_polys(
        [[v1 * mu * (v2 + v2i), v1 * mu], [v1 * mu, v1 * (v1 + v1i)]])
    return MatrixRep(alg, f"dihedral:{j}", [m1, m2], gram=omega)


# -- seminormal models for types A and B --------------------------------------------


def partitions(n: int):
    """All partitions of n, decreasing parts, lexicographically decreasing."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + [p])

    rec(n, n, [])
    return out


def bipartitions(n: int):
    out = []
    for k in range(n, -1, -1):
        for lam in partitions(k):
            for mu in partitions(n - k):
                out.append((lam, mu))
    return out


def standard_tableaux(shape):
    """Standard fillings of a (multi-component) shape with 1..n.

    A shape is a tuple of partitions; a tableau maps each entry k to a cell
    (component, row, column). Returned as tuples of cells indexed by k-1.
    """
    total = sum(sum(part) for part in shape)
    out = []

    def rec(heights, placed, k):
        # heights[c][r] = number of filled cells in row r of component c
        if k > total:
            out.append(tuple(placed))
            return
        for c, part in enumerate(shape):
            for r, rowlen in enumerate(part):
                filled = heights[c][r]
                if filled < rowlen and (r == 0 or heights[c][r - 1] > filled):
                    heights[c][r] += 1
                    placed.append((c, r, filled))
                    rec(heights, placed, k + 1)
                    placed.pop()
                    heights[c][r] -= 1

    rec([[0] * len(part) for part in shape], [], 1)
    return out


def _tableau_swap(tab, k):
    """Swap entries k and k+1 (1-based); cells are exchanged."""
    cells = list(tab)
    cells[k - 1], cells[k] = cells[k], cells[k - 1]
    return tuple(cells)


def _swap_is_standard(tab, k):
    """After swapping k, k+1 the filling is standard iff the two cells are in
    different components, or neither same row nor same column."""
    (c1, r1, col1), (c2, r2, col2) = tab[k - 1], tab[k]
    if c1 != c2:
        return True
    return r1 != r2 and col1 != col2


def seminormal_rep(alg: HeckeAlgebra, shape) -> MatrixRep:
    """Seminormal model on standard (bi)tableaux of the given shape.

    Works for type A_n (shape: one partition of n+1) and type B_n (shape: pair
    of partitions of total size n). The Jucys-Murphy residue of entry k in a
    tableau is the signed monomial r_k = +- eps^g below; the generator for the
    transposition (k, k+1) acts on the pair {t, swap(t)} with diagonal entries
    (v - v^-1)/(1 - r_k/r_{k+1}) and on 1 x 1 blocks by v or -v^-1.
    """
    system = alg.table.system
    name = system.name
    if name.startswith("A"):
        nfold = int(name[1])
        if not (isinstance(shape, tuple) and shape and isinstance(shape[0], int)):
            raise InputError("type A shape must be a single partition tuple")
        if sum(shape) != nfold + 1:
            raise InputError(f"partition must have size {nfold + 1}")
        comps = (tuple(shape),)
        special = None
        trans_of_gen = {s: s + 1 for s in range(system.ngens)}  # gen s: (s+1, s+2)
        label = f"A:{shape}"
    elif name.startswith("B"):
        nfold = int(name[1])
        if not (isinstance(shape, tuple) and len(shape) == 2):
            raise InputError("type B shape must be a pair of partitions")
        comps = (tuple(shape[0]), tuple(shape[1]))
        if sum(comps[0]) + sum(comps[1]) != nfold:
            raise InputError(f"bipartition must have total size {nfold}")
        special = 0
        trans_of_gen = {s: s for s in range(1, system.ngens)}  # gen s: (s, s+1)
        label = f"B:{shape}"
    else:
        raise InputError("seminormal models exist for named types A_n and B_n only")
    tabs = standard_tableaux(comps)
    if not tabs:
        raise InputError("invalid shape: no standard tableaux")
    index = {t: i for i, t in enumerate(tabs)}
    d = len(tabs)
    rank = alg.rank
    weight_a = alg.weights.of_gen(1) if special is not None else alg.weights.of_gen(0)
    weight_b = alg.weights.of_gen(0) if special is not None else None
    va, vai = (LaurentPoly.monomial(weight_a), LaurentPoly.monomial(exp_neg(weight_a)))

    def residue(tab, k):
        """(sign, exponent) of the Jucys-Murphy monomial of entry k."""
        c, r, col = tab[k - 1]
        content = col - r
        g = tuple(2 * content * x for x in weight_a)
        if special is None:
            return 1, g
        if c == 0:
            return 1, tuple(x + y for x, y in zip(g, weight_b))
        return -1, tuple(x - y for x, y in zip(g, weight_b))

    gens: list = [None] * system.ngens
    if special is not None:
        vb, vbi = LaurentPoly.monomial(weight_b), LaurentPoly.monomial(exp_neg(weight_b))
        rows = [[LaurentPoly.zero(rank)] * d for _ in range(d)]
        for t, tab in enumerate(tabs):
            rows[t][t] = vb if tab[0][0] == 0 else -vbi
        gens[special] = KMatrix.from_polys(rows)
    xi = va - vai
    for s, k in trans_of_gen.items():
        entries = [[LaurentFraction.zero(rank)] * d for _ in range(d)]
        done = set()
        for t, tab in enumerate(tabs):
            if t in done:
                continue
            s1, g1 = residue(tab, k)
            s2, g2 = residue(tab, k + 1)
            ratio = LaurentPoly.monomial(exp_sub(g1, g2), s1 * s2)
            den = LaurentPoly.one(rank) - ratio
            if not den:
                raise ComputationError("coincident residues in seminormal construction")
            if not _swap_is_standard(tab, k):
                # same row: eigenvalue v; same column: -v^{-1}
                same_row = tab[k - 1][1] == tab[k][1]
                entries[t][t] = LaurentFraction.from_poly(va if same_row else -vai)
                done.add(t)
                continue
            u = index[_tableau_swap(tab, k)]
            a_t = LaurentFraction(xi, den)
            a_u = LaurentFraction.from_poly(xi) - a_t
            entries[t][t] = a_t
            entries[u][u] = a_u
            entries[u][t] = LaurentFraction.from_poly(LaurentPoly.one(rank))
            entries[t][u] = a_t * a_u + LaurentFraction.from_poly(LaurentPoly.one(rank))
            done.add(t)
            done.add(u)
        gens[s] = KMatrix.from_fractions(entries)
    gram = _seminormal_gram(gens, d, rank)
    return MatrixRep(alg, label, gens, gram=gram)


def _seminormal_gram(gens, d, rank) -> KMatrix:
    """Diagonal invariant form: g_u / g_t = M[t][u] / M[u][t] along blocks."""
    one = LaurentFraction.from_poly(LaurentPoly.one(rank))
    vals = [None] * d
    vals[0] = one
    pending = [0]
    while pending:
        t = pending.pop()
        for g in gens:
            for u in range(d):
                if u == t:
                    continue
                mtu, mut = g.num[t][u], g.num[u][t]
                if mtu or mut:
                    if not (mtu and mut):
                        raise ComputationError("one-sided block in seminormal generator")
                    ratio = LaurentFraction(mtu, mut)
                    val = vals[t] * ratio
                    if vals[u] is None:
                        vals[u] = val
                        pending.append(u)
                    elif vals[u] != val:
                        raise ComputationError("inconsistent diagonal form ratios")
    if any(v is None for v in vals):
        raise ComputationError("tableau graph is not connected")
    zero = LaurentFraction.zero(rank)
    return KMatrix.from_fractions(
        [[vals[i] if i == j else zero for j in range(d)] for i in range(d)])


# -- file-loaded representations ------------------------------------------------------


def rep_from_dict(alg: HeckeAlgebra, data: dict) -> MatrixRep:
    """The representation a parsed representation file describes; a file of
    the wrong shape is an InputError, one that breaks the relations a
    VerificationError."""
    if not isinstance(data, dict):
        raise InputError("representation file must hold a JSON object")
    label = data.get("label", "loaded")
    if not isinstance(label, str):
        raise InputError("representation label must be a string")
    if "generators" in data:
        gens = []
        n = alg.table.system.ngens
        field = alg.table.field
        if not isinstance(data["generators"], dict):
            raise InputError("'generators' must map generator indices to matrices")
        for s in range(n):
            rows = data["generators"].get(str(s))
            if rows is None:
                raise InputError(f"generator {s} missing from representation file")
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise InputError(f"generator {s} must be a list of rows")
            dim = gens[0].dim if gens else len(rows)
            if not rows or {len(rows)} | {len(r) for r in rows} != {dim}:
                raise InputError("generator matrices must be square of equal size")
            if not all(isinstance(x, str) for row in rows for x in row):
                raise InputError(f"generator {s} has an entry that is not a polynomial string")
            mat = [[LaurentPoly.from_str(x, field, alg.order) for x in row] for row in rows]
            gens.append(KMatrix.from_polys(mat))
        return MatrixRep(alg, label, gens)
    if "wgraph" in data:
        return _wgraph_rep(alg, label, data["wgraph"])
    raise InputError("representation file needs 'generators' or 'wgraph'")


def _wgraph_rep(alg: HeckeAlgebra, label: str, wg: dict) -> MatrixRep:
    """T_s e_x = v_s e_x + sum_{y: s in I_y} mu_{y,x} e_y  (s not in I_x),
       T_s e_x = -v_s^{-1} e_x                             (s in I_x)."""
    n = alg.table.system.ngens
    if not (isinstance(wg, dict) and isinstance(wg.get("vertices"), list) and wg["vertices"]):
        raise InputError("'wgraph' needs a nonempty list of 'vertices'")
    for v in wg["vertices"]:
        if not isinstance(v, list) or any(type(s) is not int or not 0 <= s < n for s in v):
            raise InputError(f"W-graph vertex {v!r} is not a list of generators 0..{n - 1}")
    verts = [frozenset(v) for v in wg["vertices"]]
    d = len(verts)
    field = alg.table.field
    rank = alg.rank
    edges = wg.get("edges", [])
    if not isinstance(edges, list):
        raise InputError("W-graph 'edges' must be a list")
    mu = {}
    for e in edges:
        if not isinstance(e, dict) or any(type(e.get(k)) is not int or not 0 <= e[k] < d
                                          for k in ("u", "v")):
            raise InputError(f"W-graph edge {e!r} needs vertices 'u' and 'v' in 0..{d - 1}")
        u, v = e["u"], e["v"]
        w = e.get("weight", 1)
        if isinstance(w, str):
            p = LaurentPoly.from_str(w, field, alg.order)
        elif type(w) is int:  # not bool
            p = LaurentPoly.constant(rank, w)
        else:
            raise InputError(f"W-graph edge weight {w!r} is neither an integer nor a "
                             "polynomial string")
        mu[(u, v)] = p
        mu.setdefault((v, u), p)
    gens = []
    for s in range(n):
        rows = [[LaurentPoly.zero(rank)] * d for _ in range(d)]
        for x in range(d):
            if s in verts[x]:
                rows[x][x] = -alg.vinv[s]
            else:
                rows[x][x] = alg.v[s]
                for y in range(d):
                    if y != x and s in verts[y] and (y, x) in mu:
                        rows[y][x] = mu[(y, x)]
        gens.append(KMatrix.from_polys(rows))
    return MatrixRep(alg, label, gens)


def load_rep(alg: HeckeAlgebra, path) -> MatrixRep:
    return rep_from_dict(alg, read_json(path, "representation file"))


# -- complete built-in families ---------------------------------------------------------


def builtin_family(alg: HeckeAlgebra) -> list:
    """One representation per irreducible, for the shipped types."""
    system = alg.table.system
    name = system.name
    if name.startswith("A"):
        n = int(name[1])
        return [seminormal_rep(alg, lam) for lam in partitions(n + 1)]
    if name.startswith("B"):
        n = int(name[1])
        return [seminormal_rep(alg, bp) for bp in bipartitions(n)]
    if name.startswith("I2:"):
        m = system.matrix[0][1]
        reps = []
        if m % 2 == 0:
            for signs in ([1, 1], [-1, -1], [1, -1], [-1, 1]):
                reps.append(one_dim_rep(alg, signs))
            jmax = (m - 2) // 2
        else:
            reps.append(one_dim_rep(alg, [1, 1]))
            reps.append(one_dim_rep(alg, [-1, -1]))
            jmax = (m - 1) // 2
        for j in range(1, jmax + 1):
            reps.append(dihedral_rep(alg, j))
        return reps
    raise InputError(
        f"no complete built-in family for type {name or 'custom'};"
        " supply representation files")
