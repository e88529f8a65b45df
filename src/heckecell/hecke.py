"""The generic Iwahori-Hecke algebra of a finite Coxeter system.

Elements are kept in the standard basis {T_w}, and the one product computed
here is the left action of a generator,

    T_s T_w = T_{sw}                           if l(sw) > l(w),
    T_s T_w = T_{sw} + (v_s - v_s^{-1}) T_w    if l(sw) < l(w),

where v_s = eps^{L(s)}. The general T-basis product, inverse and bar
involution live in the tests, as the references the KL basis and the
structure constants are checked against.

The canonical bases are computed from their defining characterization: Cp_w
is the unique bar-invariant element T_w + sum p_{y,w} T_y with every p_{y,w}
supported on strictly negative exponents, built by peeling the bar-invariant
product Cp_s Cp_{sw} downwards on one accumulator, in element-id (= length)
order; C_w = j(Cp_w) with j(eps^g) = eps^{-g}, j(T_y) = (-1)^{l(y)} T_y.
The accumulator holds one term map per T_y, and every product is added into
it by `scalars.mul_into`; the maps become polynomials once, when the peel
ends.

The A-linear anti-involution T_w -> T_{w^{-1}} commutes with bar (Lusztig,
Hecke algebras with unequal parameters, 2003), so it maps Cp_w to
Cp_{w^{-1}} and C_w to C_{w^{-1}}, and reverses products:

    p_{y,w} = p_{y^{-1},w^{-1}},    h_{x,y,z} = h_{y^{-1},x^{-1},z^{-1}}.

Cp_w with w^{-1} < w and the h-table rows with l(y) < l(x) are read off
their partners this way, with keys inverted; they share the partner's
polynomials.

Each algebra holds each polynomial value it stores once: every coefficient
of the KL basis, the generator rows, the h-table and the C-basis is the one
object its pool keeps for that value (H3: 70972 h-table entries in 320
objects). Many entries therefore share one `LaurentPoly`, and an in-place
edit would change all of them, so a stored polynomial is never changed in
place. Temporaries, such as the products of `gen_left`, stay out of the pool.

Structure constants h_{x,y,z} (C_x C_y = sum h_{x,y,z} C_z) are materialized
by a length recursion on x that only ever multiplies by generator rows; each
entry h_{x,y,z} is summed on one term map the same way. The
generator row h_{s,w,.} is what the peel of Cp_s Cp_w takes away, mu_y Cp_y,
and every peel keeps its row: each ascent is peeled once per algebra. The
a-function is the smallest shift making a z-column nonnegative, and gamma
constants are the resulting constant terms at z^{-1}, kept as a map of the
nonzero ones. The full table is built only for |W| <= MAX_FULL_TABLE, which
`h_rows` alone reads; past it the input is rejected. All
coefficients here are Laurent polynomials with integer coefficients, for
every Coxeter type.
"""

from __future__ import annotations

from .coxeter import ElementTable, WeightFunction, validate_weights
from .errors import ComputationError, InputError
from .scalars import LaurentPoly, MonomialOrder, exp_neg, mul_into

# The full table is |W|^2 sparse rows of pooled values. `h_rows` plus the
# a-values, and process peak, 2-vCPU Xeon VM, Python 3.11.7: A4 and H3 (|W| =
# 120) 0.11-0.13 + 0.007 s and 0.19-0.21 + 0.010-0.011 s, 22 MB each; D4 (192)
# 0.40-0.41 + 0.022-0.024 s, 27 MB; B4 (384) 2.6-2.8 + 0.13 s, 72 MB. The
# `h-table` job, rows streamed, peaks at 27 MB on D4 and 72 MB on B4 (limit
# raised in process), 51 and 231 MB with its text held: D4 is in, B4 out.
MAX_FULL_TABLE = 192


def _add_product(acc: dict, key, a: dict, b: dict, sign: int = 1):
    """Add sign * a * b to the term map acc[key]; a map that cancels is
    deleted, so acc holds no empty map (as `accumulate` keeps no zero)."""
    m = acc.get(key)
    if m is None:
        m = mul_into({}, a, b, sign)
        if m:
            acc[key] = m
    else:
        mul_into(m, a, b, sign)
        if not m:
            del acc[key]


class HeckeAlgebra:
    def __init__(self, table: ElementTable, weights: WeightFunction, order: MonomialOrder,
                 require_positive: bool = True):
        """Positivity of the weights can be waived for specialization targets,
        where only standard-basis arithmetic is needed; the canonical bases
        always require a valid positive weight function. `weights` is in the
        user's coordinates; `self.weights` and every exponent made here are stored."""
        problems = validate_weights(table.system, weights, order, require_positive)
        if problems:
            raise InputError("; ".join(problems))
        self.table = table
        self.weights = WeightFunction(weights.rank, tuple(map(order.stored, weights.values)))
        self.order = order
        self.rank = order.rank
        n = table.system.ngens
        self.v = [LaurentPoly.monomial(g) for g in self.weights.values]
        self.vinv = [LaurentPoly.monomial(exp_neg(g)) for g in self.weights.values]
        self.xi = [self.v[s] - self.vinv[s] for s in range(n)]
        self._pool: dict = {}
        self._one = self._held(LaurentPoly.one(self.rank).terms)
        self._cprime: list = [{0: self._one}]
        self._c_cache: dict = {}
        self._gen_rows = [dict() for _ in range(n)]
        self._h_rows = None
        self._a = None
        self._cells = None

    # -- the generator action ----------------------------------------------------

    def gen_left(self, s: int, h: dict) -> dict:
        """T_s * h for h in the T-basis."""
        t, out = self.table, {}
        one, xi = self._one.terms, self.xi[s].terms
        for w, c in h.items():
            sw = t.lmult[w][s]
            _add_product(out, sw, one, c.terms)
            if t.length[sw] < t.length[w]:
                _add_product(out, w, xi, c.terms)
        rank = self.rank
        return {y: LaurentPoly(rank, m) for y, m in out.items()}

    def _held(self, terms: dict) -> LaurentPoly:
        """The pool's polynomial with these terms, made from them if the value
        is new. The pool maps each value to itself."""
        p = LaurentPoly(self.rank, terms)
        return self._pool.setdefault(p, p)

    def _polys(self, maps: dict) -> dict:
        """The pool's polynomial for each term map of maps."""
        return {y: self._held(m) for y, m in maps.items()}

    # -- canonical bases ------------------------------------------------------------

    def cprime(self, w: int) -> dict:
        """Cp_w in the T-basis.

        Fills every missing u <= w in id order. Ids run in length order
        (`ElementTable`), so the table always holds a prefix of the ids. The
        anti-involution T_w -> T_{w^{-1}} commutes with bar and maps Cp_w to
        Cp_{w^{-1}}, so p_{y,u} = p_{y^{-1},u^{-1}}: when u^{-1} < u, Cp_u is
        Cp_{u^{-1}} with every key inverted, sharing its polynomials.
        Otherwise u is peeled by its first left descent, reading only shorter
        Cp_y. The ascent rows this leaves unpeeled are peeled by `gen_row`
        when asked for."""
        t = self.table
        inverse = t.inverse
        while len(self._cprime) <= w:
            u = len(self._cprime)
            if inverse[u] < u:
                self._cprime.append({inverse[y]: p for y, p in self._cprime[inverse[u]].items()})
                continue
            s = t.first_left_descent(u)
            self._peel(s, t.lmult[u][s])
        return self._cprime[w]

    def _peel(self, s: int, v: int) -> dict:
        """Peel Cp_s Cp_v = Cp_{sv} + sum mu[y] Cp_y for sv > v (Lusztig, Hecke
        algebras with unequal parameters, Thm 6.6); store and return the
        generator row h_{s,v,.} = {sv: 1, **mu}, and store Cp_{sv} if it is new.
        `cprime` peels sv only when (sv)^{-1} >= sv and takes the other Cp
        from their inverses (p_{y,w} = p_{y^{-1},w^{-1}}); the ascent rows
        that leaves unpeeled are peeled here when `gen_row` asks for them.

        Cp_s Cp_v = (T_s + v_s^{-1}) Cp_v is bar-invariant with top term T_{sv};
        its coefficient at T_y is p_{sy,v} + v_s^{+-1} p_{y,v}, with + when
        sy < y, summed as two products per term of Cp_v: p at T_{sy}, and
        v_s or v_s^{-1} times p at T_y. Going down in length, each mu_y Cp_y
        is subtracted in place, taking away the nonnegative part of the
        coefficient at T_y; signs are read off the term maps, and a
        polynomial is made once per key when the peel ends. Reads the Cp_y
        with l(y) <= l(v)."""
        t = self.table
        w = t.lmult[v][s]
        one, vs, vsinv = self._one.terms, self.v[s].terms, self.vinv[s].terms
        x = {}
        for y, p in self._cprime[v].items():
            sy = t.lmult[y][s]
            _add_product(x, sy, one, p.terms)
            _add_product(x, y, vs if t.length[sy] < t.length[y] else vsinv, p.terms)
        zero = (0,) * self.rank
        mu = {}
        for y in sorted((y for y in x if y != w), key=lambda y: -t.length[y]):
            c = x.get(y)
            if c is None or max(c) < zero:
                continue
            # m + bar(m) - m_0 for m the nonnegative part of c
            m = {g: a for g, a in c.items() if g >= zero}
            m.update({exp_neg(g): a for g, a in m.items()})
            m = mu[y] = self._held(m)
            for u, d in self._cprime[y].items():
                _add_product(x, u, d.terms, m.terms, -1)
        if x.get(w) != self._one.terms:
            raise ComputationError("KL correction failed")
        for y, c in x.items():
            if y != w and max(c) >= zero:
                raise ComputationError("KL correction failed")
        x = self._polys(x)
        if w == len(self._cprime):
            self._cprime.append(x)
        row = self._gen_rows[s][v] = {w: self._one, **mu}
        return row

    def c_basis(self, w: int) -> dict:
        """C_w = j(Cp_w) in the T-basis."""
        got = self._c_cache.get(w)
        if got is None:
            t = self.table
            got = {
                y: self._held((c.bar() if t.length[y] % 2 == 0 else -c.bar()).terms)
                for y, c in self.cprime(w).items()
            }
            self._c_cache[w] = got
        return got

    # -- structure constants, a-function, gamma ----------------------------------------

    def gen_row(self, s: int, w: int) -> dict:
        """h_{s,w,.} as a dict z -> LaurentPoly.

        Cp_s Cp_w is Cp_{sw} + sum mu_y Cp_y (`_peel`) when sw > w and
        (v_s + v_s^{-1}) Cp_w when sw < w. These coefficients are bar-invariant,
        so they are also those of C_s C_w = j(Cp_s Cp_w) in the C-basis. An
        ascent row is the one `cprime(sw)` stored when s is the first left
        descent of sw, and is peeled here otherwise."""
        row = self._gen_rows[s].get(w)
        if row is None:
            t = self.table
            sw = t.lmult[w][s]
            if t.length[sw] < t.length[w]:
                row = self._gen_rows[s][w] = {w: self._held((self.v[s] + self.vinv[s]).terms)}
            else:
                self.cprime(sw)
                row = self._gen_rows[s].get(w) or self._peel(s, w)
        return row

    def h_rows(self) -> list:
        """Full table: h_rows()[x][y] is the dict z -> h_{x,y,z}.

        The only reader of MAX_FULL_TABLE: past it the input is rejected
        (InputError), so every caller of the table, the a-values and the KL
        gamma inherits the one limit. The rows with l(y) >= l(x) come from
        the recursion on the first left descent s of x,
        C_x = C_s C_{x'} - sum_{u != x} h_{s,x',u} C_u. The anti-involution
        T_w -> T_{w^{-1}} maps C_w to C_{w^{-1}} and reverses products, so
        h_{x,y,z} = h_{y^{-1},x^{-1},z^{-1}}: a row with l(y) < l(x) is the
        recursion's row (y^{-1}, x^{-1}) with every key inverted, sharing its
        polynomials.
        """
        if self._h_rows is not None:
            return self._h_rows
        t = self.table
        if t.size > MAX_FULL_TABLE:
            raise InputError(
                f"full structure-constant table limited to |W| <= {MAX_FULL_TABLE}, "
                f"this system has |W| = {t.size}")
        size, inverse, length = t.size, t.inverse, t.length
        rows = [None] * size
        rows[0] = [{y: self._one} for y in range(size)]
        for lng in range(1, len(t.by_length)):
            for x in t.by_length[lng]:
                s = t.first_left_descent(x)
                xp = t.lmult[x][s]
                corr = [(u, c) for u, c in self.gen_row(s, xp).items() if u != x]
                xrows = []
                for y in range(size):
                    if length[y] < lng:
                        xrows.append({inverse[z]: h for z, h
                                      in rows[inverse[y]][inverse[x]].items()})
                        continue
                    acc = {}
                    for w, hw in rows[xp][y].items():
                        for z, hz in self.gen_row(s, w).items():
                            _add_product(acc, z, hw.terms, hz.terms)
                    for u, cu in corr:
                        for z, hz in rows[u][y].items():
                            _add_product(acc, z, cu.terms, hz.terms, -1)
                    xrows.append(self._polys(acc))
                rows[x] = xrows
        self._h_rows = rows
        return rows

    def a_value(self, z: int):
        """Lusztig's a(z): the shift making every h_{x,y,z} nonnegative."""
        self._compute_a()
        return self._a[z]

    def kl_gamma(self) -> dict:
        """The nonzero gamma_{x,y,z}, the constant term of eps^{a(z)} h_{x,y,z^{-1}}
        (an integer coefficient), keyed (x, y, z) like `AsymptoticRing.gamma`.

        Derived from `h_rows()` and the a-values on every call, so it cannot
        go stale; callers that read many entries derive it once."""
        self._compute_a()
        inverse, a = self.table.inverse, self._a
        out = {}
        for x, row in enumerate(self.h_rows()):
            for y, hs in enumerate(row):
                for u, h in hs.items():
                    z = inverse[u]
                    g = h.terms.get(exp_neg(a[z]), 0)
                    if g:
                        out[(x, y, z)] = g
        return out

    def _compute_a(self):
        """The a-values from every stored entry, then the check a(z) = a(z^{-1}).

        The entries share pooled objects, so each object's lowest exponent
        is read once. h_{x,y,z} and h_{y^{-1},x^{-1},z^{-1}} are one stored
        polynomial (`h_rows`). The check catches a fault in one stored entry
        of such a pair; a fault in computing an entry reaches its partner too
        and leaves the a-values symmetric, and the tests' recursion for
        every pair (x, y) is what catches that."""
        if self._a is not None:
            return
        rows = self.h_rows()
        amax = [(0,) * self.rank] * self.table.size
        cands = {}
        for x in range(self.table.size):
            for y in range(self.table.size):
                for z, h in rows[x][y].items():
                    cand = cands.get(id(h))
                    if cand is None:
                        cand = cands[id(h)] = exp_neg(h.min_exponent())
                    if cand > amax[z]:
                        amax[z] = cand
        for z in range(self.table.size):
            if amax[z] != amax[self.table.inverse[z]]:
                raise ComputationError("a(z) != a(z^{-1}): structure constants corrupt")
        self._a = amax

    # -- two-sided preorder and cells ------------------------------------------------

    def lr_cells(self):
        """(reach, cells, cell_of): reach[w] is the bitmask {y : y <=_LR w}."""
        if self._cells is not None:
            return self._cells
        t = self.table
        size = t.size
        n = t.system.ngens
        adj = [1 << w for w in range(size)]
        for w in range(size):
            for s in range(n):
                for z in self.gen_row(s, w):
                    adj[w] |= 1 << z
                for z in self.gen_row(s, t.inverse[w]):
                    adj[w] |= 1 << t.inverse[z]
        # transitive closure (Warshall): after step k, adj[w] holds every y
        # reachable from w through intermediates among 0..k
        for k in range(size):
            bit, reach_k = 1 << k, adj[k]
            for w in range(size):
                if adj[w] & bit:
                    adj[w] |= reach_k
        cell_of = [None] * size
        cells = []
        for w in range(size):
            if cell_of[w] is not None:
                continue
            members = [y for y in range(size)
                       if adj[w] >> y & 1 and adj[y] >> w & 1]
            for y in members:
                cell_of[y] = len(cells)
            cells.append(sorted(members))
        self._cells = (adj, cells, cell_of)
        return self._cells

    def leq_lr(self, y: int, w: int) -> bool:
        reach, _, _ = self.lr_cells()
        return bool(reach[w] >> y & 1)

    def sim_lr(self, y: int, w: int) -> bool:
        _, _, cell_of = self.lr_cells()
        return cell_of[y] == cell_of[w]
