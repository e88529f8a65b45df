"""The generic Iwahori-Hecke algebra of a finite Coxeter system.

Everything here works in the standard basis {T_w} with the multiplication rule

    T_s T_w = T_{sw}                           if l(sw) > l(w),
    T_s T_w = T_{sw} + (v_s - v_s^{-1}) T_w    if l(sw) < l(w),

where v_s = eps^{L(s)}. The canonical bases are computed from their defining
characterization: Cp_w is the unique bar-invariant element T_w + sum p_{y,w} T_y
with every p_{y,w} supported on strictly negative exponents, built by
correcting the bar-invariant product Cp_s Cp_{sw} downwards; C_w = j(Cp_w)
with j(eps^g) = eps^{-g}, j(T_y) = (-1)^{l(y)} T_y.

Structure constants h_{x,y,z} (C_x C_y = sum h_{x,y,z} C_z) are materialized
by a length recursion on x that only ever multiplies by generator rows, the
a-function is the smallest shift making a z-column nonnegative, and gamma
constants are the resulting constant terms at z^{-1}, kept as a map of the
nonzero ones. The full table is built only for |W| <= MAX_FULL_TABLE, the one
size limit of the package; past it `h_rows` rejects the input. All
coefficients here are Laurent polynomials with integer coefficients, for
every Coxeter type.
"""

from __future__ import annotations

from .coxeter import ElementTable, WeightFunction, validate_weights
from .errors import ComputationError, InputError
from .scalars import LaurentPoly, MonomialOrder, accumulate, exp_neg

# The full table is |W|^2 sparse rows. Time for `h_rows` plus the a-values,
# and the peak resident memory of the process, on a 2-vCPU Xeon VM under
# Python 3.11.7: A4 and H3 (|W| = 120) 0.8 + 0.3 s, 40 MB and 1.8 + 0.5 s,
# 54 MB; D4 (192) 2.7-4.4 + 1.1 s, 95-99 MB; B4 (384) 26-28 + 7-8 s,
# 534-548 MB. So the limit admits D4 and stops short of B4.
MAX_FULL_TABLE = 192


class HeckeAlgebra:
    def __init__(self, table: ElementTable, weights: WeightFunction, order: MonomialOrder,
                 require_positive: bool = True):
        """Positivity of the weights can be waived for specialization targets,
        where only standard-basis arithmetic is needed; the canonical bases
        always require a valid positive weight function."""
        problems = validate_weights(table.system, weights, order)
        if not require_positive:
            problems = [p for p in problems if "L(s) > 0" not in p]
        if problems:
            raise InputError("; ".join(problems))
        self.table = table
        self.weights = weights
        self.order = order
        self.rank = order.rank
        n = table.system.ngens
        self.v = [LaurentPoly.monomial(weights.of_gen(s)) for s in range(n)]
        self.vinv = [LaurentPoly.monomial(exp_neg(weights.of_gen(s))) for s in range(n)]
        self.xi = [self.v[s] - self.vinv[s] for s in range(n)]
        self._tinv: dict = {0: {0: LaurentPoly.one(self.rank)}}
        self._cprime: dict = {}
        self._kl_done_length = -1
        self._c_cache: dict = {}
        self._gen_rows = None
        self._h_rows = None
        self._a = None
        self._cells = None

    # -- T-basis arithmetic ------------------------------------------------------

    def unit(self) -> dict:
        return {0: LaurentPoly.one(self.rank)}

    def t_basis(self, w: int) -> dict:
        return {w: LaurentPoly.one(self.rank)}

    def gen_left(self, s: int, h: dict) -> dict:
        """T_s * h for h in the T-basis."""
        t, out = self.table, {}
        xi = self.xi[s]
        for w, c in h.items():
            sw = t.lmult[w][s]
            accumulate(out, sw, c)
            if t.length[sw] < t.length[w]:
                accumulate(out, w, xi * c)
        return out

    def gen_right(self, h: dict, s: int) -> dict:
        """h * T_s for h in the T-basis."""
        t, out = self.table, {}
        xi = self.xi[s]
        for w, c in h.items():
            ws = t.rmult[w][s]
            accumulate(out, ws, c)
            if t.length[ws] < t.length[w]:
                accumulate(out, w, xi * c)
        return out

    def t_multiply(self, h1: dict, h2: dict) -> dict:
        """Product of two T-basis elements.

        Expands along stored reduced words, sharing prefixes: h1*T_w is reused
        through the right-parent chain of each w in the support of h2.
        """
        cache = {0: h1}

        def left_times(w):
            got = cache.get(w)
            if got is None:
                wp, s = self.table.right_parent(w)
                got = cache[w] = self.gen_right(left_times(wp), s)
            return got

        out = {}
        for w, c in h2.items():
            for u, d in left_times(w).items():
                accumulate(out, u, d * c)
        return out

    def scale(self, h: dict, p: LaurentPoly) -> dict:
        return _clean({w: c * p for w, c in h.items()})

    def add(self, h1: dict, h2: dict) -> dict:
        out = dict(h1)
        for w, c in h2.items():
            accumulate(out, w, c)
        return _clean(out)

    def sub(self, h1: dict, h2: dict) -> dict:
        out = dict(h1)
        for w, c in h2.items():
            accumulate(out, w, -c)
        return _clean(out)

    def t_inverse(self, w: int) -> dict:
        """(T_w)^{-1} in the T-basis, cached; T_s^{-1} = T_s - (v_s - v_s^{-1})."""
        got = self._tinv.get(w)
        if got is None:
            wp, s = self.table.right_parent(w)
            prev = self.t_inverse(wp)
            # T_w = T_{wp} T_s  =>  T_w^{-1} = T_s^{-1} T_{wp}^{-1}
            got = self.sub(self.gen_left(s, prev), self.scale(prev, self.xi[s]))
            self._tinv[w] = got
        return got

    def bar(self, h: dict) -> dict:
        """The ring involution sum a_w T_w -> sum bar(a_w) (T_{w^{-1}})^{-1}."""
        out = {}
        for w, c in h.items():
            cbar = c.bar()
            for u, d in self.t_inverse(self.table.inverse[w]).items():
                accumulate(out, u, cbar * d)
        return out

    # -- canonical bases ------------------------------------------------------------

    def cprime(self, w: int) -> dict:
        """Cp_w in the T-basis."""
        self._ensure_kl(self.table.length[w])
        return self._cprime[w]

    def _ensure_kl(self, upto: int):
        t = self.table
        while self._kl_done_length < upto:
            lng = self._kl_done_length + 1
            if lng == 0:
                self._cprime[0] = self.unit()
            else:
                for w in t.by_length[lng]:
                    self._cprime[w] = self._build_cprime(w)
            self._kl_done_length = lng

    def _build_cprime(self, w: int) -> dict:
        t, order = self.table, self.order
        s = t.first_left_descent(w)
        v = t.lmult[w][s]
        # Cp_s Cp_v = (T_s + v_s^{-1}) Cp_v : bar-invariant, top term T_w
        x = self.add(self.gen_left(s, self._cprime[v]),
                     self.scale(self._cprime[v], self.vinv[s]))
        bad = sorted((y for y in x if y != w), key=lambda y: -t.length[y])
        for y in bad:
            c = x.get(y)
            if c is None or not c:
                continue
            m = c.nonnegative_part(order)
            if not m:
                continue
            mu = m + m.bar() - LaurentPoly.constant(self.rank, m.constant_coefficient())
            x = self.sub(x, self.scale(self._cprime[y], mu))
        if x.get(w) != LaurentPoly.one(self.rank):
            raise ComputationError("KL correction failed")
        for y, c in x.items():
            if y != w and not c.supported_negative(order):
                raise ComputationError("KL correction failed")
        return x

    def c_basis(self, w: int) -> dict:
        """C_w = j(Cp_w) in the T-basis."""
        got = self._c_cache.get(w)
        if got is None:
            t = self.table
            got = {
                y: c.bar() if t.length[y] % 2 == 0 else -c.bar()
                for y, c in self.cprime(w).items()
            }
            self._c_cache[w] = got
        return got

    def t_to_c(self, h: dict) -> dict:
        """Coordinates of a T-basis element in the C-basis."""
        t = self.table
        rem = dict(h)
        out = {}
        for y in sorted(rem, key=lambda u: -t.length[u]):
            c = rem.get(y)
            if c is None or not c:
                continue
            coeff = c if t.length[y] % 2 == 0 else -c
            out[y] = coeff
            for u, d in self.c_basis(y).items():
                accumulate(rem, u, -(coeff * d))
        if any(rem.values()):
            raise ComputationError("C-basis conversion left a remainder")
        return out

    # -- structure constants, a-function, gamma ----------------------------------------

    def gen_row(self, s: int, w: int) -> dict:
        """h_{s,w,.} as a dict z -> LaurentPoly."""
        if self._gen_rows is None:
            self._gen_rows = [dict() for _ in range(self.table.system.ngens)]
        row = self._gen_rows[s].get(w)
        if row is None:
            # C_s = -T_s + v_s T_1, so C_s C_w = v_s C_w - T_s C_w
            prod = self.sub(self.scale(self.c_basis(w), self.v[s]),
                            self.gen_left(s, self.c_basis(w)))
            row = self.t_to_c(prod)
            self._gen_rows[s][w] = row
        return row

    def h_rows(self) -> list:
        """Full table: h_rows()[x][y] is the dict z -> h_{x,y,z}.

        The only reader of MAX_FULL_TABLE: past it the input is rejected
        (InputError), so every caller of the table, the a-values and the KL
        gamma inherits the one limit. The recursion on the first left descent
        s of x uses C_x = C_s C_{x'} - sum_{u != x} h_{s,x',u} C_u.
        """
        if self._h_rows is not None:
            return self._h_rows
        t = self.table
        if t.size > MAX_FULL_TABLE:
            raise InputError(
                f"full structure-constant table limited to |W| <= {MAX_FULL_TABLE}, "
                f"this system has |W| = {t.size}")
        size = t.size
        rows = [None] * size
        rows[0] = [{y: LaurentPoly.one(self.rank)} for y in range(size)]
        for lng in range(1, len(t.by_length)):
            for x in t.by_length[lng]:
                s = t.first_left_descent(x)
                if lng == 1:
                    rows[x] = [self.gen_row(s, y) for y in range(size)]
                    continue
                xp = t.lmult[x][s]
                corr = [(u, c) for u, c in self.gen_row(s, xp).items() if u != x]
                xrows = []
                for y in range(size):
                    acc = {}
                    for w, hw in rows[xp][y].items():
                        for z, hz in self.gen_row(s, w).items():
                            accumulate(acc, z, hw * hz)
                    for u, cu in corr:
                        for z, hz in rows[u][y].items():
                            accumulate(acc, z, -(cu * hz))
                    xrows.append(acc)
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
                    g = h.coefficient(exp_neg(a[z]))
                    if g:
                        out[(x, y, z)] = g
        return out

    def gamma_constant(self, x: int, y: int, z: int):
        """gamma_{x,y,z}, read from `kl_gamma()` (0 off its keys)."""
        return self.kl_gamma().get((x, y, z), 0)

    def _compute_a(self):
        if self._a is not None:
            return
        rows = self.h_rows()
        order = self.order
        zero = order.zero
        amax = [zero] * self.table.size
        for x in range(self.table.size):
            for y in range(self.table.size):
                for z, h in rows[x][y].items():
                    cand = exp_neg(h.min_exponent(order))
                    if order.less(amax[z], cand):
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
        # transitive closure by iterated bitmask union
        changed = True
        while changed:
            changed = False
            for w in range(size):
                acc = adj[w]
                rest = acc
                while rest:
                    y = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    acc |= adj[y]
                if acc != adj[w]:
                    adj[w] = acc
                    changed = True
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


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}
