"""The asymptotic ring built from leading matrix coefficients.

Given one balanced representation per irreducible, the structure constants

    gamma_{x,y,z} = sum_lam f_lam^{-1} trace(M_x^lam M_y^lam M_z^lam)

(with M_w^lam the leading-coefficient matrix of T_w) define an associative
F-algebra on the basis {t_w}: t_x t_y = sum_z gamma_{x,y,z^{-1}} t_z. Its
identity is sum_{w in D} n_w t_w with n_w = sum_lam f^{-1} trace(M_{w^{-1}}),
its trace t_w -> n_{w^{-1}} makes {t_w}, {t_{w^{-1}}} dual bases, and the
matrices M^lam themselves are its irreducible representations. The nonzero
gamma live inside blocks: connected components of the graph joining elements
that share a representation with a nonzero leading matrix.

The leading matrices are sparse, so the table is built from their nonzero
entries (`LeadingTensor.entries`) rather than from every (x, y, z) of a
block: each entry a = M_x[i][j] meets only the entries b = M_y[j][l] of row j
and c = M_z[l][i] at position (l, i), found through one index by row and one
by position per representation, and adds f^{-1} a b c to gamma_{x,y,z}; the
table is filled block by block in (x, y, z) order. The representation check
likewise compares sparse matrices, so every step costs in proportion to the
nonzero entries, dense matrices included.

The gamma are Lusztig's, integers (`compare_with_kl` checks it), and the n_d
are integers too in the rings built here, even over a field of degree above
one, where the sums above produce them as CycloNumbers with no irrational
part. The table stores each value through `fields.narrow`:
an int for a rational integer, a Fraction for another rational, and an
irrational CycloNumber unchanged. Equality, hashing and the artifact text
agree across these types, so the stored values are the same; only the
arithmetic of the ring, phi and bimodule checks becomes int arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .errors import ComputationError
from .fields import narrow
from .hecke import HeckeAlgebra
from .matrices import f_sparse_mul
from .reps import check_complete
from .scalars import accumulate, scalar_inverse


@dataclass
class Report:
    """Outcome of a verification suite: named checks with violation lists."""

    checks: dict = dc_field(default_factory=dict)

    def record(self, name: str, violations: list):
        self.checks[name] = violations

    @property
    def ok(self) -> bool:
        return all(not v for v in self.checks.values())

    def summary(self) -> str:
        lines = []
        for name, violations in self.checks.items():
            status = "pass" if not violations else f"FAIL ({len(violations)})"
            lines.append(f"{name}: {status}")
            for v in violations[:5]:
                lines.append(f"  - {v}")
        return "\n".join(lines)


def sampled_triples(size: int, samples: int, seed: int):
    """The (x, y, z) cases of the sampled associativity check: the stream of
    random.Random(seed).randrange(size), drawn by the rejection loop randrange
    runs on getrandbits(size.bit_length()), without its call overhead."""
    getrandbits = random.Random(seed).getrandbits
    k = size.bit_length()

    def draws():
        for _ in range(3 * samples):
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            yield r

    stream = draws()
    return zip(stream, stream, stream)


class AsymptoticRing:
    """Structure constants, identity, trace and blocks of the asymptotic ring."""

    def __init__(self, alg: HeckeAlgebra, tensors: list):
        check_complete(alg.table.size, tensors)
        self.alg = alg
        self.tensors = list(tensors)
        self.size = alg.table.size
        self._build_blocks()
        self._build_gamma()

    # -- construction -------------------------------------------------------------

    def _build_blocks(self):
        parent = list(range(self.size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t in self.tensors:
            sup = list(t.entries)
            for w in sup[1:]:
                parent[find(w)] = find(sup[0])
        groups: dict = {}
        for w in range(self.size):
            groups.setdefault(find(w), []).append(w)
        self.blocks = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
        self.block_of = [None] * self.size
        for bi, block in enumerate(self.blocks):
            for w in block:
                self.block_of[w] = bi
        self.block_of_label = {}
        for t in self.tensors:
            bis = {self.block_of[w] for w in t.entries}
            if len(bis) != 1:
                raise ComputationError(f"representation {t.label} meets several blocks")
            self.block_of_label[t.label] = next(iter(bis))

    def _build_gamma(self):
        inverse = self.alg.table.inverse
        n = [0] * self.size
        gamma: dict = {}
        for bi, block in enumerate(self.blocks):
            # trace(M_x M_y M_z) is the sum of a*b*c over the entries
            # a = M_x[i][j], b = M_y[j][l], c = M_z[l][i]: index each
            # representation's entries by row and by position
            tens = []
            for t in self.tensors:
                if self.block_of_label[t.label] != bi:
                    continue
                fi = scalar_inverse(t.f)
                by_row: dict = {}
                by_pos: dict = {}
                for w, ents in t.entries.items():
                    tr = 0
                    for i, j, c in ents:
                        by_row.setdefault(i, []).append((w, j, c))
                        by_pos.setdefault((i, j), []).append((w, c))
                        if i == j:
                            tr = c + tr
                    if tr:
                        n[inverse[w]] = n[inverse[w]] + fi * tr
                tens.append((fi, t.entries, by_row, by_pos))
            for x in block:
                row: dict = {}
                for fi, nz, by_row, by_pos in tens:
                    for i, j, a in nz.get(x, ()):
                        for y, l, b in by_row.get(j, ()):
                            fab = fi * a * b
                            for z, c in by_pos.get((l, i), ()):
                                accumulate(row, (y, z), fab * c)
                for y, z in sorted(row):
                    gamma[(x, y, z)] = narrow(row[(y, z)])
        self.gamma = gamma
        self.n_vec = [narrow(c) for c in n]
        self.d_set = [w for w in range(self.size) if n[w]]

    # -- ring operations ---------------------------------------------------------------

    def gamma_rows(self) -> dict:
        """The nonzero gamma by their first two indices: (x, y) -> [(z, gamma_{x,y,z})].

        Derived from `gamma` on every call, so it cannot go stale when the
        table is replaced or edited; callers that multiply many times derive
        it once and pass it on."""
        rows: dict = {}
        for (x, y, z), g in self.gamma.items():
            if g:
                rows.setdefault((x, y), []).append((z, g))
        return rows

    def multiply(self, a: dict, b: dict, rows: dict | None = None) -> dict:
        """Product of two elements given as {w: coefficient} in the t-basis,
        with scalar or Laurent-polynomial coefficients; `rows` is a
        gamma_rows() result to reuse."""
        if rows is None:
            rows = self.gamma_rows()
        inverse = self.alg.table.inverse
        out: dict = {}
        for x, cx in a.items():
            for y, cy in b.items():
                row = rows.get((x, y))
                if not row:
                    continue
                c = cx * cy
                for z, g in row:
                    accumulate(out, inverse[z], g * c)
        return out

    def basis_product(self, x: int, y: int, rows: dict | None = None) -> dict:
        if rows is None:
            rows = self.gamma_rows()
        inverse = self.alg.table.inverse
        return {inverse[z]: g for z, g in rows.get((x, y), ())}

    def identity_element(self) -> dict:
        return {w: self.n_vec[w] for w in self.d_set}

    def trace(self, a: dict):
        inverse = self.alg.table.inverse
        acc = 0
        for w, c in a.items():
            nw = self.n_vec[inverse[w]]
            if nw:
                acc = acc + c * nw
        return acc

    # -- verification ---------------------------------------------------------------------

    def verify(self, seed: int = 0, exhaustive_max: int = 16,
               random_triples: int = 10000) -> Report:
        """Ring axioms and symmetries; any violation is build-breaking.

        Associativity is decided for every triple at every |W|. Up to
        `exhaustive_max` elements the report lists the failing triples in
        (x, y, z) order; above it, the failing ones among `random_triples`
        triples drawn from `seed`, in draw order. A passing check draws
        nothing."""
        inverse = self.alg.table.inverse
        rows = self.gamma_rows()
        report = Report()

        bad = []
        for (x, y, z), g in self.gamma.items():
            if self.gamma.get((y, z, x), 0) != g:
                bad.append(f"cyclic symmetry fails at ({x},{y},{z})")
            if self.gamma.get((inverse[y], inverse[x], inverse[z]), 0) != g:
                bad.append(f"anti-involution symmetry fails at ({x},{y},{z})")
            if not (self.block_of[x] == self.block_of[y] == self.block_of[z]):
                bad.append(f"gamma crosses blocks at ({x},{y},{z})")
        report.record("gamma symmetries", bad)

        bad = []
        for x in range(self.size):
            for y in range(self.size):
                acc = 0
                for w, g in rows.get((inverse[x], y), ()):
                    nw = self.n_vec[w]
                    if nw:
                        acc = acc + g * nw
                want = 1 if x == y else 0
                if acc != want:
                    bad.append(f"dual-pairing identity fails at ({x},{y})")
        report.record("gamma/n duality", bad)

        one = self.identity_element()
        bad = []
        for x in range(self.size):
            tx = {x: 1}
            if self.multiply(one, tx, rows) != tx or self.multiply(tx, one, rows) != tx:
                bad.append(f"identity fails at {x}")
        report.record("two-sided identity", bad)

        bad = []
        for x in range(self.size):
            for y in range(self.size):
                want = 1 if x == y else 0
                if self.trace(self.basis_product(x, inverse[y], rows)) != want:
                    bad.append(f"trace dual-basis fails at ({x},{y})")
        report.record("trace dual bases", bad)

        # (t_x t_y) t_w - t_x (t_y t_w) at t_{u^-1} is
        #   sum_z gamma_{x,y,z} gamma_{z^-1,w,u} - sum_v gamma_{y,w,v} gamma_{x,v^-1,u};
        # for each x both sums go into one map keyed (y, w, u), from the rows
        # indexed by first index and the gamma by last index. A key left is
        # a failing triple (x, y, w), so the failing set covers every triple.
        first: dict = {}  # x -> [(y, [(z, gamma_{x,y,z})])]
        last: dict = {}   # z -> [(x, y, gamma_{x,y,z})]
        for (x, y), row in rows.items():
            first.setdefault(x, []).append((y, row))
            for z, g in row:
                last.setdefault(z, []).append((x, y, g))
        failing = set()
        for x in range(self.size):
            diff: dict = {}
            for y, row in first.get(x, ()):
                for z, g in row:
                    for w, row2 in first.get(inverse[z], ()):
                        for u, h in row2:
                            accumulate(diff, (y, w, u), g * h)
            for vinv, row in first.get(x, ()):
                for y, w, g in last.get(inverse[vinv], ()):
                    for u, h in row:
                        accumulate(diff, (y, w, u), -(g * h))
            failing.update((x, y, w) for y, w, _ in diff)
        if self.size <= exhaustive_max:
            triples = sorted(failing)
        else:
            triples = [t for t in sampled_triples(self.size, random_triples, seed)
                       if t in failing] if failing else []
        report.record("associativity", [f"associativity fails at ({x},{y},{z})"
                                        for x, y, z in triples])

        # every (x, y) of each block; off it M_x M_y = 0, and so is the
        # image of t_x t_y, as gamma does not cross blocks ("gamma symmetries")
        bad = []
        for t in self.tensors:
            nz = t.entries
            block = self.blocks[self.block_of_label[t.label]]
            for x in block:
                for y in block:
                    acc: dict = {}
                    for z, c in self.basis_product(x, y, rows).items():
                        for i, j, m in nz.get(z, ()):
                            accumulate(acc, (i, j), c * m)
                    if acc != f_sparse_mul(nz.get(x, ()), nz.get(y, ())):
                        bad.append(
                            f"representation property fails for {t.label} at ({x},{y})")
        report.record("irreducible representations", bad)
        return report

    def compare_with_kl(self) -> Report:
        """Entrywise comparison with the Kazhdan-Lusztig side gamma constants,
        plus the a-value link: a nonzero leading matrix at z forces a(z) = a_lam.

        Both sides are zero off their keys, so walking the sorted union of the
        two key sets is exhaustive and lists mismatches in (x, y, z) order."""
        alg = self.alg
        report = Report()
        theirs = alg.kl_gamma()
        bad = []
        for x, y, z in sorted(self.gamma.keys() | theirs.keys()):
            kl = theirs.get((x, y, z), 0)
            ours = self.gamma.get((x, y, z), 0)
            if ours != kl:
                bad.append(f"gamma mismatch at ({x},{y},{z}): reps {ours} vs kl {kl}")
        report.record("gamma equality", bad)
        bad = []
        for t in self.tensors:
            for w in t.entries:
                if alg.a_value(w) != t.a:
                    bad.append(f"a({w}) != a-invariant of {t.label}")
        report.record("a-value link", bad)
        return report
