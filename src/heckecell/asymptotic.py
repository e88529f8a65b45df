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
entries (`LeadingTensor.nonzero`) rather than from every (x, y, z) of a
block: each entry a = M_x[i][j] meets only the entries b = M_y[j][l] of row j
and c = M_z[l][i] at position (l, i), found through one index by row and one
by position per representation, and adds f^{-1} a b c to gamma_{x,y,z}; the
table is filled block by block in (x, y, z) order. The representation check
likewise compares sparse matrices, so every step costs in proportion to the
nonzero entries, dense matrices included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ComputationError, VerificationError
from .hecke import HeckeAlgebra
from .matrices import f_sparse_mul
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


class AsymptoticRing:
    """Structure constants, identity, trace and blocks of the asymptotic ring."""

    def __init__(self, alg: HeckeAlgebra, tensors: list):
        size = alg.table.size
        total = sum(t.dim * t.dim for t in tensors)
        if total != size:
            raise VerificationError(
                f"missing irreducibles: sum of squared dimensions {total} != {size}")
        self.alg = alg
        self.tensors = list(tensors)
        self.size = size
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
            sup = sorted(t.support)
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
            bis = {self.block_of[w] for w in t.support}
            if len(bis) != 1:
                raise ComputationError(f"representation {t.label} meets several blocks")
            self.block_of_label[t.label] = next(iter(bis))

    def _build_gamma(self):
        inverse = self.alg.table.inverse
        n = [Fraction(0)] * self.size
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
                nz = t.nonzero()
                by_row: dict = {}
                by_pos: dict = {}
                for w, ents in nz.items():
                    tr = Fraction(0)
                    for i, j, c in ents:
                        by_row.setdefault(i, []).append((w, j, c))
                        by_pos.setdefault((i, j), []).append((w, c))
                        if i == j:
                            tr = c + tr
                    if tr:
                        n[inverse[w]] = n[inverse[w]] + fi * tr
                tens.append((fi, nz, by_row, by_pos))
            for x in block:
                row: dict = {}
                for fi, nz, by_row, by_pos in tens:
                    for i, j, a in nz.get(x, ()):
                        for y, l, b in by_row.get(j, ()):
                            fab = fi * a * b
                            for z, c in by_pos.get((l, i), ()):
                                accumulate(row, (y, z), fab * c)
                for y, z in sorted(row):
                    gamma[(x, y, z)] = row[(y, z)]
        self.gamma = gamma
        self.n_vec = n
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
        acc = Fraction(0)
        for w, c in a.items():
            nw = self.n_vec[inverse[w]]
            if nw:
                acc = acc + c * nw
        return acc

    # -- verification ---------------------------------------------------------------------

    def verify(self, seed: int = 0, exhaustive_max: int = 16,
               random_triples: int = 10000) -> Report:
        """Ring axioms and symmetries; any violation is build-breaking."""
        inverse = self.alg.table.inverse
        rows = self.gamma_rows()
        report = Report()

        bad = []
        for (x, y, z), g in self.gamma.items():
            if self.gamma.get((y, z, x), Fraction(0)) != g:
                bad.append(f"cyclic symmetry fails at ({x},{y},{z})")
            if self.gamma.get((inverse[y], inverse[x], inverse[z]), Fraction(0)) != g:
                bad.append(f"anti-involution symmetry fails at ({x},{y},{z})")
            if not (self.block_of[x] == self.block_of[y] == self.block_of[z]):
                bad.append(f"gamma crosses blocks at ({x},{y},{z})")
        report.record("gamma symmetries", bad)

        bad = []
        for x in range(self.size):
            for y in range(self.size):
                acc = Fraction(0)
                for w, g in rows.get((inverse[x], y), ()):
                    nw = self.n_vec[w]
                    if nw:
                        acc = acc + g * nw
                want = Fraction(1) if x == y else Fraction(0)
                if acc != want:
                    bad.append(f"dual-pairing identity fails at ({x},{y})")
        report.record("gamma/n duality", bad)

        one = self.identity_element()
        bad = []
        for x in range(self.size):
            tx = {x: Fraction(1)}
            if self.multiply(one, tx, rows) != tx or self.multiply(tx, one, rows) != tx:
                bad.append(f"identity fails at {x}")
        report.record("two-sided identity", bad)

        bad = []
        for x in range(self.size):
            for y in range(self.size):
                want = Fraction(1) if x == y else Fraction(0)
                if self.trace(self.basis_product(x, inverse[y], rows)) != want:
                    bad.append(f"trace dual-basis fails at ({x},{y})")
        report.record("trace dual bases", bad)

        bad = []
        if self.size <= exhaustive_max:
            triples = ((x, y, z) for x in range(self.size)
                       for y in range(self.size) for z in range(self.size))
        else:
            rng = random.Random(seed)
            triples = ((rng.randrange(self.size), rng.randrange(self.size),
                        rng.randrange(self.size)) for _ in range(random_triples))
        for x, y, z in triples:
            lhs = self.multiply(self.basis_product(x, y, rows), {z: Fraction(1)}, rows)
            rhs = self.multiply({x: Fraction(1)}, self.basis_product(y, z, rows), rows)
            if lhs != rhs:
                bad.append(f"associativity fails at ({x},{y},{z})")
        report.record("associativity", bad)

        bad = []
        limit = 20
        for t in self.tensors:
            nz = t.nonzero()
            block = self.blocks[self.block_of_label[t.label]]
            pairs = ([(x, y) for x in block for y in block]
                     if len(block) <= limit else
                     _sample_pairs(block, seed, 400))
            for x, y in pairs:
                acc: dict = {}
                for z, c in self.basis_product(x, y, rows).items():
                    for i, j, m in nz.get(z, ()):
                        accumulate(acc, (i, j), c * m)
                if acc != f_sparse_mul(nz.get(x, ()), nz.get(y, ())):
                    bad.append(f"representation property fails for {t.label} at ({x},{y})")
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
            ours = self.gamma.get((x, y, z), Fraction(0))
            if ours != kl:
                bad.append(f"gamma mismatch at ({x},{y},{z}): reps {ours} vs kl {kl}")
        report.record("gamma equality", bad)
        bad = []
        for t in self.tensors:
            for w in t.support:
                if alg.a_value(w) != t.a:
                    bad.append(f"a({w}) != a-invariant of {t.label}")
        report.record("a-value link", bad)
        return report


def _sample_pairs(block, seed, count):
    rng = random.Random(seed)
    return [(rng.choice(block), rng.choice(block)) for _ in range(count)]
