"""Finite Coxeter systems: enumeration, lengths, descents, weight functions.

Elements are enumerated once by breadth-first search over the orbit of a
chamber point: w is identified by w^{-1}(rho), rho = (1, ..., 1), in the dual
of a reflection representation over F = Q(2cos(2pi/N)) with Cartan-style
integer-in-Z[delta] entries. rho lies in the open fundamental chamber, so the
points of distinct elements differ, and right multiplication by s is one
vector update. Elements then get small integer ids; all downstream tables
(multiplication, inverses, descent bitsets, reduced words) are stored on the
table and never mutated afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError, ComputationError
from .fields import RealCyclotomicField, reduced_conductor
from .scalars import MonomialOrder

# Enumeration stops past this many elements, so an infinite Coxeter matrix is
# rejected (exit 3) instead of enumerated forever. On a 2-vCPU Xeon VM under
# Python 3.11.7 a `cells` run reaches the cap, from start to exit, in 1.6 s at
# a peak RSS of 38 MB on affine A~2 [[1,3,3],[3,1,3],[3,3,1]], and in 1.3-1.8 s
# at 37 MB on the hyperbolic [[1,5,3],[5,1,3],[3,3,1]]. B4 (384 elements),
# the largest table CI builds, is far below it.
MAX_ELEMENTS = 20000


def _type_matrix(name: str):
    """Coxeter matrix for a named type, spelled as `CoxeterSystem.named` stores
    it; I2(m) spelled 'I2:m'."""
    if name.startswith("I2:"):
        try:
            m = int(name[3:])
        except ValueError:
            raise InputError(f"I2(m) needs an integer m, not {name[3:]!r}") from None
        if not 3 <= m <= 12:
            raise InputError("I2(m) supported for 3 <= m <= 12")
        return ((1, m), (m, 1))
    if name in ("A1", "A2", "A3", "A4"):
        n = int(name[1])
        return tuple(
            tuple(1 if i == j else (3 if abs(i - j) == 1 else 2) for j in range(n))
            for i in range(n)
        )
    if name in ("B2", "B3"):
        n = int(name[1])
        return tuple(
            tuple(
                1 if i == j else (4 if {i, j} == {0, 1} else (3 if abs(i - j) == 1 else 2))
                for j in range(n)
            )
            for i in range(n)
        )
    if name == "H3":
        return ((1, 5, 2), (5, 1, 3), (2, 3, 1))
    raise InputError(f"unknown Coxeter type {name!r}")


@dataclass(frozen=True)
class CoxeterSystem:
    """A finite Coxeter system: generators 0..n-1 and the matrix (m_st)."""

    matrix: tuple
    name: str = ""

    def __post_init__(self):
        m = self.matrix
        n = len(m)
        if any(len(m[i]) != n or m[i][i] != 1 for i in range(n)):
            raise InputError("Coxeter matrix must be square with 1 on the diagonal")
        for i in range(n):
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise InputError("Coxeter matrix must be symmetric")
                if i != j and m[i][j] < 2:
                    raise InputError("off-diagonal Coxeter matrix entries must be >= 2")

    @classmethod
    def named(cls, name: str) -> "CoxeterSystem":
        """The named type, keeping the canonical spelling: stripped, I2:m with m an int."""
        name = name.strip()
        matrix = _type_matrix(name)
        if name.startswith("I2:"):
            name = f"I2:{matrix[0][1]}"
        return cls(matrix, name=name)

    @property
    def ngens(self) -> int:
        return len(self.matrix)

    @property
    def bond_orders(self) -> list:
        return [self.matrix[i][j] for i in range(self.ngens) for j in range(i, self.ngens)]

    @property
    def conductor(self) -> int:
        return reduced_conductor(self.bond_orders)

    def coefficient_field(self) -> RealCyclotomicField:
        return RealCyclotomicField(self.conductor)

    def generator_classes(self) -> list:
        """Conjugacy classes of generators: connected by a path of odd bonds."""
        parent = list(range(self.ngens))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(self.ngens):
            for j in range(i + 1, self.ngens):
                if self.matrix[i][j] % 2 == 1:
                    parent[find(i)] = find(j)
        classes = {}
        for i in range(self.ngens):
            classes.setdefault(find(i), []).append(i)
        return sorted(classes.values(), key=lambda c: min(c))


class ElementTable:
    """Complete enumeration of a finite Coxeter group.

    Attributes (all immutable after construction):
      size          |W|
      word[w]       the ShortLex-least reduced word found during BFS
      length[w]     l(w)
      rmult[w][s]   index of w*s
      lmult[w][s]   index of s*w
      inverse[w]    index of w^{-1}
      left_descents[w]   bitmask int over generators
      by_length     element ids grouped by length
      longest       id of the longest element

    Ids are given breadth-first, so they run in length order: l(y) < l(w)
    implies y < w. `HeckeAlgebra.cprime` relies on it.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self.field = system.coefficient_field()
        self._enumerate()

    def _cartan(self):
        """Rows cartan[s] with s(x) = x - (cartan[s] . x) alpha_s on the simple
        roots alpha_s, so a point f of the dual space moves as f*s = f - f_s cartan[s]."""
        F = self.field
        n = self.system.ngens
        cartan = [[None] * n for _ in range(n)]
        for s in range(n):
            for t in range(n):
                if s == t:
                    cartan[s][t] = 2
                elif self.system.matrix[s][t] == 2:
                    cartan[s][t] = 0
                elif s < t:
                    cartan[s][t] = -1
                else:
                    m = self.system.matrix[s][t]
                    cartan[s][t] = -(2 + F.two_cos(1, m))
        return cartan

    def _enumerate(self):
        n = self.system.ngens
        cartan = self._cartan()
        # w is identified by the point rho*w = w^{-1}(rho); rho = (1, ..., 1) lies in
        # the open fundamental chamber, whose stabilizer in W is trivial (Tits)
        rho = (1,) * n
        index = {rho: 0}
        points = [rho]
        self.word = [()]
        self.length = [0]
        rmult = [[None] * n]
        frontier = [0]
        while frontier:
            new_frontier = []
            for w in frontier:
                p = points[w]
                for s in range(n):
                    ps = p[s]
                    q = tuple(x - ps * c if c else x for x, c in zip(p, cartan[s]))
                    idx = index.get(q)
                    if idx is None:
                        idx = len(points)
                        if idx > MAX_ELEMENTS:
                            raise InputError(f"group not finite, or more than {MAX_ELEMENTS} "
                                             "elements")
                        index[q] = idx
                        points.append(q)
                        self.word.append(self.word[w] + (s,))
                        self.length.append(self.length[w] + 1)
                        rmult.append([None] * n)
                        new_frontier.append(idx)
                    rmult[w][s] = idx
            frontier = new_frontier
        self.size = len(points)
        self.rmult = rmult
        self.inverse = [None] * self.size
        for w in range(self.size):
            acc = 0
            for s in reversed(self.word[w]):
                acc = self.rmult[acc][s]
            self.inverse[w] = acc
        inv = self.inverse
        # s w = (w^{-1} s)^{-1}
        self.lmult = [[inv[rmult[inv[w]][s]] for s in range(n)] for w in range(self.size)]
        self.left_descents = [0] * self.size
        for w in range(self.size):
            for s in range(n):
                if self.length[self.lmult[w][s]] < self.length[w]:
                    self.left_descents[w] |= 1 << s
        maxlen = max(self.length)
        self.by_length = [[] for _ in range(maxlen + 1)]
        for w in range(self.size):
            self.by_length[self.length[w]].append(w)
        longest = self.by_length[maxlen]
        if len(longest) != 1:
            raise ComputationError("longest element is not unique")
        self.longest = longest[0]

    def gen(self, s: int) -> int:
        """Element id of the generator s."""
        return self.rmult[0][s]

    def first_left_descent(self, w: int) -> int:
        d = self.left_descents[w]
        if not d:
            raise ComputationError("identity has no descent")
        return (d & -d).bit_length() - 1

    def right_parent(self, w: int):
        """(w', s) with w = w' s along the stored word; None for the identity."""
        if not self.word[w]:
            return None
        s = self.word[w][-1]
        return self.rmult[w][s], s


@dataclass(frozen=True)
class WeightFunction:
    """L: W -> Z^rank, determined by its values on the generators."""

    rank: int
    values: tuple  # tuple of exponent tuples, one per generator

    def of_gen(self, s: int):
        return self.values[s]


def universal_weights(system: CoxeterSystem) -> WeightFunction:
    """One coordinate per generator conjugacy class; the class of the last
    generator comes first, matching the (a, b) labelling of the two-class
    diagrams (B_n, even I2) where `a` sits on the tail generators."""
    classes = system.generator_classes()
    k = len(classes)
    coord_of_class = {}
    for pos, cls in enumerate(reversed(classes)):
        coord_of_class[tuple(cls)] = pos
    values = []
    for s in range(system.ngens):
        for cls in classes:
            if s in cls:
                vec = [0] * k
                vec[coord_of_class[tuple(cls)]] = 1
                values.append(tuple(vec))
                break
    return WeightFunction(k, tuple(values))


def equal_weights(system: CoxeterSystem) -> WeightFunction:
    return WeightFunction(1, tuple((1,) for _ in range(system.ngens)))


def validate_weights(system: CoxeterSystem, weights: WeightFunction,
                     order: MonomialOrder, require_positive: bool = True) -> list:
    """Class-constancy and, when required, strict positivity in `order` of
    the weights, given in the user's coordinates; returns violation strings."""
    problems = []
    if order.rank != weights.rank:
        problems.append(
            f"order rank {order.rank} does not match weight rank {weights.rank}")
        return problems
    for cls in system.generator_classes():
        vals = {weights.of_gen(s) for s in cls}
        if len(vals) > 1:
            problems.append(
                f"conjugate generators with unequal weights: class {cls}")
    if require_positive:
        zero = (0,) * order.rank
        for s in range(system.ngens):
            if not order.stored(weights.of_gen(s)) > zero:
                problems.append(f"L(s) > 0 fails for generator {s}: {weights.of_gen(s)}")
    return problems


def parse_system(spec) -> CoxeterSystem:
    if isinstance(spec, str) and not spec.lstrip().startswith("["):
        return CoxeterSystem.named(spec)
    try:
        matrix = json.loads(spec) if isinstance(spec, str) else spec
        rows = tuple(tuple(row) for row in matrix)
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse system specification {spec!r}") from exc
    if any(type(x) is not int for row in rows for x in row):  # not bool
        raise InputError(f"Coxeter matrix entries must be integers, not {spec!r}")
    return CoxeterSystem(rows)


def parse_weights(spec, system: CoxeterSystem) -> WeightFunction:
    if spec in (None, "equal"):
        return equal_weights(system)
    if spec == "universal":
        return universal_weights(system)
    try:
        data = json.loads(spec) if isinstance(spec, str) else spec
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot parse weight specification {spec!r}: {exc}") from exc
    names = [str(s) for s in range(system.ngens)]
    if not isinstance(data, dict):
        raise InputError(f"weight specification {spec!r} must be a JSON object mapping "
                         f"generators 0..{system.ngens - 1} to weight vectors")
    for key in data:
        if key not in names:
            raise InputError(f"weight specification {spec!r} names {key!r}, which is not "
                             f"a generator 0..{system.ngens - 1}")
    for key in names:
        if key not in data:
            raise InputError(f"weight specification {spec!r} has no weight for generator {key}")
        if not isinstance(data[key], list):
            raise InputError(f"weight specification {spec!r}: the weight of generator {key} "
                             "must be a list of integers")
    values = [tuple(data[key]) for key in names]
    if any(type(g) is not int for v in values for g in v):  # not bool
        raise InputError(f"weight vectors must hold integers, not {spec!r}")
    ranks = {len(v) for v in values}
    if len(ranks) != 1:
        raise InputError("weight vectors must share one rank")
    return WeightFunction(ranks.pop(), tuple(values))
