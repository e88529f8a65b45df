"""Shared pipeline cache so expensive stages are computed once per run, and
fault injectors for structure-constant tables and leading matrices."""

from fractions import Fraction

from heckecell.asymptotic import AsymptoticRing
from heckecell.cli import Session
from heckecell.matrices import KMatrix
from heckecell.reps import leading_tensor, schur_data
from heckecell.scalars import LaurentPoly

_CACHE: dict = {}

# B4 as an explicit Coxeter matrix: |W| = 384, above hecke.MAX_FULL_TABLE,
# while its group table still enumerates in about a second.
B4_MATRIX = "[[1,4,2,2],[4,1,3,2],[2,3,1,3],[2,2,3,1]]"

# D4 as an explicit Coxeter matrix (a branching diagram, no built-in name):
# |W| = 192, the largest table under hecke.MAX_FULL_TABLE.
D4_MATRIX = "[[1,3,2,2],[3,1,3,3],[2,3,1,2],[2,3,2,1]]"


def f_mat_mul(a, b):
    """Dense product of two field matrices (lists of lists)."""
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m) if a[i][k]), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


def constant_form(rows) -> KMatrix:
    """A rank-1 KMatrix with the given constant entries."""
    return KMatrix.from_polys([[LaurentPoly.constant(1, x) for x in row] for row in rows])


def own_leading_tensor(rep):
    """The leading tensor of `rep` as it stands, under its own Schur data."""
    words = rep.words()
    return leading_tensor(rep, schur_data(rep, words), words)


def weight_of(weights, table, w: int) -> tuple:
    """L(w), summed along the stored word of w."""
    g = [0] * weights.rank
    for s in table.word[w]:
        for i, x in enumerate(weights.values[s]):
            g[i] += x
    return tuple(g)


def ring_trace(ring: AsymptoticRing, a: dict):
    """The symmetrizing trace of J, t_w -> n_{w^-1}, extended linearly."""
    inverse = ring.alg.table.inverse
    return sum((c * ring.n_vec[inverse[w]] for w, c in a.items()), 0)


def get_session(system: str, weights: str = "equal", order=None) -> Session:
    key = (system, weights, order)
    if key not in _CACHE:
        _CACHE[key] = Session({"system": system, "weights": weights, "order": order})
    return _CACHE[key]


# (1, 1, 1): the generator 1 is an involution in the distinguished set with
# n_1 = 1, so gamma_{1,1,1} is read by the identity, duality, associativity,
# phi and bimodule checks, and changing it keeps both gamma symmetries.
CORRUPT_KEY = (1, 1, 1)


def corrupted_ring(session: Session, key=CORRUPT_KEY) -> AsymptoticRing:
    """A fresh ring whose gamma[key] is off by one (a key outside the table
    is added with value 1). The table is first used, then replaced and edited
    in place, so a verification that cached an index of the old table would
    miss the corruption."""
    ring = AsymptoticRing(session.algebra, session.tensors)
    ring.multiply({key[0]: 1}, {key[1]: 1})
    ring.gamma = dict(ring.gamma)
    ring.gamma[key] = ring.gamma.get(key, 0) + 1
    return ring


def edited_leading_session(edit: str, system: str = "I2:5") -> Session:
    """A fresh dihedral session whose ring is built before the leading entries
    of one representation are edited in place. The matrix of dihedral:1 at
    the simple reflection 1 is [[1, 0], [0, 0]] on I2:5 and I2:12: "zero"
    makes its entry (1, 0) equal to 1, "nonzero" raises its entry (0, 0) to
    2. "erased" deletes the matrix of onedim:++ at the identity, [[1]], so
    the orthogonality sums it alone fed vanish."""
    session = Session({"system": system})
    tensors = {t.label: t for t in session.ring.tensors}
    if edit == "erased":
        entries = tensors["onedim:++"].entries
        assert entries[0] == [(0, 0, 1)]
        del entries[0]
        return session
    ents = tensors["dihedral:1"].entries[1]
    assert ents == [(0, 0, 1)]
    if edit == "zero":
        ents.append((1, 0, Fraction(1)))
    else:
        ents[0] = (0, 0, ents[0][2] + 1)
    return session
