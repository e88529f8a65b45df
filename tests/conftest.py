"""Shared pipeline cache so expensive stages are computed once per run, and
a fault injector for structure-constant tables."""

from heckecell.asymptotic import AsymptoticRing
from heckecell.cli import Session

_CACHE: dict = {}


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
    """A fresh ring whose gamma[key] is off by one. The table is first used,
    then replaced and edited in place, so a verification that cached an index
    of the old table would miss the corruption."""
    ring = AsymptoticRing(session.algebra, session.tensors)
    ring.basis_product(*key[:2])
    ring.gamma = dict(ring.gamma)
    ring.gamma[key] = ring.gamma[key] + 1
    return ring
