import random
from fractions import Fraction

import pytest

from ncmatch.geometry import DoubleSet
from ncmatch.oracle import Matching
from ncmatch.quadfield import QuadNumber


def globalize(m: Matching, index_map) -> Matching:
    """Map a matching on a half set into combined-set indices."""
    edges = frozenset(
        (min(index_map[i], index_map[j]), max(index_map[i], index_map[j]))
        for i, j in m.edges
    )
    return Matching(edges, frozenset(index_map[i] for i in m.runners))


def as_fraction(q: QuadNumber) -> Fraction:
    """The rational value of q; an irrational q is a ValueError."""
    if not q.is_rational:
        raise ValueError(f"{q!r} is irrational")
    return Fraction(q.a, q.c)


def halves_maps(d: DoubleSet):
    up = {local: g for local, g in enumerate(d.upper)}
    low = {local: g for local, g in enumerate(d.lower)}
    return up, low


@pytest.fixture
def rng():
    return random.Random(0x5EED)
