import random
from fractions import Fraction

import pytest

from gmra.torus import TorusSet


@pytest.fixture
def rng():
    return random.Random(20260809)


def random_torus_set(rng, max_intervals=4, max_den=64):
    pairs = []
    for _ in range(rng.randint(0, max_intervals)):
        d1, d2 = rng.randint(1, max_den), rng.randint(1, max_den)
        lo = Fraction(rng.randint(-d1, 2 * d1), d1)
        hi = lo + Fraction(rng.randint(1, d2), d2)
        pairs.append((lo, hi))
    return TorusSet.from_intervals(pairs)


def merge_fraction_terms(pairs):
    """Reference term merge keyed by Fraction frequencies: equal frequencies added in
    input order, exact zeros dropped, sorted by frequency."""
    acc = {}
    for nu, c in pairs:
        nu, c = Fraction(nu), complex(c)
        acc[nu] = acc[nu] + c if nu in acc else c
    return tuple(sorted((nu, c) for nu, c in acc.items() if c != 0))


def coalesce_pieces(pieces):
    """Reference merge of adjacent (lo, hi, payload) pieces of an ascending tiling that
    carry equal payloads."""
    merged = []
    for lo, hi, payload in pieces:
        if merged and payload == merged[-1][2]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, payload])
    return tuple((lo, hi, payload) for lo, hi, payload in merged)
