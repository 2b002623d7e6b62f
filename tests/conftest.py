import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gmra.filters import FilterMatrix
from gmra.jsonio import filter_to_json, parse_filter
from gmra.torus import TorusSet
from gmra.trigpoly import TrigPoly, _turn, compose_endomorphism, fold, gated_compress, unit_phase


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


@st.composite
def circle_sets(draw):
    """A set on the circle: empty, the full circle, or up to three spans over a den up to 24
    whose ends may touch 0 and 1."""
    kind = draw(st.sampled_from(["empty", "full", "spans"]))
    if kind != "spans":
        return TorusSet.empty() if kind == "empty" else TorusSet.full()
    den = draw(st.integers(1, 24))
    ends = draw(st.lists(st.integers(0, den), min_size=2, max_size=6))
    pairs = zip(ends[::2], ends[1::2])
    return TorusSet.from_spans(den, [(min(a, b), max(a, b)) for a, b in pairs if a != b])


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


def branch_terms(terms, factor, k, period, scale):
    """(n * factor, c * e^(2*pi*i*n*k/period) * scale) per term (n, c), exact zeros dropped:
    the branch maps' phase step as one loop, the reference for the kernels' own."""
    out = []
    for n, c in terms:
        c *= _turn(n * k, period)
        if scale is not None:
            c *= scale
        if c:
            out.append((n * factor, c))
    return tuple(out)


def dilated_branch(p, e, k):
    """p((w + k)/N): branch k of p stretched across the circle, as the fold of p restricted
    to [k/N, (k+1)/N) against 1 (equal, up to the sign of a zero, to one branch's split)."""
    arc = TorusSet.interval(Fraction(k, e.N), Fraction(k + 1, e.N))
    return fold(e, p.restrict(arc), TrigPoly.constant(1.0))


def compressed_branch(g, e, k):
    """g(N*w - k) on the branch [k/N, (k+1)/N), 0 elsewhere."""
    return gated_compress(((g, k),), e)


def conjugated(entry, pieces, rng):
    """The entry's H and G conjugated entrywise, p -> a(N w) p(w) conj(a(w)), by a unimodular
    a = e(k w) times a constant phase on each of ``pieces`` arcs with breakpoints j/12."""
    inner_cuts = sorted(Fraction(j, 12) for j in rng.sample(range(1, 12), pieces - 1))
    cuts = [Fraction(0), *inner_cuts, Fraction(1)]
    steps = TrigPoly.from_pieces(
        (lo, hi, [(rng.choice([-2, -1, 1, 2]), unit_phase(Fraction(rng.randrange(12), 12)))])
        for lo, hi in zip(cuts, cuts[1:])
    )
    up = compose_endomorphism(steps, entry.e)

    def conj(F_):
        rows = [[up * p * steps.conj() for p in row] for row in F_.entries]
        return FilterMatrix.from_rows(rows, F_.m, F_.e, F_.rows_follow)

    return conj(entry.H), conj(entry.G)


def reparsed(F_):
    """An equal filter parsed anew from its JSON form: a new object with no folds computed."""
    out = parse_filter(filter_to_json(F_), F_.m, F_.e, F_.rows_follow)
    assert out == F_ and out is not F_
    return out
