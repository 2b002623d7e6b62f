"""The fold sweep against the chain of sweeps it replaces, bit for bit.

``fold``, the sum of folds in ``apply_S_adjoint`` (``gated_folds``) and the fold
tables (``fold_residuals``, ``FilterMatrix.fold_defects`` and ``cross_defects``)
are held to test-local copies of the chain: the product ``f * g.conj()``, a
branch sweep over its cells, ``TrigPoly.sum`` of the folds, ``- target`` and
``sup_bound``, each a separate sweep whose sums merge tuple by tuple.  Values
are compared through ``float.hex``, since ``TrigPoly ==`` takes -0.0 for 0.0,
and table entries by type too: the int 0 of an all-empty defect is kept.
"""

import math
import random
from fractions import Fraction
from itertools import chain

import pytest
from conftest import branch_terms, circle_sets, conjugated, reparsed
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import catalog, trigpoly
from gmra.errors import ContextMismatch
from gmra.filters import FilterMatrix
from gmra.ruelle import apply_S, apply_S_adjoint, random_section
from gmra.torus import TorusEndomorphism, TorusSet
from gmra.trigpoly import (
    TrigPoly,
    _aligned,
    _merge_terms,
    _scaled,
    _swept,
    fold,
    fold_residuals,
    gated_folds,
)

# ---- the chain, kept here as the reference ------------------------------------------


def chain_sum_terms(payloads):
    """The sum of term tuples, merged one tuple at a time."""
    terms = ()
    for t in payloads:
        terms = _merge_terms(terms + t) if terms else t
    return terms


def chain_sum(polys, gate=None, scale=None):
    """(TrigPoly.sum(polys) * scale).restrict(gate) as one sweep of the chain."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return TrigPoly.zero()
    c = None if scale is None else complex(scale)
    combine = chain_sum_terms if c is None else lambda ps: _scaled(chain_sum_terms(ps), c)
    den, fden, cells = _aligned(polys, gate)
    return _swept(den, fden, chain(*cells), combine, gate)


def chain_fold(e, f, g):
    """The product f * conj(g), then a sweep of its branch images over the circle."""
    p = f * g.conj()
    if p.is_zero():
        return p
    den, fden, (cells,) = _aligned((p,))
    period = fden * e.N
    images = ((a, b, branch_terms(t, 1, k, period, None))
              for k, a, b, t in e.branch_images(cells, den))
    return _swept(den, period, images, chain_sum_terms)


def chain_sub(f, g):
    if f.is_zero() and g.is_zero():
        return TrigPoly.zero()
    den, fden, (mine, theirs) = _aligned((f, g))
    negated = ((lo, hi, _scaled(t, complex(-1))) for lo, hi, t in theirs)
    return _swept(den, fden, chain(mine, negated), chain_sum_terms)


def chain_residual(e, pairs, ts):
    """The sup bound of the sum of the pairs' folds minus N on ts (nothing for ts None)."""
    total = chain_sum([chain_fold(e, f, g) for f, g in pairs])
    target = TrigPoly.zero() if ts is None else TrigPoly.indicator(ts, float(e.N))
    return chain_sub(total, target).sup_bound()


def chain_tables(F, K, diagonal):
    """F's fold table (K = F, diagonal) or its cross table against K, through the chain."""
    cols = range(min(F.cols, K.cols))
    sets = F.row_sets
    keys = ([(i, k) for i in range(F.rows) for k in range(i, F.rows)] if diagonal
            else [(k, i) for k in range(F.rows) for i in range(K.rows)])
    return {
        (i, k): chain_residual(F.e, [(F.entry(i, j), K.entry(k, j)) for j in cols],
                               sets[i] if diagonal and i == k and i < len(sets) else None)
        for i, k in keys
    }


# ---- bits ---------------------------------------------------------------------------


def bits(p: TrigPoly):
    return p.den, p.fden, tuple(
        (lo, hi, tuple((n, c.real.hex(), c.imag.hex()) for n, c in terms))
        for lo, hi, terms in p.cells
    )


def entry_bits(r):
    return type(r).__name__, r.hex() if isinstance(r, float) else r


def table_bits(table):
    return {key: entry_bits(r) for key, r in table.items()}


# ---- inputs -------------------------------------------------------------------------

BIG_PRIMES = (4294967291, 4294967279)  # the two largest primes below 2^32
dilations = st.integers(2, 5).map(TorusEndomorphism)
# lattice values a/7 + i b/3 cancel exactly in some sums; signed zeros show in the bits
coefficients = st.one_of(
    st.tuples(st.integers(-20, 20), st.integers(-9, 9)).map(lambda t: complex(t[0] / 7, t[1] / 3)),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -1.0, 1j, complex(1.0, -0.0), complex(-0.0, 1.0), complex(-1.0, 0.0)]),
)


@st.composite
def polys(draw):
    """A poly from int spans: den and fden small or a prime near 2^32, frequency
    numerators small or up to 2^40, some cells empty, and some terms (n, c) beside
    (n, -c) or repeated so that they merge."""
    den = draw(st.sampled_from((1, 2, 3, 4, 6, 12) + BIG_PRIMES))
    fden = draw(st.sampled_from((1, 2, 3) + BIG_PRIMES))
    cuts = sorted(draw(st.sets(st.integers(1, den - 1), max_size=3)) if den > 1 else set())
    bounds = [0, *cuts, den]
    numerators = st.one_of(st.integers(-6 * fden, 6 * fden), st.integers(-2**40, 2**40))
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        terms = draw(st.lists(st.tuples(numerators, coefficients), max_size=3))
        if terms and draw(st.booleans()):
            n, c = terms[0]
            terms.append((n, draw(st.sampled_from([-c, c]))))
        pieces.append((lo, hi, terms))
    return TrigPoly.from_spans(den, fden, pieces)


@st.composite
def pair_lists(draw, max_size=4):
    """(f, g) pairs, some zero and some g = -g' for a g' already drawn beside the same f,
    so that the sum over the pairs cancels exactly."""
    pairs = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(["any", "any", "zero", "cancel"]))
        if kind == "cancel" and pairs:
            f, g = pairs[-1]
            pairs.append((f, g * -1.0))
        elif kind == "zero":
            pairs.append(draw(st.sampled_from([(TrigPoly.zero(), draw(polys())),
                                               (draw(polys()), TrigPoly.zero())])))
        else:
            pairs.append((draw(polys()), draw(polys())))
    return pairs


# ---- properties ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(dilations, polys(), polys())
def test_fold_keeps_the_bits_of_the_chain(e, f, g):
    assert bits(fold(e, f, g)) == bits(chain_fold(e, f, g))
    assert bits(fold(e, f, f)) == bits(chain_fold(e, f, f))


@settings(max_examples=80, deadline=None)
@given(dilations, st.lists(st.tuples(pair_lists(), st.one_of(st.none(), circle_sets())),
                           max_size=3))
def test_sum_of_folds_keeps_the_bits_of_the_chain(e, jobs):
    want = [chain_sum([chain_fold(e, f, g) for f, g in pairs], gate, 1.0 / e.N)
            for pairs, gate in jobs]
    assert [bits(p) for p in gated_folds(e.N, jobs, 1.0 / e.N)] == [bits(p) for p in want]


@settings(max_examples=80, deadline=None)
@given(dilations, st.lists(st.tuples(pair_lists(), st.one_of(st.none(), circle_sets())),
                           max_size=3))
def test_residuals_keep_the_bits_of_the_chain(e, jobs):
    want = [entry_bits(chain_residual(e, pairs, ts)) for pairs, ts in jobs]
    assert [entry_bits(r) for r in fold_residuals(e.N, jobs)] == want


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["haar", "cohen", "shannon", "journe", "cantor3", "haar3_2wavelet"]),
       st.integers(2, 4), st.integers(0, 2**16))
def test_tables_keep_the_bits_of_the_chain(name, pieces, seed):
    H, G = conjugated(catalog.get(name), pieces, random.Random(seed))
    assert table_bits(H.fold_defects) == table_bits(chain_tables(H, H, True))
    assert table_bits(G.fold_defects) == table_bits(chain_tables(G, G, True))
    assert table_bits(G.cross_defects(H)) == table_bits(chain_tables(G, H, False))


@pytest.mark.parametrize("name", ["haar", "journe_rank2", "cantor3", "haar3_2wavelet"])
def test_adjoint_keeps_the_bits_of_the_chain(name):
    entry = catalog.get(name)
    H = entry.H
    section = random_section(H.row_sets, random.Random(3), 4)
    g = apply_S(H, section)
    want = [chain_sum([chain_fold(H.e, gj, H.entry(i, j)) for j, gj in enumerate(g.components[: H.cols])],
                      si, 1.0 / H.e.N)
            for i, si in enumerate(H.row_sets)]
    assert [bits(p) for p in apply_S_adjoint(H, g).components] == [bits(p) for p in want]


# signed units on quarter circles: products and folds of neighbouring cells that differ
# only in the sign of a zero, which ``coalesce`` merged in the chain's intermediate polys
SIGNED_UNITS = (1.0, -1.0, complex(1.0, -0.0), complex(-1.0, -0.0), complex(-0.0, 1.0))


def quarters(rng):
    return TrigPoly.from_spans(4, 1, [(q, q + 1, [(rng.randrange(2), rng.choice(SIGNED_UNITS))])
                                      for q in range(4)])


def test_signed_zeros_keep_the_bits_of_the_chain():
    rng, e = random.Random(11), TorusEndomorphism(2)
    for _ in range(300):
        pairs = [(quarters(rng), quarters(rng)) for _ in range(rng.randrange(1, 4))]
        assert bits(fold(e, *pairs[0])) == bits(chain_fold(e, *pairs[0]))
        want = chain_sum([chain_fold(e, f, g) for f, g in pairs], None, 0.5)
        assert bits(gated_folds(2, [(pairs, None)], 0.5)[0]) == bits(want)


# ---- pinned entries and guards --------------------------------------------------------


def test_an_exactly_vanishing_cross_fold_is_the_int_zero():
    entry = catalog.get("haar")
    gh = reparsed(entry.G).cross_defects(reparsed(entry.H))
    assert type(gh[(0, 0)]) is int and gh[(0, 0)] == 0


def test_a_nan_coefficient_makes_a_nan_entry():
    entry = catalog.get("haar")
    h = TrigPoly(2, 1, ((0, 1, ((0, complex(math.nan, 0.0)), (1, 0.5))), (1, 2, ((0, 1.0),))))
    H = FilterMatrix.scalar(h, entry.m, entry.e)
    assert math.isnan(H.fold_defects[(0, 0)])
    assert math.isnan(chain_tables(H, H, True)[(0, 0)])


def test_tables_build_no_poly(monkeypatch):
    entry = catalog.get("journe")
    H, G = reparsed(entry.H), reparsed(entry.G)
    want = [chain_tables(H, H, True), chain_tables(G, G, True), chain_tables(G, H, False)]

    def refuse(*args):
        raise AssertionError("a fold table built a TrigPoly")

    monkeypatch.setattr(trigpoly, "_tiled", refuse)
    got = [H.fold_defects, G.fold_defects, G.cross_defects(H)]
    assert [table_bits(t) for t in got] == [table_bits(t) for t in want]


def test_cross_defects_refuse_another_context():
    haar, cantor = catalog.get("haar"), catalog.get("cantor3")
    G = reparsed(haar.G)
    with pytest.raises(ContextMismatch):  # N = 2 against N = 3
        G.cross_defects(reparsed(cantor.H))
    assert not G._cross


def test_a_zero_pair_is_not_folded(monkeypatch):
    f = TrigPoly.from_pieces([(0, Fraction(1, 3), [(1, 2.0)])])
    calls = []
    real = trigpoly._pair_fold

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trigpoly, "_pair_fold", counted)
    jobs = [([(f, TrigPoly.zero()), (f, f)], TorusSet.full()), ([(f, f)], None)]
    assert fold_residuals(3, jobs) == [chain_residual(TorusEndomorphism(3), p, ts)
                                       for p, ts in jobs]
    assert len(calls) == 1  # (f, f) once for both jobs; (f, 0) never
