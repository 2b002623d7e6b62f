"""Properties of the one overlay sweep behind every piecewise sum on the circle.

``TrigPoly.sum``, ``+``, ``fold`` and ``folded_sum`` are held against literal
pointwise sums at cell midpoints, at breakpoints and at their preimages and
images under w -> N*w, for N = 2, 3, 5.  Coefficients are held bit for bit
to an independent left fold, so the order in which the sweep adds its
payloads is pinned too.

The gated one-sweep kernels (``gated_sum``, ``gated_compress``, ``restrict``
and ``-``) are held with ``==`` to the composed chains of separate sweeps they
replace, kept here as references on Fraction pieces and compared through
``TrigPoly.from_pieces``; ``fold`` is held to the sum of the reference's
dilated branches, and the fold of one branch to that branch.  The references
cut and split Fraction pieces with their own ``frac_overlay`` and
``frac_branch_images``, so they share no code with the integer kernels.

The one-pass ``_swept`` is held with ``==`` to its three passes (overlay,
combine, a reference merge of equal neighbours, gcd reduction) on int pieces over mixed
denominators, and ``TrigPoly.from_spans``, which needs no sweep, to those passes over
its spans.
"""

import math
import struct
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add

import pytest
from conftest import branch_terms, coalesce_pieces, dilated_branch, merge_fraction_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import trigpoly
from gmra.multiplicity import MultiplicityFunction, folded_sum
from gmra.torus import TorusEndomorphism, TorusSet, coalesce, overlay
from gmra.trigpoly import (
    TrigPoly,
    _aligned,
    _merge_terms,
    _nonzero_cells,
    _scaled,
    _sum_terms,
    _swept,
    _turn,
    fold,
    gated_compress,
    gated_sum,
    inner,
    unit_phase,
)

F = Fraction
dilations = st.sampled_from([TorusEndomorphism(2), TorusEndomorphism(3), TorusEndomorphism(5)])
# lattice values a/7 + i b/3 round in every sum and cancel exactly in some, so the
# order of summation and the drop of a cancelled term both show in the bits
coefficients = st.one_of(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.tuples(st.integers(-20, 20), st.integers(-9, 9)).map(lambda t: complex(t[0] / 7, t[1] / 3)),
)


@st.composite
def breakpoints(draw, max_cuts=4):
    """0, some rationals j/d in (0, 1) with small d, and 1."""
    cuts = draw(
        st.sets(
            st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda x: 0 < x < 1),
            max_size=max_cuts,
        )
    )
    return [F(0)] + sorted(cuts) + [F(1)]


@st.composite
def polys(draw):
    """A multi-piece poly: rational breakpoints, rational frequencies, some zero pieces."""
    bounds = draw(breakpoints())
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        terms = draw(
            st.lists(
                st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=3), coefficients),
                max_size=3,
            )
        )
        pieces.append((lo, hi, terms))
    return TrigPoly.from_pieces(pieces)


def cuts_of(*polys):
    return {x for p in polys for lo, hi, _ in p.pieces for x in (lo, hi)}


def probe_points(e, cuts):
    """Breakpoints, cell midpoints, and the preimages and images of both."""
    cuts = sorted(set(cuts) | {F(0), F(1)})
    base = set(cuts[:-1]) | {(a + b) / 2 for a, b in zip(cuts, cuts[1:])}
    points = set(base)
    for x in base:
        points.update(e.preimages(x))
        points.add(e.image(x))
    return sorted(points)


def assert_canonical(p: TrigPoly):
    assert p.pieces[0][0] == 0 and p.pieces[-1][1] == 1
    for (lo, hi, terms), nxt in zip(p.pieces, p.pieces[1:] + (None,)):
        assert lo < hi
        assert all(c != 0 for _, c in terms)
        assert [nu for nu, _ in terms] == sorted({nu for nu, _ in terms})
        if nxt is not None:
            assert nxt[0] == hi
            assert nxt[2] != terms


def left_fold_terms(term_tuples):
    """Independent reference for the sweep's sums: add the tuples one by one,
    dropping a frequency as soon as it cancels, as repeated ``+`` does."""
    acc: dict = {}
    for terms in term_tuples:
        for nu, c in terms:
            acc[nu] = acc[nu] + c if nu in acc else c
        acc = {nu: c for nu, c in acc.items() if c != 0}
    return tuple(sorted(acc.items()))


def terms_at(p: TrigPoly, x):
    return next(terms for lo, hi, terms in p.pieces if lo <= x < hi)


@settings(max_examples=60, deadline=None)
@given(dilations, st.lists(polys(), min_size=1, max_size=5))
def test_sum_matches_pointwise_sums(e, ps):
    total = TrigPoly.sum(ps)
    assert_canonical(total)
    for x in probe_points(e, cuts_of(*ps)):
        want = sum((p.evaluate(x) for p in ps), 0j)
        assert abs(total.evaluate(x) - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(), min_size=3, max_size=5))
def test_sum_adds_in_input_order_bit_for_bit(ps):
    total = TrigPoly.sum(ps)
    cuts = sorted(cuts_of(*ps))
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        assert terms_at(total, mid) == left_fold_terms(terms_at(p, mid) for p in ps)


@settings(max_examples=60, deadline=None)
@given(dilations, polys(), polys())
def test_add_matches_pointwise_sum(e, f, g):
    total = f + g
    assert_canonical(total)
    assert total == TrigPoly.sum([f, g])
    for x in probe_points(e, cuts_of(f, g)):
        assert abs(total.evaluate(x) - (f.evaluate(x) + g.evaluate(x))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dilations, polys(), polys())
def test_fold_matches_branch_sum(e, f, g):
    folded = fold(e, f, g)
    assert_canonical(folded)
    for x in probe_points(e, cuts_of(f, g)):
        want = sum((f.evaluate(z) * g.evaluate(z).conjugate() for z in e.preimages(x)), 0j)
        assert abs(folded.evaluate(x) - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dilations, polys(), polys())
def test_fold_adds_branches_in_order_bit_for_bit(e, f, g):
    p = f * g.conj()
    branches = [ref_dilate_branch(p, e, k) for k in range(e.N)]
    assert fold(e, f, g) == reduce(add, branches, TrigPoly.zero())


@st.composite
def multiplicities(draw):
    bounds = draw(breakpoints(max_cuts=6))
    values = draw(st.lists(st.integers(0, 3), min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    return MultiplicityFunction.from_pieces(
        (lo, hi, v) for (lo, hi), v in zip(zip(bounds, bounds[1:]), values)
    )


@settings(max_examples=100, deadline=None)
@given(dilations, multiplicities())
def test_folded_sum_is_the_preimage_sum_exactly(e, m):
    folded = folded_sum(m, e)
    cuts = {x for lo, hi, _ in m.pieces + folded.pieces for x in (lo, hi)}
    for x in probe_points(e, cuts):
        assert folded.value_at(x) == sum(m.value_at(z) for z in e.preimages(x))


def test_overlay_lists_covers_in_input_order():
    pieces = [(0, 2, "a"), (1, 4, "b"), (1, 2, "c")]  # [0,1/2), [1/4,1), [1/4,1/2) over 4
    cells = [(lo, hi, list(ps)) for lo, hi, ps in overlay(pieces, 4)]
    assert cells == [(0, 1, ["a"]), (1, 2, ["a", "b", "c"]), (2, 4, ["b"])]
    assert [ps for _, _, ps in overlay([(1, 2, 1)], 3)] == [[], [1], []]
    assert frac_overlay([(F(lo, 4), F(hi, 4), p) for lo, hi, p in pieces]) == [
        (F(lo, 4), F(hi, 4), ps) for lo, hi, ps in cells
    ]


def frac_overlay(pieces):
    """The cells of [0, 1) cut at every end point of the Fraction pieces, each with the
    payloads of the pieces covering it in input order."""
    pieces = list(pieces)
    points = sorted({F(0), F(1)} | {x for lo, hi, _ in pieces for x in (lo, hi)})
    return [
        (a, b, [payload for lo, hi, payload in pieces if lo <= a and b <= hi])
        for a, b in zip(points, points[1:])
    ]


def frac_branch_images(e, pieces):
    """(k, N*a - k, N*b - k, payload) per nonempty part [a, b) of each Fraction piece on
    the branch [k/N, (k+1)/N): piece by piece, in ascending k."""
    for lo, hi, payload in pieces:
        for k in range(e.N):
            a, b = max(lo, F(k, e.N)), min(hi, F(k + 1, e.N))
            if a < b:
                yield k, e.N * a - k, e.N * b - k, payload


# ---- the composed chains the gated kernels replace, one sweep per step ------------

any_dilation = st.integers(2, 5).map(TorusEndomorphism)
# the builder's and S*'s scales, a sign flip, and coefficients that round
scales = st.one_of(
    st.sampled_from([1 / 2**0.5, 3**0.5, 1 / 5, -1, 0j, 1j]),
    coefficients,
)


@st.composite
def gates(draw):
    """Sets of up to three wrapped intervals with small denominators, the circle and {}."""
    ends = st.fractions(min_value=-1, max_value=2, max_denominator=12)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3))
    return draw(st.sampled_from([TorusSet.from_intervals(pairs), TorusSet.full(), TorusSet()]))


def nonzero(p):
    return [(lo, hi, terms) for lo, hi, terms in p.pieces if terms]


def ref_swept(pieces, combine):
    cells = frac_overlay(pieces)
    return TrigPoly.from_pieces(coalesce_pieces((lo, hi, combine(ps)) for lo, hi, ps in cells))


def ref_sum(polys):
    return ref_swept([piece for p in polys for piece in nonzero(p)], left_fold_terms)


def ref_scale(p, c):
    """``p * c`` as a re-merge of every piece's scaled terms."""
    c = complex(c)
    return TrigPoly.from_pieces(
        coalesce_pieces(
            (lo, hi, merge_fraction_terms((nu, co * c) for nu, co in t)) for lo, hi, t in p.pieces
        )
    )


def ref_restrict(p, s):
    inside = [(lo, hi, None) for lo, hi in s.intervals]
    return ref_swept(nonzero(p) + inside, lambda ps: ps[0] if len(ps) == 2 else ())


def ref_dilate_branch(p, e, k):
    """All N branches split off, N - 1 of them dropped, the terms re-merged."""
    pieces = [
        (a, b, merge_fraction_terms(
            (nu / e.N, c * _turn(nu.numerator * k, nu.denominator * e.N)) for nu, c in t
        ))
        for j, a, b, t in frac_branch_images(e, nonzero(p))
        if j == k
    ]
    return ref_swept(pieces, left_fold_terms)


def ref_compress_branch(g, e, k):
    return TrigPoly.from_pieces(
        ((lo + k) / e.N, (hi + k) / e.N,
         [(nu * e.N, c * _turn(-nu.numerator * k, nu.denominator)) for nu, c in t])
        for lo, hi, t in g.pieces
    )


@settings(max_examples=50, deadline=None)
@given(any_dilation, polys(), st.data())
def test_fold_of_one_branch_is_its_dilation(e, p, data):
    k = data.draw(st.integers(0, e.N - 1))
    assert dilated_branch(p, e, k) == ref_dilate_branch(p, e, k)


@settings(max_examples=50, deadline=None)
@given(any_dilation, st.lists(polys(), min_size=1, max_size=4), gates(), scales, st.data())
def test_gated_compress_is_compress_scale_sum_restrict(e, gs, gate, scale, data):
    parts = [(g, data.draw(st.integers(0, e.N - 1))) for g in gs]
    scaled = [ref_scale(ref_compress_branch(g, e, k), scale) for g, k in parts]
    assert gated_compress(parts, e, gate, scale) == ref_restrict(ref_sum(scaled), gate)
    assert all(gated_compress(((g, k),), e) == ref_compress_branch(g, e, k) for g, k in parts)


@settings(max_examples=50, deadline=None)
@given(st.lists(polys(), max_size=5), gates())
def test_gated_sum_is_sum_restrict(ps, gate):
    assert gated_sum(ps, gate) == ref_restrict(ref_sum(ps), gate)
    assert TrigPoly.sum(ps) == ref_sum(ps)
    assert all(p.restrict(gate) == ref_restrict(p, gate) for p in ps)


@settings(max_examples=50, deadline=None)
@given(polys(), polys())
def test_sub_is_one_sweep_of_the_negated_sum(f, g):
    assert f - g == ref_sum([f, ref_scale(g, -1)])
    assert (f - f).is_zero()


# ---- zero operands: the zero poly before any alignment ----------------------------------

# zero polys from different constructions; all are the one canonical zero
ZEROS = (
    TrigPoly.zero(),
    TrigPoly.from_pieces([(F(1, 3), F(2, 5), [])]),
    TrigPoly.exponential(F(1, 6), 2.0) - TrigPoly.exponential(F(1, 6), 2.0),
    TrigPoly.constant(1.0).restrict(TorusSet()),
)
ZERO_GATES = (None, TorusSet.from_intervals([(F(1, 5), F(3, 4))]), TorusSet.full(), TorusSet())


def swept_compress(parts, e, gate, scale):
    """``gated_compress`` through the sweep, zero operands or not."""
    c = None if scale is None else complex(scale)
    up, fden, _ = _aligned([g for g, _ in parts])
    den = math.lcm(up * e.N, _aligned((), gate)[0])
    up = den // e.N
    pieces = (
        (a, b, branch_terms(t, e.N, -k, fden, c))
        for g, k in parts for a, b, t in e.branch_preimages(_nonzero_cells(g, up, fden), k, up)
    )
    return _swept(den, fden, pieces, _sum_terms, gate)


def swept_sub(f, g):
    """``f - g`` through the sweep."""
    den, fden, (mine, theirs) = _aligned((f, g))
    negated = ((lo, hi, _scaled(t, complex(-1))) for lo, hi, t in theirs)
    return _swept(den, fden, chain(mine, negated), _sum_terms)


def swept_mul(f, g):
    """``f * g`` through the sweep: a cell covered by one operand only carries ()."""

    def product(payloads):
        if len(payloads) < 2:
            return ()
        ta, tb = payloads
        return _merge_terms((na + nb, ca * cb) for na, ca in ta for nb, cb in tb)

    den, fden, cells = _aligned((f, g))
    return _swept(den, fden, chain(*cells), product)


def _dilated(branches, period: int):
    """z = (w + k)/N substituted in each branch image (k, a, b, terms) of ``branch_images``."""
    return ((a, b, branch_terms(t, 1, k, period, None)) for k, a, b, t in branches)


def swept_fold(e, f, g):
    """``fold(e, f, g)`` as the chain of a product sweep and a branch sweep."""
    den, fden, (cells,) = _aligned((swept_mul(f, g.conj()),))
    period = fden * e.N
    return _swept(den, period, _dilated(e.branch_images(cells, den), period), _sum_terms)


def swept_sum(polys, gate):
    """``gated_sum(polys, gate)`` through the sweep, zero polys included."""
    den, fden, cells = _aligned(list(polys), gate)
    return _swept(den, fden, chain(*cells), _sum_terms, gate)


# nonzero partners of the zero operands: two pieces over mixed denominators
PARTNER = TrigPoly.from_pieces([(F(1, 4), F(2, 3), [(F(1, 2), 1 - 2j)]), (F(5, 6), 1, [(3, 0.5)])])


@pytest.mark.parametrize("gate", ZERO_GATES)
@pytest.mark.parametrize("scale", [None, 2 - 1j])
def test_zero_operands_skip_the_alignment(gate, scale, monkeypatch):
    """Each early zero is the sweep's result, and no operand is aligned to get it."""
    e = TorusEndomorphism(3)
    parts = [(z, k % 3) for k, z in enumerate(ZEROS)]
    pairs = [(z, PARTNER) for z in ZEROS] + [(PARTNER, z) for z in ZEROS]
    want = {
        "compress": swept_compress(parts, e, gate, scale),
        "sub": [swept_sub(f, g) for f in ZEROS for g in ZEROS],
        "shift": [z._map_terms(lambda terms: terms, 7) for z in ZEROS],
        "mul": [swept_mul(f, g) for f, g in pairs],
        "fold": [swept_fold(e, f, g) for f, g in pairs],
        "sum": [swept_sum(ZEROS, gate), swept_sum(ZEROS, None)],
    }
    # with a nonzero operand left, dropping the zeros keeps every bit of the sweep
    mixed = ZEROS[:2] + (PARTNER,) + ZEROS[2:] + (PARTNER * 2j,)
    assert gated_sum(mixed, gate) == swept_sum(mixed, gate)

    def no_alignment(*args):
        raise AssertionError("zero operands were aligned")

    monkeypatch.setattr(trigpoly, "_aligned", no_alignment)
    monkeypatch.setattr(trigpoly, "_refined", no_alignment)
    assert gated_compress(parts, e, gate, scale) == want["compress"]
    assert [f - g for f in ZEROS for g in ZEROS] == want["sub"]
    assert [z.shift_frequencies(F(2, 7)) for z in ZEROS] == want["shift"]
    assert [f * g for f, g in pairs] == want["mul"]
    assert [fold(e, f, g) for f, g in pairs] == want["fold"]
    assert [gated_sum(ZEROS, gate), TrigPoly.sum(ZEROS)] == want["sum"]
    swept = [want["compress"]] + want["sub"] + want["shift"] + want["mul"] + want["fold"]
    swept += want["sum"]
    assert all(p == TrigPoly.zero() for p in swept)


# ---- the one-pass sweep against its three passes --------------------------------------


def int_overlay(pieces, den):
    """The cells of [0, den) cut at every end point of the int pieces, each with the
    payloads of the pieces covering it in input order."""
    points = sorted({0, den} | {x for lo, hi, _ in pieces for x in (lo, hi)})
    return [
        (a, b, [payload for lo, hi, payload in pieces if lo <= a and b <= hi])
        for a, b in zip(points, points[1:])
    ]


def three_pass_swept(den, fden, pieces, combine, gate=None):
    """The sweep as separate passes: overlay, combine per cell, merge equal neighbours,
    then both denominators reduced by the gcds of the merged cells."""
    if gate is not None:
        inside = combine
        pieces = [(lo, hi, "gate") for lo, hi in gate.over(den)] + pieces

        def combine(ps):
            return inside(ps[1:]) if ps and ps[0] == "gate" else ()

    cells = coalesce_pieces((lo, hi, combine(ps)) for lo, hi, ps in int_overlay(pieces, den))
    g = math.gcd(den, *[lo for lo, _, _ in cells])
    h = math.gcd(fden, *[n for _, _, t in cells for n, _ in t])
    return TrigPoly(den // g, fden // h, tuple(
        (lo // g, hi // g, tuple((n // h, c) for n, c in t)) for lo, hi, t in cells
    ))


small_dens = st.sampled_from([1, 2, 3, 4, 6, 7, 12])


@st.composite
def int_sweeps(draw):
    """(den, fden, pieces, gate): int pieces over den whose ends and term numerators come
    from rationals of mixed small denominators, den and fden carrying a spare factor so
    that the sweep has to reduce them; no pieces at all, or every piece on [0, den)."""
    ends = draw(st.lists(st.tuples(small_dens, st.integers(0, 12), st.integers(0, 12)),
                         max_size=5))
    freqs = draw(st.lists(st.tuples(small_dens, st.integers(-6, 6)), min_size=1, max_size=4))
    gate = draw(st.one_of(st.none(), gates()))
    den = math.lcm(*[q for q, _, _ in ends], gate.den if gate else 1) * draw(small_dens)
    fden = math.lcm(*[q for q, _ in freqs]) * draw(small_dens)
    whole = draw(st.booleans())
    pieces = []
    for d, a, b in ends:
        lo, hi = (0, d) if whole else sorted((min(a, d), min(b, d)))
        picked = draw(st.lists(st.sampled_from(freqs), max_size=3))
        terms = left_fold_terms([[(n * (fden // q), draw(coefficients)) for q, n in picked]])
        pieces.append((lo * (den // d), hi * (den // d), terms))
    return den, fden, pieces, gate


@settings(max_examples=150, deadline=None)
@given(int_sweeps(), st.sampled_from([None, 0j, -1, 1 / 3]))
def test_one_pass_sweep_is_overlay_combine_coalesce_reduce(sweep, scale):
    den, fden, pieces, gate = sweep
    combine = _sum_terms if scale is None else lambda ps: _scaled(_sum_terms(ps), scale)
    got = _swept(den, fden, iter(pieces), combine, gate)
    assert got == three_pass_swept(den, fden, pieces, combine, gate)
    los = [lo for lo, _, _ in got.cells]
    assert los[0] == 0 and got.cells[-1][1] == got.den
    assert all(hi == nxt for (_, hi, _), nxt in zip(got.cells, los[1:]))
    assert all(a[2] != b[2] for a, b in zip(got.cells, got.cells[1:]))
    assert math.gcd(got.den, *los) == 1
    assert math.gcd(got.fden, *[n for _, _, t in got.cells for n, _ in t]) == 1


@st.composite
def disjoint_spans(draw):
    """(den, fden, pieces): disjoint int spans over den in any order, with gaps between
    them, empty spans, spans whose terms merge to nothing and neighbours with equal terms;
    the terms are raw, with repeated frequencies."""
    den, fden = draw(small_dens) * draw(small_dens), draw(small_dens)
    points = sorted(draw(st.sets(st.integers(0, den), max_size=6)) | {0, den})
    term = st.tuples(st.integers(-3 * fden, 3 * fden), coefficients)
    pieces, last = [], []
    for lo, hi in zip(points, points[1:]):
        if draw(st.booleans()):
            terms = last if draw(st.booleans()) else draw(st.lists(term, max_size=4))
            cancel = [(n, -c) for n, c in terms] if draw(st.booleans()) else []
            pieces.append((lo, hi, terms + cancel))
            last = terms
        if draw(st.booleans()):
            pieces.append((hi, hi, draw(st.lists(term, min_size=1, max_size=2))))
    return den, fden, draw(st.permutations(pieces))


@settings(max_examples=150, deadline=None)
@given(disjoint_spans())
def test_from_spans_is_the_sweep_of_its_spans_bit_for_bit(case):
    """Laid straight into cells, the spans give the three-pass sweep of their merged terms,
    each cell covered at most once, to the sign of every zero."""
    den, fden, pieces = case

    def only(payloads):
        assert len(payloads) <= 1
        return payloads[0] if payloads else ()

    got = TrigPoly.from_spans(den, fden, iter(pieces))
    want = three_pass_swept(den, fden, [(lo, hi, _merge_terms(t)) for lo, hi, t in pieces], only)
    assert (got.den, got.fden) == (want.den, want.fden)
    assert [(lo, hi, [(n, bits(c)) for n, c in t]) for lo, hi, t in got.cells] == \
        [(lo, hi, [(n, bits(c)) for n, c in t]) for lo, hi, t in want.cells]


def test_from_spans_refuses_overlapping_spans():
    for pieces in ([(0, 2, [(0, 1.0)]), (1, 3, [])],
                   [(1, 3, [(1, 2.0)]), (0, 4, [(0, 1.0)])],
                   [(2, 3, []), (2, 4, [])]):
        with pytest.raises(ValueError, match="overlap"):
            TrigPoly.from_spans(4, 1, pieces)
    # touching spans, and an empty span inside another, do not overlap
    p = TrigPoly.from_spans(4, 1, [(2, 4, [(1, 1.0)]), (3, 3, [(0, 5.0)]), (0, 2, [(1, 1.0)])])
    assert p == TrigPoly.exponential(1)


def test_overlay_one_cell_skips_empty_pieces():
    pieces = [(0, 0, "a"), (0, 5, "b"), (5, 5, "c"), (0, 5, "d")]
    assert [(lo, hi, list(ps)) for lo, hi, ps in overlay(pieces, 5)] == [(0, 5, ["b", "d"])]
    assert [(lo, hi, list(ps)) for lo, hi, ps in overlay([(0, 0, "a")], 5)] == [(0, 5, [])]
    assert [list(ps) for _, _, ps in overlay([], 1)] == [[]]


@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(["a", "b", ()])), min_size=1,
                max_size=8), st.integers(1, 6))
def test_coalesce_is_the_reference_merge(steps, spare):
    """Equal neighbours merged, then den and the cut points that remain divided by their
    gcd: widths times ``spare`` leave a factor to reduce."""
    los = [spare * sum(w for w, _ in steps[:i]) for i in range(len(steps) + 1)]
    pieces = [(lo, hi, p) for lo, hi, (_, p) in zip(los, los[1:], steps)]
    merged = coalesce_pieces(pieces)
    g = math.gcd(los[-1], *[lo for lo, _, _ in merged])
    assert coalesce(los[-1], ((lo, p) for lo, _, p in pieces)) == (
        los[-1] // g, [lo // g for lo, _, _ in merged], [p for _, _, p in merged]
    )


@settings(max_examples=60, deadline=None)
@given(polys())
def test_inner_of_a_poly_with_itself_is_that_of_an_equal_copy(f):
    g = TrigPoly.from_pieces(f.pieces)
    assert g == f and g is not f
    assert bits(inner(f, f)) == bits(inner(f, g)) == bits(inner(g, f))


# ---- Fraction references at the largest denominators jsonio accepts --------------------

# distinct primes below 2^32, the bound on a problem file's denominators
BIG_PRIMES = (4294967291, 4294967279, 4294967231, 4294967197, 4294967189, 4294967161)


@st.composite
def big_rationals(draw, bound):
    q = draw(st.sampled_from(BIG_PRIMES))
    return F(draw(st.integers(-bound * q, bound * q)), q)


@st.composite
def coprime_polys(draw):
    """Polys whose breakpoint and frequency denominators are primes near 2^32, so the
    common denominators of two of them and of their products reach about 2^128."""
    cuts = draw(st.sets(big_rationals(1).filter(lambda x: 0 < x < 1), max_size=2))
    bounds = [F(0)] + sorted(cuts) + [F(1)]
    frequency = st.one_of(big_rationals(4), st.integers(-4, 4).map(F))
    return TrigPoly.from_pieces(
        (lo, hi, draw(st.lists(st.tuples(frequency, coefficients), max_size=3)))
        for lo, hi in zip(bounds, bounds[1:])
    )


@st.composite
def big_gates(draw):
    ends = big_rationals(2)
    return TorusSet.from_intervals(draw(st.lists(st.tuples(ends, ends), max_size=2)))


def ref_conj(p):
    return TrigPoly.from_pieces(
        (lo, hi, [(-nu, c.conjugate()) for nu, c in t]) for lo, hi, t in p.pieces
    )


def ref_mul(f, g):
    def product(ps):
        if len(ps) < 2:
            return ()
        ta, tb = ps
        return merge_fraction_terms((na + nb, ca * cb) for na, ca in ta for nb, cb in tb)

    return ref_swept(nonzero(f) + nonzero(g), product)


def ref_inner(f, g):
    """The closed-form inner product on Fraction cells and frequencies, pair by pair
    within a cell, and cell by cell."""
    total = 0j
    for lo, hi, ts in frac_overlay(nonzero(f) + nonzero(g)):
        if len(ts) < 2:
            continue
        cell = 0j
        for nu, c in ts[0]:
            for mu, d in ts[1]:
                w = c * d.conjugate()
                if nu == mu:
                    cell += w * float(hi - lo)
                else:
                    delta = (unit_phase(nu * hi) * unit_phase(mu * hi).conjugate()
                             - unit_phase(nu * lo) * unit_phase(mu * lo).conjugate())
                    cell += w * delta / (2j * math.pi * float(nu - mu))
        total += cell
    return total


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


@settings(max_examples=40, deadline=None)
@given(any_dilation, coprime_polys(), coprime_polys(), big_gates(), scales, st.data())
def test_integer_kernels_match_fraction_references_bit_for_bit(e, f, g, gate, scale, data):
    k = data.draw(st.integers(0, e.N - 1))
    assert f + g == ref_sum([f, g])
    assert f * g == ref_mul(f, g)
    product = ref_mul(f, ref_conj(g))
    assert fold(e, f, g) == ref_sum([ref_dilate_branch(product, e, j) for j in range(e.N)])
    assert gated_sum([f, g], gate) == ref_restrict(ref_sum([f, g]), gate)
    assert dilated_branch(f, e, k) == ref_dilate_branch(f, e, k)
    compressed = [ref_scale(ref_compress_branch(h, e, j), scale) for h, j in ((f, k), (g, 0))]
    assert gated_compress([(f, k), (g, 0)], e, gate, scale) == ref_restrict(
        ref_sum(compressed), gate
    )
    assert bits(inner(f, g)) == bits(ref_inner(f, g))
