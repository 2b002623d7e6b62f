import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra.jsonio import CENTERED, rat_str, torus_set_to_json
from gmra.torus import (
    TorusEndomorphism, TorusSet, cell_at, grid_cells, lay, mod1, overlay, refine, wrap,
)
from gmra.trigpoly import TrigPoly

from conftest import random_torus_set

F = Fraction


def ts(*pairs):
    return TorusSet.from_intervals([(F(a), F(b)) for a, b in pairs])


rationals = st.builds(
    lambda n, d: F(n, d), st.integers(-128, 128), st.integers(1, 64)
)
# lengths n/(n + d) lie in (0, 1), so each drawn pair is an arc shorter than the circle;
# reversed pairs and pairs longer than the circle are left to ``raw_pairs``
lengths = st.builds(lambda n, d: F(n, n + d), st.integers(1, 64), st.integers(1, 64))
interval_lists = st.lists(
    st.tuples(rationals, lengths).map(lambda t: (t[0], t[0] + t[1])),
    max_size=5,
)
torus_sets = interval_lists.map(TorusSet.from_intervals)


# pairwise coprime, so two sets rarely share a factor and their common denominator is large
DENOMINATORS = (2**6, 3**4, 5**3, 7, 11, 13, 97, 101, 4294967291)


@st.composite
def arcs(draw):
    """A pair shorter than the circle over one of ``DENOMINATORS``; it may wrap past 1."""
    q = draw(st.sampled_from(DENOMINATORS))
    lo = draw(st.integers(0, q - 1))
    return F(lo, q), F(lo + draw(st.integers(1, q - 1)), q)


mixed_sets = st.lists(arcs(), max_size=4).map(TorusSet.from_intervals)
# any pairs: reversed, empty and longer than the circle included
raw_pairs = st.lists(st.tuples(rationals, rationals), max_size=5)


def in_pair(x, lo, hi) -> bool:
    """x in [lo, hi) read mod 1, straight from the definition."""
    length = hi - lo if hi > lo else (hi - lo) % 1
    return length >= 1 or (x - lo) % 1 < length


def in_set(x, intervals) -> bool:
    return any(lo <= x < hi for lo, hi in intervals)


def is_canonical(intervals) -> bool:
    flat = [x for iv in intervals for x in iv]
    return all(0 <= x <= 1 for x in flat) and all(a < b for a, b in zip(flat, flat[1:]))


def is_reduced(s: TorusSet) -> bool:
    """No integer above 1 divides the set's den and every end point."""
    return math.gcd(s.den, *[x for span in s.spans for x in span]) == 1


def probes(ends):
    """The end points in [0, 1) and the midpoints between consecutive ones, 0 and 1 added."""
    ends = sorted({F(0), F(1), *(mod1(x) for x in ends)})
    return [x for x in ends if x < 1] + [(a + b) / 2 for a, b in zip(ends, ends[1:])]


def ends_of(*sets):
    return [x for s in sets for iv in s.intervals for x in iv]


def probe_points(pairs, intervals):
    """Every endpoint mod 1 and every midpoint between consecutive endpoints."""
    return probes([x for iv in intervals for x in iv] + [x for p in pairs for x in p])


def sheet_tau_partition(e, s):
    """The branch pieces by definition: s cut by each sheet [k/N, (k+1)/N)."""
    out = []
    for k in range(e.N):
        piece = s.intersect(TorusSet.interval(F(k, e.N), F(k + 1, e.N)))
        if piece:
            out.append((F((e.N - k) % e.N, e.N), piece))
    return out


def sort_merge_centered(s):
    """The centered [-1/2, 1/2) intervals of s by splitting at 1/2 and merging."""
    half = F(1, 2)
    shifted = []
    for lo, hi in s.intervals:
        if hi <= half:
            shifted.append((lo, hi))
        elif lo >= half:
            shifted.append((lo - 1, hi - 1))
        else:
            shifted.append((lo, half))
            shifted.append((-half, hi - 1))
    shifted.sort()
    merged = []
    for lo, hi in shifted:
        if merged and merged[-1][1] == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return [[rat_str(lo), rat_str(hi)] for lo, hi in merged]


class TestTorusSet:
    def test_full_circle_measure(self):
        assert TorusSet.full().measure() == 1

    def test_wrapping_interval_splits(self):
        s = ts(("3/4", "5/4"))
        assert s.intervals == ((F(0), F(1, 4)), (F(3, 4), F(1)))

    def test_negative_endpoints_wrap(self):
        assert ts(("-1/4", "1/4")) == ts((0, "1/4"), ("3/4", 1))

    def test_reversed_pair_reads_as_wrap(self):
        # [lo, hi) mod 1 with hi <= lo crosses zero
        assert ts(("3/4", "1/4")) == ts(("3/4", 1), (0, "1/4"))
        assert ts(("1/4", "1/4")) == TorusSet.empty()

    def test_adjacent_merge(self):
        assert ts((0, "1/4"), ("1/4", "1/2")) == ts((0, "1/2"))

    def test_intersect_example(self):
        # +-[1/4,1/2) is the single span [1/4,3/4)
        left = ts(("1/4", "1/2"), ("1/2", "3/4"))
        assert left.intersect(ts((0, "1/2"))) == ts(("1/4", "1/2"))

    def test_journe_sigma1_measure(self):
        # interval lengths: 1/14 + 4/7 + 1/14 = 5/7
        s = ts(("-1/2", "-3/7"), ("-2/7", "2/7"), ("3/7", "1/2"))
        assert s.measure() == F(5, 7)

    def test_complement_roundtrip(self):
        s = ts(("1/8", "1/3"), ("1/2", "7/8"))
        assert s.complement().complement() == s
        assert s.union(s.complement()) == TorusSet.full()

    def test_subset(self):
        assert ts(("1/8", "1/4")).is_subset(ts((0, "1/2")))
        assert not ts(("1/8", "3/4")).is_subset(ts((0, "1/2")))

    @given(rationals, rationals, st.integers(1, 6))
    def test_wrap_is_the_pair_mod_1(self, lo, hi, factor):
        # numerators over a common denominator, reduced or not
        den = math.lcm(lo.denominator, hi.denominator) * factor
        segments = [(F(a, den), F(b, den)) for a, b in wrap(int(lo * den), int(hi * den), den)]
        assert is_canonical(segments)
        for x in probe_points([(lo, hi)], segments):
            assert in_set(x, segments) == in_pair(x, lo, hi)

    @given(raw_pairs)
    def test_from_intervals_is_the_union_of_pairs(self, pairs):
        intervals = TorusSet.from_intervals(pairs).intervals
        assert is_canonical(intervals)
        for x in probe_points(pairs, intervals):
            assert in_set(x, intervals) == any(in_pair(x, lo, hi) for lo, hi in pairs)

    @given(torus_sets)
    def test_centered_matches_sort_merge(self, s):
        assert torus_set_to_json(s, CENTERED) == sort_merge_centered(s)

    @given(torus_sets)
    def test_normalization_idempotent(self, s):
        assert TorusSet.from_intervals(s.intervals) == s

    @given(mixed_sets)
    def test_int_form_round_trips(self, s):
        assert is_reduced(s) and is_canonical(s.intervals)
        assert TorusSet.from_intervals(s.intervals) == s
        assert TorusSet.from_spans(3 * s.den, s.over(3 * s.den)) == s
        assert s.measure() == sum((hi - lo for lo, hi in s.intervals), F(0))

    def test_from_spans_drops_empty_segments(self):
        assert TorusSet.from_spans(1, [(0, 0)]) == TorusSet.empty()
        assert TorusSet.from_spans(4, [(2, 2)]) == TorusSet.empty()
        assert TorusSet.from_spans(4, [(2, 2), (1, 3)]) == ts(("1/4", "3/4"))

    @given(st.data())
    def test_empty_segments_change_nothing(self, data):
        den = data.draw(st.integers(1, 24))
        ends = st.tuples(st.integers(0, den), st.integers(0, den))
        segments = [(min(a, b), max(a, b)) for a, b in data.draw(st.lists(ends, max_size=5))]
        empty = [(max(a, b), min(a, b)) for a, b in data.draw(st.lists(ends, max_size=3))]
        expected = TorusSet.from_spans(den, [(lo, hi) for lo, hi in segments if lo < hi])
        assert TorusSet.from_spans(den, segments + empty) == expected
        assert TorusSet.from_spans(den, empty) == TorusSet.empty()

    @given(mixed_sets, mixed_sets)
    def test_set_algebra_is_pointwise(self, a, b):
        results = {
            "union": a.union(b),
            "intersect": a.intersect(b),
            "complement": a.complement(),
            "difference": a.difference(b),
        }
        for s in results.values():
            assert is_reduced(s) and is_canonical(s.intervals)
        for x in probes(ends_of(a, b, *results.values())):
            in_a, in_b = in_set(x, a.intervals), in_set(x, b.intervals)
            assert in_set(x, results["union"].intervals) == (in_a or in_b)
            assert in_set(x, results["intersect"].intervals) == (in_a and in_b)
            assert in_set(x, results["complement"].intervals) == (not in_a)
            assert in_set(x, results["difference"].intervals) == (in_a and not in_b)

    @given(mixed_sets, mixed_sets)
    def test_is_subset_is_pointwise(self, a, b):
        for s, t in ((a, b), (b, a), (a.intersect(b), b), (a, a.union(b)), (a.difference(b), b)):
            points = [x for x in probes(ends_of(s, t)) if in_set(x, s.intervals)]
            assert s.is_subset(t) == all(in_set(x, t.intervals) for x in points)

    @given(torus_sets, torus_sets)
    def test_measure_additivity(self, a, b):
        assert (
            a.union(b).measure() + a.intersect(b).measure()
            == a.measure() + b.measure()
        )

    @given(torus_sets, torus_sets)
    def test_difference_measure(self, a, b):
        assert a.difference(b).measure() == a.measure() - a.intersect(b).measure()


class TestEndomorphism:
    def test_rejects_small_factor(self):
        with pytest.raises(ValueError):
            TorusEndomorphism(1)

    def test_preimages_of_zero(self):
        assert TorusEndomorphism(2).preimages(0) == [F(0), F(1, 2)]
        assert TorusEndomorphism(3).preimages(0) == [F(0), F(1, 3), F(2, 3)]

    def test_preimages_third(self):
        assert TorusEndomorphism(2).preimages(F(1, 3)) == [F(1, 6), F(2, 3)]

    def test_preimages_map_back(self):
        e = TorusEndomorphism(5)
        for z in e.preimages(F(3, 7)):
            assert e.image(z) == F(3, 7)

    def test_preimage_set_half(self):
        e = TorusEndomorphism(2)
        assert e.preimage_set(ts((0, "1/2"))) == ts((0, "1/4"), ("1/2", "3/4"))

    def test_preimage_measure_preserved(self):
        e = TorusEndomorphism(2)
        s = ts(("1/7", "2/7"))
        assert e.preimage_set(s).measure() == F(1, 7)

    def test_image_set_example(self):
        e = TorusEndomorphism(2)
        s = ts((0, "1/14"), ("13/14", 1))  # +-[0,1/14)
        assert e.image_set(s) == ts((0, "1/7"), ("6/7", 1))

    def test_cross_section_is_right_inverse(self):
        e = TorusEndomorphism(3)
        for x in [F(0), F(1, 5), F(2, 3), F(9, 10)]:
            section = e.preimages(x)[0]
            assert e.image(section) == x
            assert 0 <= section < F(1, 3)

    def test_tau_partition_full(self):
        e = TorusEndomorphism(2)
        parts = e.tau_partition(TorusSet.full())
        assert parts == [
            (F(0), ts((0, "1/2"))),
            (F(1, 2), ts(("1/2", 1))),
        ]

    def test_tau_partition_injective_branches(self):
        e = TorusEndomorphism(3)
        s = ts(("1/10", "4/5"))
        for _, piece in e.tau_partition(s):
            assert e.image_set(piece).measure() == 3 * piece.measure()

    @given(st.integers(2, 5), mixed_sets)
    def test_preimage_and_image_are_pointwise(self, N, s):
        e = TorusEndomorphism(N)
        pre, image = e.preimage_set(s), e.image_set(s)
        assert is_reduced(pre) and is_reduced(image)
        for x in probes(ends_of(pre) + [z for b in ends_of(s) for z in e.preimages(b)]):
            assert in_set(x, pre.intervals) == in_set(e.image(x), s.intervals)
        for x in probes(ends_of(image) + [e.image(b) for b in ends_of(s)]):
            covered = any(in_set(z, s.intervals) for z in e.preimages(x))
            assert in_set(x, image.intervals) == covered

    @given(st.integers(2, 5), torus_sets)
    def test_tau_partition_is_the_sheet_split(self, N, s):
        e = TorusEndomorphism(N)
        assert e.tau_partition(s) == sheet_tau_partition(e, s)

    def test_tau_partition_reassembles(self, rng):
        for _ in range(50):
            e = TorusEndomorphism(rng.choice([2, 3, 4]))
            s = random_torus_set(rng)
            parts = e.tau_partition(s)
            union = TorusSet.empty()
            total = F(0)
            for zeta, piece in parts:
                union = union.union(piece)
                total += piece.measure()
                # zeta carries the piece onto the cross-section of its image
                x = piece.intervals[0][0]
                assert mod1(x + zeta) == e.preimages(e.image(x))[0]
            assert union == s
            assert total == s.measure()


# ---- point location: one rule, a scalar and a grid kernel ----------------------------


@st.composite
def tilings(draw):
    """(den, cells): an ascending tiling of [0, den) over a product of mixed denominators,
    cell i as (lo, hi, i)."""
    den = math.prod(draw(st.lists(st.sampled_from(DENOMINATORS), min_size=1, max_size=2,
                                  unique=True)))
    los = [0, *sorted(draw(st.sets(st.integers(1, den - 1), max_size=6)))]
    return den, tuple((lo, hi, i) for i, (lo, hi) in enumerate(zip(los, los[1:] + [den])))


def scan_cell(cells, den, p, q):
    """Index of the cell holding p/q by the literal half-open rule lo*q <= p*den < hi*q."""
    for i, (lo, hi, _) in enumerate(cells):
        if lo * q <= p * den < hi * q:
            return i
    raise AssertionError("the cells tile [0, den)")


def masked_sample(p: TrigPoly, xs):
    """Float evaluation cell by cell, each cell's points picked by its own float mask."""
    xs = xs % 1.0
    out = np.zeros(xs.shape, dtype=complex)
    for lo, hi, terms in p.cells:
        mask = (xs >= lo / p.den) & (xs < hi / p.den)
        acc = np.zeros(mask.sum(), dtype=complex)
        for n, c in terms:
            acc += c * np.exp(2j * math.pi * (n / p.fden) * xs[mask])
        out[mask] = acc
    return out


class TestPointLocation:
    @settings(max_examples=200, deadline=None)
    @given(tilings(), st.integers(1, 2**40), st.lists(st.integers(0, 2**40), max_size=8),
           st.integers(1, 64))
    def test_cell_at_is_the_scan_and_grid_cells(self, tiling, q, draws, k):
        """At random points p/q with q up to 2^40, and at each breakpoint lo/den and its
        neighbours over k*den."""
        den, cells = tiling
        at_random = [(d % q, q) for d in draws]
        at_breaks = [((lo * k + s) % (den * k), den * k) for lo, _, _ in cells for s in (-1, 0, 1)]
        for points in (at_random, at_breaks):
            want = [scan_cell(cells, den, p, q) for p, q in points]
            assert [cell_at(cells, den, p, q) for p, q in points] == want
            if points:
                ps = np.array([p for p, _ in points], dtype=np.int64)
                assert grid_cells(cells, den, ps, points[0][1]).tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(tilings(), st.integers(1, 60), st.data())
    def test_float_sample_is_the_masked_reference(self, tiling, fden, data):
        """At random floats away from breakpoints, and at the breakpoint floats themselves."""
        den, cells = tiling
        coefs = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
        terms = st.lists(st.tuples(st.integers(-200, 200), coefs), max_size=3)
        p = TrigPoly.from_spans(den, fden, [(lo, hi, data.draw(terms)) for lo, hi, _ in cells])
        bounds = [lo / p.den for lo, _, _ in p.cells] + [1.0]
        xs = np.array(data.draw(st.lists(
            st.floats(-4, 4).filter(lambda x: min(abs(x % 1.0 - b) for b in bounds) > 1e-9),
            max_size=20)) + bounds[:-1])
        assert np.array_equal(p.sample(xs), masked_sample(p, xs))


@st.composite
def payload_tilings(draw, den, tag):
    """An ascending tiling of [0, den), cell i as (lo, hi, (tag, i)) or (lo, hi, ())."""
    los = [0, *sorted(draw(st.sets(st.integers(1, den - 1), max_size=5)) if den > 1 else [])]
    return [(lo, hi, () if draw(st.booleans()) else (tag, i))
            for i, (lo, hi) in enumerate(zip(los, los[1:] + [den]))]


@st.composite
def sorted_spans(draw):
    """(den, spans): nonempty (lo, hi, i) spans over den sorted by lo, every other segment
    between drawn cut points, plus at times one more span anywhere, which may overlap."""
    den = draw(st.integers(1, 24))
    points = sorted(draw(st.sets(st.integers(0, den), max_size=8)))
    pairs = list(zip(points, points[1:]))[draw(st.integers(0, 1))::2]
    if draw(st.booleans()):
        lo = draw(st.integers(0, den - 1))
        pairs.append((lo, draw(st.integers(lo + 1, den))))
    pairs.sort(key=lambda pair: pair[0])
    return den, [(lo, hi, i) for i, (lo, hi) in enumerate(pairs)]


class TestWalks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 24), st.data())
    def test_refine_is_the_overlay_of_two_tilings(self, den, data):
        """Every cell of the common refinement with both payloads, empty ones included."""
        a, b = data.draw(payload_tilings(den, "a")), data.draw(payload_tilings(den, "b"))
        got = [(lo, hi, [pa, pb]) for lo, hi, pa, pb in refine(a, b, den)]
        assert got == [(lo, hi, ps) for lo, hi, ps in overlay(a + b, den)]

    @settings(max_examples=200, deadline=None)
    @given(sorted_spans())
    def test_lay_is_the_overlay_of_disjoint_spans(self, case):
        """Each span's cell with its payload and None on the gaps; an overlap raises."""
        den, spans = case
        cells = list(overlay(spans, den))
        if any(len(ps) > 1 for _, _, ps in cells):
            with pytest.raises(ValueError, match="overlap"):
                list(lay(spans, den))
        else:
            want = [(lo, hi, ps[0] if ps else None) for lo, hi, ps in cells]
            assert list(lay(spans, den)) == want
