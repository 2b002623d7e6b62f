"""Exact arithmetic on the circle [0, 1).

Points are rationals reduced mod 1, sets are finite unions of half-open
intervals with rational endpoints, and the dilation w -> N*w (mod 1) comes
with its branch split and branch partition.  Everything here is
exact -- no floats -- so set identities can be asserted with ``==``.

Every kernel takes int numerators over a ``den`` that the caller passes, and
a ``TorusSet`` holds int spans over one reduced ``den``; ``Fraction`` appears
only where rationals come in or go out.  No other module normalises interval
data, walks cells or locates points: ``overlay`` cuts [0, den) under pieces
that may overlap, ``refine`` under two tilings and ``lay`` under disjoint
spans, ``coalesce`` merges equal neighbours and reduces den, the branch maps
split by branch, and ``cell_at`` and ``grid_cells`` locate points.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable

import numpy as np

# grid points handled per numpy batch: bounds temporaries, not results
GRID_BLOCK = 1024


def mod1(x) -> Fraction:
    """Reduce a rational to the fundamental domain [0, 1)."""
    return Fraction(x) % 1


def _numerators(rationals) -> tuple[int, list[int]]:
    """(den, nums): the lcm of the rationals' denominators and each rational over it."""
    xs = [Fraction(x) for x in rationals]
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def cell_at(cells, den: int, p: int, q: int) -> int:
    """Index of the cell holding the point p/q, 0 <= p < q, of ``cells`` tiling [0, den)
    in ascending order, each a tuple led by its int lo.  p/q >= lo/den exactly when
    lo <= p*den // q, so a bisect on that integer keeps the half-open rule without rounding."""
    return bisect_right(cells, p * den // q, key=itemgetter(0)) - 1


def _grid_points(ps, den: int) -> np.ndarray:
    """The integers ``ps`` reduced mod den as int64: the grid points p/den.  An array of
    any other kind (floats, say) is refused, not truncated."""
    ps = np.asarray(ps)
    if ps.dtype.kind not in "iu":
        raise TypeError(f"grid points p/den take integers p, not {ps.dtype}")
    return np.mod(ps.astype(np.int64, copy=False), den)


def grid_cells(cells, den: int, ps: np.ndarray, q: int) -> np.ndarray:
    """``cell_at`` at each grid point p/q of ``ps``, ints in [0, q): p/q >= lo/den exactly
    when p >= ceil(lo*q/den), so the integers p are searched against those thresholds."""
    thresholds = np.array([-((-cell[0] * q) // den) for cell in cells], dtype=np.int64)
    return np.searchsorted(thresholds, ps, side="right") - 1


def overlay(pieces, den: int):
    """The cells of [0, den) cut at every piece boundary, each with its cover.

    ``pieces`` are (lo, hi, payload) with 0 <= lo <= hi <= den and may
    overlap.  Returns (lo, hi, payloads) per cell in ascending order,
    ``payloads`` listing the payloads of the pieces that cover the cell in
    input order (empty where none does).
    """
    pieces = list(pieces)
    cuts = {0, den}
    for lo, hi, _ in pieces:
        cuts.add(lo)
        cuts.add(hi)
    points = sorted(cuts)
    index = dict(zip(points, range(len(points))))
    cells = [[] for _ in points[1:]]
    for lo, hi, payload in pieces:
        for i in range(index[lo], index[hi]):
            cells[i].append(payload)
    return zip(points, points[1:], cells)


def wrap(lo: int, hi: int, den: int) -> tuple[tuple[int, int], ...]:
    """The ascending [0, den] segments of the pair [lo, hi) over den read mod den.

    hi <= lo wraps around (so (3, 1) over 4 means [0,1) u [3,4)), hi = lo
    is empty and a pair of length >= den is the whole circle.
    """
    if 0 <= lo < hi <= den:
        return ((lo, hi),)
    length = hi - lo
    if length <= 0:
        length %= den
        if length == 0:
            return ()
    if length >= den:
        return ((0, den),)
    start = lo % den
    stop = start + length
    if stop <= den:
        return ((start, stop),)
    return ((0, stop - den), (start, den))


def _sort_merge(segments) -> tuple[tuple[int, int], ...]:
    """Canonical spans of the union of [0, den] segments: sorted, touching ones merged,
    empty ones (lo >= hi) dropped."""
    merged: list[list[int]] = []
    for lo, hi in sorted(segments):
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def refine(a, b, den: int):
    """(lo, hi, pa, pb) per cell of the common refinement of a and b, sequences of
    ascending (lo, hi, payload) cells that tile [0, den), pa and pb the payloads of the
    cells holding it: one two-pointer walk."""
    i = j = lo = 0
    while lo < den:
        (_, a_hi, pa), (_, b_hi, pb) = a[i], b[j]
        hi = a_hi if a_hi < b_hi else b_hi
        yield lo, hi, pa, pb
        lo = hi
        i += a_hi == hi
        j += b_hi == hi


def lay(spans, den: int):
    """The cells of [0, den) under ascending, disjoint, nonempty (lo, hi, payload) spans:
    each span's own cell, and a cell with payload None on each gap, in ascending order.
    A span that starts before the last one ends raises ``ValueError``."""
    cursor = 0
    for lo, hi, payload in spans:
        if lo < cursor:
            raise ValueError("pieces overlap")
        if cursor < lo:
            yield cursor, lo, None
        yield lo, hi, payload
        cursor = hi
    if cursor < den:
        yield cursor, den, None


def coalesce(den: int, cells) -> tuple[int, list[int], list]:
    """(den, los, payloads) of an ascending tiling of [0, den) given as (lo, payload)
    cells, in one pass: a cell whose payload equals its left neighbour's extends it, and
    den and the los that remain are divided by their gcd."""
    los, payloads = [], []
    for lo, payload in cells:
        if not payloads or payload != payloads[-1]:
            los.append(lo)
            payloads.append(payload)
    g = math.gcd(den, *los)
    if g > 1:
        den, los = den // g, [lo // g for lo in los]
    return den, los, payloads


@dataclass(frozen=True)
class TorusSet:
    """Finite union of half-open intervals [lo/den, hi/den) on the circle.

    Canonical form: int ``spans`` (lo, hi) in [0, den], sorted, pairwise
    disjoint and not touching, over a reduced ``den`` (no integer above 1
    divides den and every end point).  Two sets are equal (as a.e. classes
    of interval unions) iff their canonical forms compare equal.
    """

    den: int = 1
    spans: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_spans(den: int, segments) -> "TorusSet":
        """The union of int [0, den] segments over den, in any order."""
        spans = _sort_merge(segments)
        g = math.gcd(den, *[x for span in spans for x in span])
        if g > 1:
            den, spans = den // g, tuple((lo // g, hi // g) for lo, hi in spans)
        return TorusSet(den, spans)

    @staticmethod
    def from_intervals(pairs: Iterable) -> "TorusSet":
        """Build from (lo, hi) pairs, each read by ``wrap``; endpoints may be any rationals."""
        den, ends = _numerators(x for pair in pairs for x in pair)
        pairs = zip(ends[::2], ends[1::2])
        return TorusSet.from_spans(den, (seg for lo, hi in pairs for seg in wrap(lo, hi, den)))

    @staticmethod
    def interval(lo, hi) -> "TorusSet":
        return TorusSet.from_intervals([(lo, hi)])

    @staticmethod
    def full() -> "TorusSet":
        return TorusSet(1, ((0, 1),))

    @staticmethod
    def empty() -> "TorusSet":
        return TorusSet()

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The spans as (lo, hi) Fractions in [0, 1]."""
        return tuple((Fraction(lo, self.den), Fraction(hi, self.den)) for lo, hi in self.spans)

    def over(self, den: int) -> tuple[tuple[int, int], ...]:
        """The spans as numerators over den, a multiple of this set's den."""
        a = den // self.den
        return self.spans if a == 1 else tuple((lo * a, hi * a) for lo, hi in self.spans)

    def __bool__(self) -> bool:
        return bool(self.spans)

    def measure(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self.spans), self.den)

    def union(self, other: "TorusSet") -> "TorusSet":
        den = math.lcm(self.den, other.den)
        return TorusSet.from_spans(den, self.over(den) + other.over(den))

    def complement(self) -> "TorusSet":
        """The gaps, over the same den: they have the same end points but 0 and den."""
        cells = lay(((lo, hi, True) for lo, hi in self.spans), self.den)
        return TorusSet(self.den, tuple((lo, hi) for lo, hi, span in cells if span is None))

    def intersect(self, other: "TorusSet") -> "TorusSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "TorusSet") -> "TorusSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "TorusSet") -> bool:
        return self.union(other) == other

    def __str__(self) -> str:
        return " u ".join(f"[{lo},{hi})" for lo, hi in self.intervals) or "{}"


@dataclass(frozen=True)
class TorusEndomorphism:
    """The map w -> N*w (mod 1) for an integer N >= 2.

    N is the index of the sublattice downstairs, equivalently the size of
    the kernel {k/N}.
    """

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("dilation factor must be an integer >= 2")

    @cached_property
    def kernel(self) -> tuple[Fraction, ...]:
        """The kernel elements k/N, ascending."""
        return tuple(Fraction(k, self.N) for k in range(self.N))

    def image(self, x) -> Fraction:
        return mod1(Fraction(x) * self.N)

    def preimages(self, x) -> list[Fraction]:
        """The N points mapping to x, ascending: (x + k)/N for 0 <= k < N."""
        x = mod1(x)
        return [(x + k) / self.N for k in range(self.N)]

    def branch_images(self, pieces, den: int):
        """Split (lo, hi, payload) pieces of [0, den] at the multiples of den/N.

        Yields (k, N*a - k*den, N*b - k*den, payload), the image of each
        nonempty part [a, b) of a piece on branch [k*den/N, (k+1)*den/N);
        piece by piece, each piece's parts in ascending k.
        """
        for lo, hi, payload in pieces:
            lo, hi = lo * self.N, hi * self.N
            for k in range(lo // den, -(-hi // den)):
                a, b = lo - k * den, hi - k * den
                yield k, a if a > 0 else 0, b if b < den else den, payload

    def branch_preimages(self, pieces, k: int, den: int):
        """The preimages on branch k of pieces of [0, den], as numerators over N*den:
        (lo + k*den, hi + k*den, payload), which divided by N are the preimage proper."""
        return [(lo + k * den, hi + k * den, payload) for lo, hi, payload in pieces]

    def preimage_set(self, s: TorusSet) -> TorusSet:
        den = s.den
        spans = ((lo + k * den, hi + k * den) for k in range(self.N) for lo, hi in s.spans)
        return TorusSet.from_spans(self.N * den, spans)

    def image_set(self, s: TorusSet) -> TorusSet:
        images = self.branch_images((span + (None,) for span in s.spans), s.den)
        return TorusSet.from_spans(s.den, ((a, b) for _, a, b, _ in images))

    def tau_partition(self, s: TorusSet) -> list[tuple[Fraction, TorusSet]]:
        """Split s into the branch pieces on which the map is injective.

        Returns (zeta, piece) pairs, piece = s n [k/N, (k+1)/N), with zeta
        the kernel element carrying each x of the piece onto the
        cross-section sheet [0, 1/N): c(N*x) - x = (N-k)/N (mod 1), where
        c(y) = (y mod 1)/N is the first of ``preimages(y)``.  Empty pieces are
        dropped; the pieces are disjoint and union back to s.
        """
        den = s.den
        parts = [[] for _ in range(self.N)]
        for k, a, b, _ in self.branch_images((span + (None,) for span in s.spans), den):
            parts[k].append((a + k * den, b + k * den))  # the part itself, over N*den
        return [
            (self.kernel[-k % self.N], TorusSet.from_spans(self.N * den, spans))
            for k, spans in enumerate(parts)
            if spans
        ]
