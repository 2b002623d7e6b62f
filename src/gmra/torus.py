"""Exact arithmetic on the circle [0, 1).

Points are rationals reduced mod 1, sets are finite unions of half-open
intervals with rational endpoints, and the dilation w -> N*w (mod 1) comes
with its branch split and branch partition.  Everything here is
exact -- no floats -- so set identities can be asserted with ``==``.

This is the one module that normalises interval data: ``wrap`` reads a
pair mod 1, ``_sort_merge`` makes segments canonical, ``coalesce`` merges
equal neighbours of a tiling and ``branch_images`` splits at the branches;
those with an ``end`` take Fractions over 1, or integer numerators over end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)

# grid points handled per numpy batch: bounds temporaries, not results
GRID_BLOCK = 1024


def mod1(x) -> Fraction:
    """Reduce a rational to the fundamental domain [0, 1)."""
    return Fraction(x) % 1


def grid_cells(cuts, ps: np.ndarray, den: int, end=ONE) -> np.ndarray:
    """Index i of the cell [cuts[i], cuts[i+1]) holding each grid point p/den.

    ``cuts`` ascend from 0 in units of 1/end and ``ps`` lie in [0, den).
    Since p/den >= c/end exactly when p >= ceil(c*den/end), comparing the
    integers p against the integer thresholds keeps the half-open rule at
    breakpoints without rounding.
    """
    thresholds = np.array([-((-c * den) // end) for c in cuts], dtype=np.int64)
    return np.searchsorted(thresholds, ps, side="right") - 1


def overlay(pieces, end=ONE):
    """The cells of [0, end) cut at every piece boundary, each with its cover.

    ``pieces`` are (lo, hi, payload) with 0 <= lo <= hi <= end and may
    overlap.  Returns (lo, hi, payloads) per cell in ascending order,
    ``payloads`` listing the payloads of the pieces that cover the cell in
    input order (empty where none does).
    """
    pieces = list(pieces)
    cuts = {end * 0, end}
    cuts.update(x for lo, hi, _ in pieces for x in (lo, hi))
    points = sorted(cuts)
    index = {p: i for i, p in enumerate(points)}
    cells = [[] for _ in points[1:]]
    for lo, hi, payload in pieces:
        for i in range(index[lo], index[hi]):
            cells[i].append(payload)
    return zip(points, points[1:], cells)


def wrap(lo, hi) -> tuple[tuple[Fraction, Fraction], ...]:
    """The ascending [0, 1] segments of the pair [lo, hi) read mod 1.

    hi <= lo wraps around (so (3/4, 1/4) means [0,1/4) u [3/4,1)), hi = lo
    is empty and a pair of length >= 1 is the whole circle.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if 0 <= lo < hi <= 1:
        return ((lo, hi),)
    length = hi - lo
    if length <= 0:
        length = length % 1
        if length == 0:
            return ()
    if length >= 1:
        return ((ZERO, ONE),)
    start = lo % 1
    end = start + length
    if end <= 1:
        return ((start, end),)
    return ((ZERO, end - 1), (start, ONE))


def _sort_merge(segments) -> tuple[tuple[Fraction, Fraction], ...]:
    """Canonical intervals of the union of [0, 1] segments: sorted, touching ones merged."""
    merged: list[list[Fraction]] = []
    for lo, hi in sorted(segments):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def coalesce(pieces):
    """Merge adjacent pieces of an ascending tiling that carry equal payloads."""
    merged = []
    for lo, hi, payload in pieces:
        if merged and payload == merged[-1][2]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, payload])
    return tuple((lo, hi, payload) for lo, hi, payload in merged)


@dataclass(frozen=True)
class TorusSet:
    """Finite union of half-open intervals [lo, hi) on the circle.

    Canonical form: intervals sorted, pairwise disjoint, adjacent pieces
    merged, endpoints in [0, 1].  Two sets are equal (as a.e. classes of
    interval unions) iff their canonical forms compare equal.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    @staticmethod
    def from_intervals(pairs: Iterable) -> "TorusSet":
        """Build from (lo, hi) pairs, each read by ``wrap``; endpoints may be any rationals."""
        return TorusSet(_sort_merge(seg for lo, hi in pairs for seg in wrap(lo, hi)))

    @staticmethod
    def interval(lo, hi) -> "TorusSet":
        return TorusSet.from_intervals([(lo, hi)])

    @staticmethod
    def full() -> "TorusSet":
        return TorusSet(((ZERO, ONE),))

    @staticmethod
    def empty() -> "TorusSet":
        return TorusSet(())

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), ZERO)

    def union(self, other: "TorusSet") -> "TorusSet":
        return TorusSet(_sort_merge(self.intervals + other.intervals))

    def complement(self) -> "TorusSet":
        gaps = []
        cursor = ZERO
        for lo, hi in self.intervals:
            if cursor < lo:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < ONE:
            gaps.append((cursor, ONE))
        return TorusSet(tuple(gaps))

    def intersect(self, other: "TorusSet") -> "TorusSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "TorusSet") -> "TorusSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "TorusSet") -> bool:
        return self.intersect(other) == self

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(f"[{lo},{hi})" for lo, hi in self.intervals)


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

    def image(self, x) -> Fraction:
        return mod1(Fraction(x) * self.N)

    def preimages(self, x) -> list[Fraction]:
        """The N points mapping to x, ascending: (x + k)/N for 0 <= k < N."""
        x = mod1(x)
        return [(x + k) / self.N for k in range(self.N)]

    def branch_images(self, pieces, end=ONE):
        """Split (lo, hi, payload) pieces of [0, end] at the multiples of end/N.

        Yields (k, N*a - k*end, N*b - k*end, payload), the image of each
        nonempty part [a, b) of a piece on branch [k*end/N, (k+1)*end/N);
        piece by piece, each piece's parts in ascending k.
        """
        steps = [end * k for k in range(self.N)]  # k*end, so steps[0] is a zero of end's type
        for lo, hi, payload in pieces:
            lo, hi = lo * self.N, hi * self.N
            for k in range(lo // end, -(-hi // end)):
                a, b = lo - steps[k], hi - steps[k]
                yield k, a if a > steps[0] else steps[0], b if b < end else end, payload

    def branch_image(self, pieces, k: int, end=ONE):
        """The parts of ``branch_images`` on branch k alone, without splitting the others."""
        zero, shift = end * 0, end * k
        for lo, hi, payload in pieces:
            lo, hi = lo * self.N - shift, hi * self.N - shift
            if lo < end and hi > zero:
                yield k, lo if lo > zero else zero, hi if hi < end else end, payload

    def branch_preimages(self, pieces, k: int, end: int):
        """The preimages on branch k of pieces of [0, end], as numerators over N*end:
        (lo + k*end, hi + k*end, payload), which divided by N are the preimage proper."""
        return [(lo + k * end, hi + k * end, payload) for lo, hi, payload in pieces]

    def preimage_set(self, s: TorusSet) -> TorusSet:
        return TorusSet.from_intervals(
            ((lo + k) / self.N, (hi + k) / self.N) for k in range(self.N) for lo, hi in s.intervals
        )

    def image_set(self, s: TorusSet) -> TorusSet:
        return TorusSet.from_intervals(
            (a, b) for _, a, b, _ in self.branch_images((lo, hi, None) for lo, hi in s.intervals)
        )

    def tau_partition(self, s: TorusSet) -> list[tuple[Fraction, TorusSet]]:
        """Split s into the branch pieces on which the map is injective.

        Returns (zeta, piece) pairs, piece = s n [k/N, (k+1)/N), with zeta
        the kernel element carrying each x of the piece onto the
        cross-section sheet [0, 1/N): c(N*x) - x = (N-k)/N (mod 1), where
        c(y) = (y mod 1)/N is the first of ``preimages(y)``.  Empty pieces are
        dropped; the pieces are disjoint and union back to s.
        """
        images = [[] for _ in range(self.N)]
        for k, a, b, _ in self.branch_images((lo, hi, None) for lo, hi in s.intervals):
            images[k].append((a, b, None))
        return [
            (
                Fraction((self.N - k) % self.N, self.N),
                TorusSet(tuple(((a + k) / self.N, (b + k) / self.N) for a, b, _ in parts)),
            )
            for k, parts in enumerate(images)
            if parts
        ]
