"""Multiplicity functions on the circle and the consistency machinery.

A multiplicity function is a piecewise-constant map into the nonnegative
integers with rational breakpoints.  The central identity is the fold over
dilation preimages: consistency demands

    m(w) <= sum over the N preimages z of w of m(z),

and the complementary multiplicity is the (nonnegative) difference.
All computations refine partitions exactly; the grid sampler reads values
at points p/q in integer arithmetic, so it is exact too.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConsistencyViolated
from .torus import ONE, ZERO, TorusEndomorphism, TorusSet, grid_cells, mod1


def _normalize_pieces(raw):
    flat: list[tuple[Fraction, Fraction, int]] = []
    for lo, hi, value in raw:
        value = int(value)
        if value < 0:
            raise ValueError("multiplicity values must be nonnegative")
        if value == 0:
            continue
        for a, b in TorusSet.interval(lo, hi).intervals:
            flat.append((a, b, value))
    flat.sort()
    for prev, cur in zip(flat, flat[1:]):
        if cur[0] < prev[1]:
            raise ValueError("multiplicity pieces overlap")
    merged: list[list] = []
    for lo, hi, value in flat:
        if merged and merged[-1][1] == lo and merged[-1][2] == value:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, value])
    return tuple((lo, hi, v) for lo, hi, v in merged)


@dataclass(frozen=True)
class MultiplicityFunction:
    """Piecewise-constant nonnegative-integer function, 0 off its pieces."""

    pieces: tuple[tuple[Fraction, Fraction, int], ...] = ()

    @staticmethod
    def from_pieces(raw) -> "MultiplicityFunction":
        """Build from (lo, hi, value) triples; intervals may wrap."""
        return MultiplicityFunction(_normalize_pieces(raw))

    @staticmethod
    def constant(value: int) -> "MultiplicityFunction":
        if value == 0:
            return MultiplicityFunction()
        return MultiplicityFunction(((ZERO, ONE, int(value)),))

    @cached_property
    def _cells(self) -> tuple[list[Fraction], list[int]]:
        """The partition of [0, 1) into cells [cuts[i], cuts[i+1]) and their values."""
        cuts, values = [], []
        cursor = ZERO
        for lo, hi, value in self.pieces:
            if lo > cursor:
                cuts.append(cursor)
                values.append(0)
            cuts.append(lo)
            values.append(value)
            cursor = hi
        if cursor < ONE:
            cuts.append(cursor)
            values.append(0)
        return cuts, values

    def value_at(self, x) -> int:
        cuts, values = self._cells
        return values[bisect_right(cuts, mod1(x)) - 1]

    def sample(self, ps: np.ndarray, den: int) -> np.ndarray:
        """Values at the grid points p/den for integers p, exactly, as int64."""
        cuts, values = self._cells
        ps = np.mod(np.asarray(ps, dtype=np.int64), den)
        return np.array(values, dtype=np.int64)[grid_cells(cuts, ps, den)]

    def max_value(self) -> int:
        return max((v for _, _, v in self.pieces), default=0)

    def support(self) -> TorusSet:
        return TorusSet.from_intervals((lo, hi) for lo, hi, _ in self.pieces)

    def integral(self) -> Fraction:
        return sum(((hi - lo) * v for lo, hi, v in self.pieces), Fraction(0))

    def breakpoints(self) -> list[Fraction]:
        points = {ZERO}
        for lo, hi, _ in self.pieces:
            points.add(lo)
            if hi < 1:
                points.add(hi)
        return sorted(points)

    def __str__(self) -> str:
        if not self.pieces:
            return "0"
        return ", ".join(f"{v} on [{lo},{hi})" for lo, hi, v in self.pieces)


def _refined_cells(breakpoints: list[Fraction]):
    pts = sorted(set(breakpoints) | {ZERO})
    for a, b in zip(pts, pts[1:] + [ONE]):
        if a < b:
            yield a, b


def folded_sum(m: MultiplicityFunction, e: TorusEndomorphism) -> MultiplicityFunction:
    """w -> sum of m over the N preimages of w, exactly.

    Breakpoints of the fold are the images N*b (mod 1) of breakpoints of m;
    on each refined cell every branch is constant, so a midpoint evaluation
    is exact.
    """
    points = {mod1(b * e.N) for b in m.breakpoints()}
    out = []
    for a, b in _refined_cells(sorted(points)):
        mid = (a + b) / 2
        total = sum(m.value_at(z) for z in e.preimages(mid))
        out.append((a, b, total))
    return MultiplicityFunction.from_pieces(out)


@dataclass(frozen=True)
class ConsistencyReport:
    holds: bool
    violation: TorusSet


def _fold_excess(m: MultiplicityFunction, e: TorusEndomorphism):
    """(lo, hi, fold(m) - m) on the cells of the common refinement of m and its fold."""
    fold = folded_sum(m, e)
    points = set(m.breakpoints()) | set(fold.breakpoints())
    out = []
    for a, b in _refined_cells(sorted(points)):
        mid = (a + b) / 2
        out.append((a, b, fold.value_at(mid) - m.value_at(mid)))
    return out


def _negative_set(excess) -> TorusSet:
    return TorusSet.from_intervals((a, b) for a, b, d in excess if d < 0)


def check_consistency(m: MultiplicityFunction, e: TorusEndomorphism) -> ConsistencyReport:
    """Exact set where the preimage sum falls below m (empty iff consistent)."""
    violation = _negative_set(_fold_excess(m, e))
    return ConsistencyReport(holds=not violation, violation=violation)


def compute_mtilde(m: MultiplicityFunction, e: TorusEndomorphism) -> MultiplicityFunction:
    """Complementary multiplicity: fold(m) - m, defined when consistency holds."""
    excess = _fold_excess(m, e)
    violation = _negative_set(excess)
    if violation:
        raise ConsistencyViolated(f"consistency inequality fails on {violation}", violation)
    return MultiplicityFunction.from_pieces(excess)


def sigma_sets(m: MultiplicityFunction) -> list[TorusSet]:
    """Nested superlevel sets {m >= i} for i = 1 .. max(m)."""
    return [
        TorusSet.from_intervals((lo, hi) for lo, hi, v in m.pieces if v >= i)
        for i in range(1, m.max_value() + 1)
    ]


def sigma_tilde_sets(m: MultiplicityFunction, e: TorusEndomorphism) -> list[TorusSet]:
    """Superlevel sets of the complementary multiplicity."""
    return sigma_sets(compute_mtilde(m, e))


def strict_set(m: MultiplicityFunction, e: TorusEndomorphism) -> TorusSet:
    """Where the consistency inequality is strict; positive measure if m != 0."""
    return compute_mtilde(m, e).support()
