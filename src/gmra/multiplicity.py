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
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConsistencyViolated
from .torus import (
    ONE, ZERO, TorusEndomorphism, TorusSet, coalesce, grid_cells, mod1, overlay, wrap,
)


def _normalize_pieces(raw):
    flat: list[tuple[Fraction, Fraction, int]] = []
    for lo, hi, value in raw:
        value = int(value)
        if value < 0:
            raise ValueError("multiplicity values must be nonnegative")
        if value:
            flat.extend((a, b, value) for a, b in wrap(lo, hi))
    cells = coalesce(overlay(flat))
    if any(len(values) > 1 for _, _, values in cells):
        raise ValueError("multiplicity pieces overlap")
    return tuple((lo, hi, values[0]) for lo, hi, values in cells if values)


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
        cells = list(overlay(self.pieces))
        return [lo for lo, _, _ in cells], [sum(values) for _, _, values in cells]

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
        return list(self._cells[0])

    def __str__(self) -> str:
        if not self.pieces:
            return "0"
        return ", ".join(f"{v} on [{lo},{hi})" for lo, hi, v in self.pieces)


def folded_sum(m: MultiplicityFunction, e: TorusEndomorphism) -> MultiplicityFunction:
    """w -> sum of m over the N preimages of w, exactly: the sum of m's branch images."""
    images = ((a, b, value) for _, a, b, value in e.branch_images(m.pieces))
    return MultiplicityFunction.from_pieces((lo, hi, sum(vs)) for lo, hi, vs in overlay(images))


@dataclass(frozen=True)
class ConsistencyReport:
    holds: bool
    violation: TorusSet


def _fold_excess(m: MultiplicityFunction, e: TorusEndomorphism):
    """(lo, hi, fold(m) - m) on the cells of the common refinement of m and its fold."""
    pieces = folded_sum(m, e).pieces + tuple((lo, hi, -v) for lo, hi, v in m.pieces)
    return [(lo, hi, sum(vs)) for lo, hi, vs in overlay(pieces)]


def _negative_set(excess) -> TorusSet:
    return TorusSet.from_intervals((a, b) for a, b, d in excess if d < 0)


def check_consistency(m: MultiplicityFunction, e: TorusEndomorphism) -> ConsistencyReport:
    """Exact set where the preimage sum falls below m (empty iff consistent)."""
    violation = _negative_set(_fold_excess(m, e))
    return ConsistencyReport(holds=not violation, violation=violation)


@lru_cache(maxsize=64)
def compute_mtilde(m: MultiplicityFunction, e: TorusEndomorphism) -> MultiplicityFunction:
    """Complementary multiplicity: fold(m) - m, defined when consistency holds.

    Cached per (m, e), both frozen; the result is immutable.
    """
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
