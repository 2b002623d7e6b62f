"""Multiplicity functions on the circle and the consistency machinery.

A multiplicity function is a piecewise-constant map into the nonnegative
integers with rational breakpoints.  The central identity is the fold over
dilation preimages: consistency demands

    m(w) <= sum over the N preimages z of w of m(z),

and the complementary multiplicity is the (nonnegative) difference.
Like a ``TorusSet``, a multiplicity holds int cells over one reduced
denominator, and every computation, the grid sampler's included, runs in
integers; ``Fraction`` appears only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConsistencyViolated
from .torus import (
    TorusEndomorphism, TorusSet, _grid_points, _numerators, cell_at, coalesce, grid_cells, lay,
    mod1, overlay, wrap,
)


def _tiled(den: int, cells) -> "MultiplicityFunction":
    """The function of an ascending tiling of [0, den) by (lo, value) cells."""
    den, los, values = coalesce(den, cells)
    return MultiplicityFunction(den, tuple(zip(los, los[1:] + [den], values)))


@dataclass(frozen=True)
class MultiplicityFunction:
    """Piecewise-constant nonnegative-integer function in canonical form.

    ``cells`` (lo, hi, value) tile [0, den) with the value on [lo/den,
    hi/den); adjacent cells with equal values are merged and den is reduced,
    so ``==`` and ``hash`` are structural.
    """

    den: int
    cells: tuple[tuple[int, int, int], ...]

    @property
    def pieces(self) -> tuple[tuple[Fraction, Fraction, int], ...]:
        """The cells of nonzero value as (lo, hi, value) with Fraction end points."""
        den = self.den
        return tuple((Fraction(lo, den), Fraction(hi, den), v) for lo, hi, v in self.cells if v)

    @staticmethod
    def from_pieces(raw) -> "MultiplicityFunction":
        """Build from (lo, hi, value) triples, each interval read by ``wrap``; 0 off them.
        Pieces that overlap raise ``ValueError``."""
        raw = list(raw)
        den, ends = _numerators(x for lo, hi, _ in raw for x in (lo, hi))
        flat = []
        for (_, _, value), lo, hi in zip(raw, ends[::2], ends[1::2]):
            value = int(value)
            if value < 0:
                raise ValueError("multiplicity values must be nonnegative")
            if value:
                flat.extend((a, b, value) for a, b in wrap(lo, hi, den))
        return _tiled(den, ((lo, value or 0) for lo, _, value in lay(sorted(flat), den)))

    @staticmethod
    def constant(value: int) -> "MultiplicityFunction":
        return MultiplicityFunction(1, ((0, 1, int(value)),))

    def value_at(self, x) -> int:
        x = mod1(x)
        return self.cells[cell_at(self.cells, self.den, x.numerator, x.denominator)][2]

    def sample(self, ps: np.ndarray, den: int) -> np.ndarray:
        """Values at the grid points p/den for integers p, exactly, as int64."""
        ps = _grid_points(ps, den)
        values = np.array([v for _, _, v in self.cells], dtype=np.int64)
        return values[grid_cells(self.cells, self.den, ps, den)]

    def max_value(self) -> int:
        return max(v for _, _, v in self.cells)

    def support(self) -> TorusSet:
        return TorusSet.from_spans(self.den, ((lo, hi) for lo, hi, v in self.cells if v))

    def integral(self) -> Fraction:
        return Fraction(sum((hi - lo) * v for lo, hi, v in self.cells), self.den)

    def __str__(self) -> str:
        return ", ".join(f"{v} on [{lo},{hi})" for lo, hi, v in self.pieces) or "0"


def _images(m: MultiplicityFunction, e: TorusEndomorphism):
    """(a, b, value) over m.den: the branch images of m's cells of nonzero value."""
    nonzero = ((lo, hi, v) for lo, hi, v in m.cells if v)
    return ((a, b, v) for _, a, b, v in e.branch_images(nonzero, m.den))


def folded_sum(m: MultiplicityFunction, e: TorusEndomorphism) -> MultiplicityFunction:
    """w -> sum of m over the N preimages of w, exactly: the sum of m's branch images."""
    return _tiled(m.den, ((lo, sum(vs)) for lo, _, vs in overlay(_images(m, e), m.den)))


@dataclass(frozen=True)
class ConsistencyReport:
    holds: bool
    violation: TorusSet


def _fold_excess(m: MultiplicityFunction, e: TorusEndomorphism):
    """(lo, hi, fold(m) - m) over m.den on the cells of the common refinement of m and its fold."""
    minus = ((lo, hi, -v) for lo, hi, v in m.cells)
    return [(lo, hi, sum(vs)) for lo, hi, vs in overlay(chain(_images(m, e), minus), m.den)]


def _negative_set(den: int, excess) -> TorusSet:
    return TorusSet.from_spans(den, ((a, b) for a, b, d in excess if d < 0))


def check_consistency(m: MultiplicityFunction, e: TorusEndomorphism) -> ConsistencyReport:
    """Exact set where the preimage sum falls below m (empty iff consistent)."""
    violation = _negative_set(m.den, _fold_excess(m, e))
    return ConsistencyReport(holds=not violation, violation=violation)


@lru_cache(maxsize=64)
def compute_mtilde(m: MultiplicityFunction, e: TorusEndomorphism) -> MultiplicityFunction:
    """Complementary multiplicity: fold(m) - m, defined when consistency holds.

    Cached per (m, e), both frozen; the result is immutable.
    """
    excess = _fold_excess(m, e)
    violation = _negative_set(m.den, excess)
    if violation:
        raise ConsistencyViolated(f"consistency inequality fails on {violation}", violation)
    return _tiled(m.den, ((lo, d) for lo, _, d in excess))


def sigma_sets(m: MultiplicityFunction) -> list[TorusSet]:
    """Nested superlevel sets {m >= i} for i = 1 .. max(m)."""
    return [
        TorusSet.from_spans(m.den, ((lo, hi) for lo, hi, v in m.cells if v >= i))
        for i in range(1, m.max_value() + 1)
    ]


def sigma_tilde_sets(m: MultiplicityFunction, e: TorusEndomorphism) -> list[TorusSet]:
    """Superlevel sets of the complementary multiplicity."""
    return sigma_sets(compute_mtilde(m, e))


def strict_set(m: MultiplicityFunction, e: TorusEndomorphism) -> TorusSet:
    """Where the consistency inequality is strict; positive measure if m != 0."""
    return compute_mtilde(m, e).support()
