"""Transfer-type isometries attached to a filter, and their identity suite.

S maps a section vector f over the row level sets to the vector with
components  [S f]_j (w) = sum_i F_ij(w) f_i(N w),  landing over the column
level sets.  The adjoint is realized by the preimage fold

    [S* g]_i (w) = (1/N) sum_{N z = w} conj(F_ij(z)) g_j(z),

which keeps everything inside the piecewise trig-poly class and makes
S* S = I an exactly checkable identity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ContextMismatch
from .filters import (
    DEFAULT_TOL,
    FilterMatrix,
    GridFilterMatrix,
    VerificationReport,
    worst_residual,
)
from .torus import TorusSet
from .trigpoly import TrigPoly, compose_endomorphism, fold, gated_sum, inner


@dataclass(frozen=True)
class SectionVector:
    """Element of a direct sum of L2 spaces over nested circle sets."""

    components: tuple[TrigPoly, ...]
    sets: tuple[TorusSet, ...]

    def __post_init__(self):
        if len(self.components) != len(self.sets):
            raise ContextMismatch("component/set count mismatch")

    @staticmethod
    def from_components(components, sets) -> "SectionVector":
        comps = tuple(c.restrict(s) for c, s in zip(components, sets))
        return SectionVector(comps, tuple(sets))

    @staticmethod
    def zero(sets) -> "SectionVector":
        return SectionVector(tuple(TrigPoly.zero() for _ in sets), tuple(sets))

    @staticmethod
    def canonical(sets, i: int) -> "SectionVector":
        """The vector whose i-th slot is the indicator of its set."""
        comps = [TrigPoly.zero() for _ in sets]
        comps[i] = TrigPoly.indicator(sets[i])
        return SectionVector(tuple(comps), tuple(sets))

    def _componentwise(self, op, other: "SectionVector") -> "SectionVector":
        if self.sets != other.sets:
            raise ContextMismatch("section vectors live over different sets")
        return SectionVector(tuple(map(op, self.components, other.components)), self.sets)

    def __add__(self, other: "SectionVector") -> "SectionVector":
        return self._componentwise(TrigPoly.__add__, other)

    def __sub__(self, other: "SectionVector") -> "SectionVector":
        """self + other.scale(-1), one sweep per component with the coefficients of that chain."""
        return self._componentwise(TrigPoly.__sub__, other)

    def scale(self, c) -> "SectionVector":
        return SectionVector(tuple(f * c for f in self.components), self.sets)

    def inner(self, other: "SectionVector") -> complex:
        return sum(
            (inner(a, b) for a, b in zip(self.components, other.components)), 0j
        )

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))


def canonical_vectors(sets) -> list[SectionVector]:
    return [SectionVector.canonical(sets, i) for i in range(len(sets))]


def random_section(sets, rng: random.Random, degree: int = 8) -> SectionVector:
    """Seeded trig poly of bounded degree per slot, restricted to its set.

    Coefficients are uniform in the unit disc; low degree suffices because
    every identity under test is linear.
    """
    comps = []
    for s in sets:
        terms = []
        for n in range(-degree, degree + 1):
            r = math.sqrt(rng.random())
            theta = rng.random() * math.tau
            terms.append((n, complex(r * math.cos(theta), r * math.sin(theta))))
        comps.append(TrigPoly.from_spans(1, 1, [(0, 1, terms)]).restrict(s))
    return SectionVector(tuple(comps), tuple(sets))


def apply_S(F: FilterMatrix, f: SectionVector) -> SectionVector:
    """[S f]_j (w) = sum_i F_ij(w) f_i(N w), exact."""
    if f.sets != F.row_sets:
        raise ContextMismatch("input vector does not live over the row sets")
    col_sets = F.column_sets
    lifted = [compose_endomorphism(c, F.e) for c in f.components]
    out = []
    for j, sj in enumerate(col_sets):
        products = (
            F.entry(i, j) * lifted[i]
            for i in range(min(F.rows, len(lifted)))
            if not (F.entry(i, j).is_zero() or lifted[i].is_zero())
        )
        out.append(gated_sum(products, sj))
    return SectionVector(tuple(out), col_sets)


def apply_S_adjoint(F: FilterMatrix, g: SectionVector) -> SectionVector:
    """[S* g]_i (w) = (1/N) sum_j fold(g_j, F_ij)(w), exact."""
    if g.sets != F.column_sets:
        raise ContextMismatch("input vector does not live over the column sets")
    row_sets = F.row_sets
    out = []
    for i, si in enumerate(row_sets):
        folds = (
            fold(F.e, g.components[j], F.entry(i, j))
            for j in range(min(F.cols, len(g.components)))
            if not (F.entry(i, j).is_zero() or g.components[j].is_zero())
        )
        out.append(gated_sum(folds, si, 1.0 / F.e.N))
    return SectionVector(tuple(out), row_sets)


def cuntz_check(
    H: FilterMatrix,
    G: FilterMatrix,
    trials: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Residuals of the four isometry identities on canonical and seeded vectors.

    Checked: S_H* S_H = I, S_G* S_G = I (over the complementary sets),
    S_H* S_G = 0, and S_H S_H* + S_G S_G* = I.
    """
    rng = random.Random(seed)
    m_sets = H.row_sets
    mt_sets = G.row_sets
    vec_m = canonical_vectors(m_sets) + [
        random_section(m_sets, rng) for _ in range(trials)
    ]
    vec_mt = canonical_vectors(mt_sets) + [
        random_section(mt_sets, rng) for _ in range(trials)
    ]
    r_iso_h, r_complete = [], []
    for f in vec_m:
        r_iso_h.append((apply_S_adjoint(H, apply_S(H, f)) - f).norm())
        total = apply_S(H, apply_S_adjoint(H, f)) + apply_S(G, apply_S_adjoint(G, f))
        r_complete.append((total - f).norm())
    r_iso_g, r_cross = [], []
    for u in vec_mt:
        lifted = apply_S(G, u)
        r_iso_g.append((apply_S_adjoint(G, lifted) - u).norm())
        r_cross.append(apply_S_adjoint(H, lifted).norm())
    identities = {
        "SH*SH=I": worst_residual(r_iso_h),
        "SG*SG=I": worst_residual(r_iso_g),
        "SH*SG=0": worst_residual(r_cross),
        "SHSH*+SGSG*=I": worst_residual(r_complete),
    }
    return VerificationReport.from_identities(identities, tol)


# ---- grid-sampled application ----------------------------------------------


@dataclass(frozen=True)
class GridSectionVector:
    """Section vector sampled on the uniform grid s/grid."""

    grid: int
    samples: np.ndarray  # shape (components, grid)

    def norm_estimate(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.samples) ** 2, axis=1).sum()))


def apply_S_grid(F: GridFilterMatrix, f: SectionVector) -> GridSectionVector:
    """Apply a grid-sampled filter to an exact section vector, on the grid."""
    fine = F.grid
    up = (F.e.N * np.arange(fine)) % fine  # N * s/fine, exactly
    out = np.zeros((F.cols, fine), dtype=complex)
    for i, c in enumerate(f.components[: F.rows]):
        out += F.samples[i] * c.sample(up, fine)
    return GridSectionVector(fine, out)
