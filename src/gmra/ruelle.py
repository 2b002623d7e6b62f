"""Transfer-type isometries attached to a filter, and their identity suite.

S maps a section vector f over the row level sets to the vector with
components  [S f]_j (w) = sum_i F_ij(w) f_i(N w),  landing over the column
level sets.  The adjoint is realized by the preimage fold

    [S* g]_i (w) = (1/N) sum_{N z = w} conj(F_ij(z)) g_j(z),

which keeps everything inside the piecewise trig-poly class.  S_F* S_K is
then multiplication by a matrix of folds, so ``cuntz_check`` bounds the
four isometry identities in operator norm from the fold identities alone;
applying S to seeded sections is an opt-in cross-check.
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
    _check_pair,
    worst_residual,
)
from .multiplicity import sigma_tilde_sets
from .torus import TorusSet
from .trigpoly import TrigPoly, _inners, _on_set, compose_endomorphism, gated_folds, gated_sum

# how far a probe may exceed its bound: rounding in the probe's own inner products
PROBE_SLACK = 1e-12


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

    def _check_sets(self, other: "SectionVector"):
        if self.sets != other.sets:
            raise ContextMismatch("section vectors live over different sets")

    def _componentwise(self, op, other: "SectionVector") -> "SectionVector":
        self._check_sets(other)
        return SectionVector(tuple(map(op, self.components, other.components)), self.sets)

    def __add__(self, other: "SectionVector") -> "SectionVector":
        return self._componentwise(TrigPoly.__add__, other)

    def __sub__(self, other: "SectionVector") -> "SectionVector":
        """self + other.scale(-1), one sweep per component with the coefficients of that chain."""
        return self._componentwise(TrigPoly.__sub__, other)

    def scale(self, c) -> "SectionVector":
        return SectionVector(tuple(f * c for f in self.components), self.sets)

    def inner(self, other: "SectionVector") -> complex:
        """The sum of the components' inner products, from one ``_inners`` call."""
        self._check_sets(other)
        return sum(_inners(zip(self.components, other.components)), 0j)

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))


def canonical_vectors(sets) -> list[SectionVector]:
    return [SectionVector.canonical(sets, i) for i in range(len(sets))]


def random_section(sets, rng: random.Random, degree: int = 8) -> SectionVector:
    """Seeded trig poly of bounded degree per slot, restricted to its set.

    Coefficients are uniform in the unit disc; low degree suffices because
    every identity under test is linear.  Each slot's terms are laid straight
    onto its set's spans, one cell per span.
    """
    if degree < 0:
        raise ValueError(f"section degree must be >= 0, got {degree}")
    comps = []
    for s in sets:
        terms = []
        for n in range(-degree, degree + 1):
            r = math.sqrt(rng.random())
            theta = rng.random() * math.tau
            c = complex(r * math.cos(theta), r * math.sin(theta))
            if c:  # the frequencies ascend, so dropping exact zeros makes the terms canonical
                terms.append((n, c))
        comps.append(_on_set(s, 1, tuple(terms)))
    return SectionVector(tuple(comps), tuple(sets))


def apply_S(F: FilterMatrix, f: SectionVector) -> SectionVector:
    """[S f]_j (w) = sum_i F_ij(w) f_i(N w), exact."""
    if f.sets != F.row_sets:
        raise ContextMismatch("input vector does not live over the row sets")
    col_sets = F.column_sets
    lifted = [compose_endomorphism(c, F.e) for c in f.components]
    out = (
        gated_sum((F.entry(i, j) * up for i, up in enumerate(lifted[: F.rows])), sj)
        for j, sj in enumerate(col_sets)
    )
    return SectionVector(tuple(out), col_sets)


def apply_S_adjoint(F: FilterMatrix, g: SectionVector) -> SectionVector:
    """[S* g]_i (w) = (1/N) sum_j fold(g_j, F_ij)(w), exact: one ``gated_folds`` job per
    row i, gated by its row set."""
    if g.sets != F.column_sets:
        raise ContextMismatch("input vector does not live over the column sets")
    row_sets, comps = F.row_sets, g.components[: F.cols]
    jobs = [([(gj, F.entry(i, j)) for j, gj in enumerate(comps)], si)
            for i, si in enumerate(row_sets)]
    return SectionVector(tuple(gated_folds(F.e.N, jobs, 1.0 / F.e.N)), row_sets)


def cuntz_check(
    H: FilterMatrix,
    G: FilterMatrix,
    trials: int = 0,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Operator-norm bounds of the four isometry identities, read from the fold identities.

    Checked: S_H* S_H = I, S_G* S_G = I (over the complementary sets),
    S_H* S_G = 0, and S_H S_H* + S_G S_G* = I.  Each value bounds the norm of
    the defect on all sections.  Proof: S_F* S_K multiplies by M(w), M_ik =
    (1/N) sum_j sum_{Nz=w} conj(F_ij(z)) K_kj(z), a conjugated fold of
    ``F.fold_defects`` or ``F.cross_defects(K)`` over N, so |M_ik - delta_ik|
    <= r_ik / N on the row sets and the spectral norm is at most the Frobenius
    sqrt(sum r_ik^2) / N; for K = F only i <= k is folded and M is Hermitian,
    so an off-diagonal r counts twice.  For completeness let W(w) have rows (F, i), F = H, G,
    columns (j, k) and entries F_ij(w_k) / sqrt(N) over the preimages w_k of w.
    W W* - I is made of the same folds over N, so its norm is at most
    e = sqrt(hh^2 + gg^2 + 2 gh^2).  Exact structure (any
    ``structure_violations`` fails the report) leaves nonzero only the rows of
    row sets holding w and the columns with w_k in sigma_j, equal in number:
    m(w) + mtilde(w) = sum_k m(w_k) by consistency.  So W is square there,
    ||W* W - I|| = ||W W* - I|| <= e, and S_H S_H* + S_G S_G* acts on the fibre
    over w, weight 1/N per branch, as conj(W* W).  A NaN bound fails too.
    The folds are read from the tables on H and G, computed once per object
    (and per partner) and shared with ``verify_filter`` and
    ``verify_complementary``; the pair check and tol apply on each call.

    ``trials`` > 0 adds a seeded cross-check under ``probe`` keys: the worst
    ||(S* S - I) f|| / ||f|| over ``trials`` random sections of each space.
    A probe above its bound plus PROBE_SLACK is a violation.
    """
    _check_pair(H, G)
    violations = H.structure_violations + G.structure_violations
    hh, gg, gh = H.fold_defects, G.fold_defects, G.cross_defects(H)

    def frobenius(residuals, hermitian=False):  # (k, i) is then the conjugate of (i, k)
        squares = (r * r * (2 if hermitian and i != k else 1) for (i, k), r in residuals.items())
        return math.sqrt(sum(squares)) / H.e.N

    iso_h, iso_g, cross = frobenius(hh, True), frobenius(gg, True), frobenius(gh)
    bounds = {
        "SH*SH=I": iso_h,
        "SG*SG=I": iso_g,
        "SH*SG=0": cross,
        "SHSH*+SGSG*=I": math.sqrt(iso_h * iso_h + iso_g * iso_g + 2 * cross * cross),
    }
    identities = dict(bounds)
    if trials > 0:
        for key, probe in _probe(H, G, trials, seed).items():
            identities[f"probe {key}"] = probe
            if probe > bounds[key] + PROBE_SLACK:
                violations += (f"probe {key} = {probe:.3g} exceeds its bound {bounds[key]:.3g}",)
    return VerificationReport.from_identities(identities, tol, violations)


def _probe(H: FilterMatrix, G: FilterMatrix, trials: int, seed: int) -> dict[str, float]:
    """Worst ||(S* S - I) f|| / ||f|| of each identity over seeded random sections."""
    rng = random.Random(seed)
    vec_m = [random_section(H.row_sets, rng) for _ in range(trials)]
    vec_mt = [random_section(G.row_sets, rng) for _ in range(trials)]
    r_iso_h, r_complete = [], []
    for f in vec_m:
        size = f.norm() or 1.0
        r_iso_h.append((apply_S_adjoint(H, apply_S(H, f)) - f).norm() / size)
        total = apply_S(H, apply_S_adjoint(H, f)) + apply_S(G, apply_S_adjoint(G, f))
        r_complete.append((total - f).norm() / size)
    r_iso_g, r_cross = [], []
    for u in vec_mt:
        size = u.norm() or 1.0
        lifted = apply_S(G, u)
        r_iso_g.append((apply_S_adjoint(G, lifted) - u).norm() / size)
        r_cross.append(apply_S_adjoint(H, lifted).norm() / size)
    return {
        "SH*SH=I": worst_residual(r_iso_h),
        "SG*SG=I": worst_residual(r_iso_g),
        "SH*SG=0": worst_residual(r_cross),
        "SHSH*+SGSG*=I": worst_residual(r_complete),
    }


# ---- grid-sampled application ----------------------------------------------


@dataclass(frozen=True)
class GridSectionVector:
    """Section vector sampled on the uniform grid s/grid."""

    grid: int
    samples: np.ndarray  # shape (components, grid)

    def norm_estimate(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.samples) ** 2, axis=1).sum()))


def apply_S_grid(F: GridFilterMatrix, f: SectionVector) -> GridSectionVector:
    """Apply a grid-sampled filter to an exact section vector over its row sets, the
    superlevel sets of mtilde, on the grid.

    The fine point s/fine, s = t + k*grid, maps to N*s/fine = t/grid (mod 1) on the
    quotient grid of grid = fine/N points, so each component is sampled once there and
    tiled N times: the values of sampling it at N*s/fine, bit for bit.
    """
    if f.sets != tuple(sigma_tilde_sets(F.m, F.e)):
        raise ContextMismatch("input vector does not live over the row sets")
    fine, N = F.grid, F.e.N
    ts = np.arange(fine // N)
    out = np.zeros((F.cols, fine), dtype=complex)
    for i, c in enumerate(f.components[: F.rows]):
        out += F.samples[i] * np.tile(c.sample(ts, fine // N), N)
    return GridSectionVector(fine, out)
