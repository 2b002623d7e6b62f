"""Matrix filters and their verification.

A filter is a matrix of piecewise trig polynomials tied to a multiplicity
function m and dilation factor N.  Column j must be supported in sigma_j,
row i must vanish outside the preimage of the i-th row-multiplicity level
set, and the preimage fold of row pairs must reproduce N * delta * chi.
Support and block constraints are checked exactly as set inclusions; the
analytic identities are checked to a residual tolerance.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import CompletionFailed, ContextMismatch, NotUnitary
from .multiplicity import MultiplicityFunction, compute_mtilde, sigma_sets
from .torus import GRID_BLOCK, TorusEndomorphism, TorusSet
from .trigpoly import TrigPoly, compose_endomorphism, fold_residuals

DEFAULT_TOL = 1e-9
_ZERO = TrigPoly.zero()
# residual norm a canonical vector must exceed to join a pointwise completion
PIVOT_TOL = 1e-8


def worst_residual(values) -> float:
    """The largest of some nonnegative residuals (0.0 for none); NaN if any is NaN.

    Python's ``max`` drops a NaN unless it comes first; numpy's keeps it, and
    a NaN or inf result fails every ``<= tol`` test, so a report built on
    this fails closed.
    """
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, dtype=float)
    return float(values.max(initial=0.0))


@dataclass
class VerificationReport:
    """Outcome of an identity suite: residuals plus exact-check violations."""

    passed: bool
    max_residual: float
    tolerance: float
    identities: dict[str, float] = field(default_factory=dict)
    violations: tuple[str, ...] = ()

    @classmethod
    def from_identities(
        cls, identities: dict[str, float], tol: float, violations: tuple[str, ...] = ()
    ) -> "VerificationReport":
        """The report that passes when there are no violations and every residual is within tol."""
        worst = worst_residual(identities.values())
        return cls(not violations and worst <= tol, worst, tol, identities, violations)

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(
            passed=self.passed and other.passed,
            max_residual=worst_residual([self.max_residual, other.max_residual]),
            tolerance=self.tolerance,
            identities={**self.identities, **other.identities},
            violations=self.violations + other.violations,
        )


@dataclass(frozen=True)
class FilterMatrix:
    """Matrix of trig-poly entries with its (m, N) context.

    ``rows_follow`` says which multiplicity indexes the rows: "m" for a
    low-pass filter, "mtilde" for a complementary one.  Columns always
    follow m.  The fold defects and structure violations are computed on
    first use and kept, read-only, for every later report on this object.
    """

    entries: tuple[tuple[TrigPoly, ...], ...]
    m: MultiplicityFunction
    e: TorusEndomorphism
    rows_follow: str = "m"
    # id(K) -> (weak reference to K, cross table); the entry goes when K does
    _cross: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # den -> read-only entry values at the points p/den
    _grid: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.rows_follow not in ("m", "mtilde"):
            raise ValueError("rows_follow must be 'm' or 'mtilde'")
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged filter matrix")

    @staticmethod
    def from_rows(rows, m, e, rows_follow="m") -> "FilterMatrix":
        return FilterMatrix(
            tuple(tuple(row) for row in rows), m, e, rows_follow
        )

    @staticmethod
    def scalar(h: TrigPoly, m, e, rows_follow="m") -> "FilterMatrix":
        return FilterMatrix(((h,),), m, e, rows_follow)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @cached_property
    def row_multiplicity(self) -> MultiplicityFunction:
        if self.rows_follow == "m":
            return self.m
        return compute_mtilde(self.m, self.e)

    @cached_property
    def column_sets(self) -> tuple[TorusSet, ...]:
        return tuple(sigma_sets(self.m))

    @cached_property
    def row_sets(self) -> tuple[TorusSet, ...]:
        return tuple(sigma_sets(self.row_multiplicity))

    def entry(self, i: int, j: int) -> TrigPoly:
        """Entry (i, j); the zero poly outside the stored rows and columns."""
        row = self.entries[i] if i < len(self.entries) else ()
        return row[j] if j < len(row) else _ZERO

    def value_at(self, x) -> np.ndarray:
        """Dense complex matrix of entry values at a rational point."""
        return np.array(
            [[h.evaluate(x) for h in row] for row in self.entries],
            dtype=complex,
        )

    def grid_samples(self, den: int) -> np.ndarray:
        """Entry values at the grid points p/den, p = 0 .. den - 1: a read-only array of
        shape (rows, cols, den), computed once per object and den."""
        out = self._grid.get(den)
        if out is None:
            ps = np.arange(den)
            out = np.zeros((self.rows, self.cols, den), dtype=complex)
            for i, row in enumerate(self.entries):
                for j, h in enumerate(row):
                    out[i, j] = h.sample(ps, den)
            out.flags.writeable = False
            self._grid[den] = out
        return out

    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    @cached_property
    def structure_violations(self) -> tuple[str, ...]:
        """Exact support and block constraints, as canonical set inclusions."""
        out = []
        col_sets, row_sets = self.column_sets, self.row_sets
        for i, row in enumerate(self.entries):
            row_ok = self.e.preimage_set(row_sets[i]) if i < len(row_sets) else TorusSet.empty()
            for j, h in enumerate(row):
                supp = h.support()
                col_ok = col_sets[j] if j < len(col_sets) else TorusSet.empty()
                for what, ok in (("column support", col_ok), ("row block", row_ok)):
                    if supp and not supp.is_subset(ok):
                        where = f"entry ({i + 1},{j + 1})"
                        out.append(f"{where} leaks outside {what} {ok}: support {supp}")
        return tuple(out)

    @cached_property
    def fold_defects(self) -> Mapping[tuple[int, int], float]:
        """Sup bounds {(i, k): r} of the fold defects of the row pairs i <= k: each must
        fold to N * delta_{i,k} * chi on the i-th row level set."""
        keys = [(i, k) for i in range(self.rows) for k in range(i, self.rows)]
        sets = self.row_sets
        targets = [sets[i] if i == k and i < len(sets) else None for i, k in keys]
        return _fold_table(self, self, keys, targets)

    def cross_defects(self, K: "FilterMatrix") -> Mapping[tuple[int, int], float]:
        """Sup bounds {(k, i): r} of the folds of each row k against each row i of K, which
        must vanish; computed once per partner object, which must share (m, N)."""
        if not same_context(self, K):
            raise ContextMismatch("cross folds need filters of the same multiplicity and dilation")
        cross, key = self._cross, id(K)
        ref, table = cross.get(key, (None, None))
        if ref is None or ref() is not K:
            keys = [(k, i) for k in range(self.rows) for i in range(K.rows)]
            table = _fold_table(self, K, keys, [None] * len(keys))
            cross[key] = (weakref.ref(K, lambda _: cross.pop(key, None)), table)
        return table


def same_context(a: FilterMatrix, b: FilterMatrix) -> bool:
    return a.m == b.m and a.e == b.e


def _check_pair(H: FilterMatrix, G: FilterMatrix):
    """H and a complementary G share (m, N), H's rows follow m and G's mtilde, and
    both are as large as their multiplicities ask."""
    if not same_context(G, H):
        raise ContextMismatch("G and H must share the same multiplicity and dilation")
    if G.rows_follow != "mtilde" or H.rows_follow != "m":
        raise ContextMismatch("expected H rows indexed by m and G rows by mtilde")
    _check_dims(H)
    _check_dims(G)


def _check_low_pass(*filters: FilterMatrix):
    """Each filter's rows follow m, as a low-pass filter's do, not mtilde."""
    if any(F.rows_follow != "m" for F in filters):
        raise ContextMismatch("expected a filter whose rows follow m, not a complementary one")


def _check_dims(F: FilterMatrix):
    need_cols = len(F.column_sets)
    need_rows = len(F.row_sets)
    if F.cols < need_cols or F.rows < need_rows:
        raise ContextMismatch(
            f"matrix is {F.rows}x{F.cols} but multiplicities require at least "
            f"{need_rows}x{need_cols}"
        )


def _fold_table(F: FilterMatrix, G: FilterMatrix, keys, targets) -> Mapping:
    """{(i, k): r} for each key (i, k) and its target set ts (None for none): r is the sup
    bound of sum_j fold(F_ij, G_kj) - N * chi_ts, all from one ``fold_residuals`` call."""
    cols = range(min(F.cols, G.cols))
    jobs = [([(F.entry(i, j), G.entry(k, j)) for j in cols], ts)
            for (i, k), ts in zip(keys, targets)]
    return MappingProxyType(dict(zip(keys, fold_residuals(F.e, jobs))))


def _fold_report(
    F: FilterMatrix, label: str, tol: float, cross: FilterMatrix | None = None
) -> VerificationReport:
    """Structure checks of F plus its fold defects, and its cross defects against ``cross``."""
    _check_dims(F)
    identities = {f"{label}({i + 1},{k + 1})": r for (i, k), r in F.fold_defects.items()}
    if cross is not None:
        crossed = F.cross_defects(cross).items()
        identities.update((f"gh({k + 1},{i + 1})", r) for (k, i), r in crossed)
    return VerificationReport.from_identities(identities, tol, F.structure_violations)


def verify_filter(H: FilterMatrix, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the orthogonality identities and support structure of H.

    Row pairs (i, i') must fold to N * delta_{i,i'} * chi on the i-th row
    level set.  Residuals are sup-norm bounds over the refined partition.
    The folds are computed once per filter object (``H.fold_defects``) and
    shared with ``verify_complementary`` and ``cuntz_check``; tol is applied
    on each call.
    """
    return _fold_report(H, "rows", tol)


def verify_complementary(
    G: FilterMatrix, H: FilterMatrix, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check that G completes H: G-G orthogonality plus vanishing G-H cross folds.

    The folds come from ``G.fold_defects`` and ``G.cross_defects(H)``, computed
    once per pair of objects and shared with ``cuntz_check``; the pair check
    and tol are applied on each call.
    """
    _check_pair(H, G)
    return _fold_report(G, "gg", tol, cross=H)


# ---- conjugation by a unitary multiplier -----------------------------------


def _square(F: FilterMatrix, size: int) -> list[list[TrigPoly]]:
    return [[F.entry(i, j) for j in range(size)] for i in range(size)]


def _products(x, y) -> list[list[TrigPoly]]:
    """The entry list of x y^T: entry (i, j) is one ``TrigPoly.sum`` of x[i][k] * y[j][k]."""
    return [[TrigPoly.sum(u * v for u, v in zip(row, col)) for col in y] for row in x]


def _block_defect(a: list[list[TrigPoly]], P: FilterMatrix) -> float:
    """Worst sup bound of a a* - P and a* a - P, for the square entry list a of a multiplier."""
    ac = [[x.conj() for x in row] for row in a]
    blocks = (_products(a, ac), _products(list(zip(*ac)), list(zip(*a))))
    return worst_residual(
        x.deviation_from(P.entry(i, j))
        for block in blocks for i, row in enumerate(block) for j, x in enumerate(row)
    )


def check_block_unitary(A: FilterMatrix) -> float:
    """Worst sup bound of A A* - P and A* A - P, P = identity_multiplier(A.m, A.e): both
    vanish exactly when every m(w)-block of A is unitary and A is zero outside it."""
    P = identity_multiplier(A.m, A.e)
    return _block_defect(_square(A, max(A.rows, A.cols, P.rows)), P)


def conjugate_filter(
    H: FilterMatrix, A: FilterMatrix, tol: float = DEFAULT_TOL
) -> FilterMatrix:
    """The conjugated filter  w -> A(N*w) H(w) A*(w), exact in the class.

    A must be a block-unitary multiplier for the same m, and H's rows must
    follow m; filterhood is preserved, which verify_filter on the result
    confirms.  The product is taken as two entry-list products,
    ((A o N) H) A*.
    """
    if not same_context(A, H):
        raise ContextMismatch("multiplier and filter contexts differ")
    _check_low_pass(H)
    P = identity_multiplier(A.m, A.e)
    size = max(A.rows, A.cols, H.rows, H.cols, P.rows)
    a = _square(A, size)
    dev = _block_defect(a, P)
    if not dev <= max(tol, 1e-7):  # a NaN deviation fails too
        raise NotUnitary(f"multiplier fails block unitarity by {dev:.3g}")
    a_up = [[compose_endomorphism(x, H.e) for x in row] for row in a]
    ah = _products(a_up, list(zip(*_square(H, size))))
    return FilterMatrix.from_rows(_products(ah, [[x.conj() for x in row] for row in a]), H.m, H.e)


def identity_multiplier(m: MultiplicityFunction, e: TorusEndomorphism) -> FilterMatrix:
    """The multiplier that is the identity on every m(w)-block."""
    sets = sigma_sets(m)
    size = max(len(sets), 1)
    rows = [[TrigPoly.zero()] * size for _ in range(size)]
    for i, s in enumerate(sets):
        rows[i][i] = TrigPoly.indicator(s)
    return FilterMatrix.from_rows(rows, m, e, "m")


# ---- numeric complement -----------------------------------------------------


@dataclass(frozen=True)
class GridFilterMatrix:
    """Filter sampled on the uniform grid s/(grid); no exact support queries.

    Row r, column j of ``samples`` holds the value at every grid point.
    Produced by ``complement_numeric``; supports grid verification and
    grid-sampled Ruelle application.  The samples must have shape (rows,
    cols, grid), and grid must be a positive multiple of N, so that the grid points
    are the N preimages of a quotient grid of grid/N points.
    """

    grid: int
    samples: np.ndarray  # shape (rows, cols, grid)
    m: MultiplicityFunction
    e: TorusEndomorphism

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError(f"grid must be >= 1, got {self.grid}")
        shape = np.shape(self.samples)
        if len(shape) != 3 or shape[2] != self.grid:
            raise ContextMismatch(f"samples of shape {shape} are not (rows, cols, {self.grid})")
        if self.grid % self.e.N:
            raise ContextMismatch(f"grid {self.grid} is not a multiple of N = {self.e.N}")

    @property
    def rows(self) -> int:
        return self.samples.shape[0]

    @property
    def cols(self) -> int:
        return self.samples.shape[1]


def _grid_residuals(Gq: np.ndarray, Hq: np.ndarray, mt: np.ndarray, N: int):
    """Worst gg and gh residuals of the complementary identities on a grid.

    ``Gq`` and ``Hq`` hold samples as (rows, cols, k, t): entry values at
    the k-th preimage (t + k*grid)/(N*grid) of the quotient point t/grid.
    At each t, G G* must be N on the first mt(t) diagonal slots and 0
    elsewhere, and G H* must vanish.  Taken GRID_BLOCK points at a time.
    """
    slot = np.arange(Gq.shape[0])
    gg, gh = [], []
    for a in range(0, Gq.shape[-1], GRID_BLOCK):
        g = Gq[..., a : a + GRID_BLOCK]
        gram = np.einsum("ajkt,bjkt->tab", g, g.conj())
        live = slot[:, None] < mt[a : a + GRID_BLOCK, None, None]
        gg.append(worst_residual(np.abs(gram - N * ((slot[:, None] == slot) & live))))
        cross = np.einsum("ajkt,bjkt->tab", g, Hq[..., a : a + GRID_BLOCK].conj())
        gh.append(worst_residual(np.abs(cross)))
    return worst_residual(gg), worst_residual(gh)


def _complete_run(basis: np.ndarray, mw: int, mt: int) -> np.ndarray:
    """Fill slots mw.. of ``basis`` (points, mw + mt, dim) by Gram-Schmidt.

    The first mw slots hold the orthonormal rows at each point.  For each
    canonical vector e_d in turn, projected off the filled slots twice, a
    point whose residual norm exceeds ``PIVOT_TOL`` takes it as its next
    row until it has mt; slots not yet filled are zero and project nothing
    off, so every point follows the pointwise pivot rule.  Returns the
    number of rows found at each point.

    Only the slots below mw + found.max() are projected off: the later ones are +0
    at every point of the run.  u starts from +0 and 1.0 and only subtracts, and
    x - y is -0 only for x = -0, so u never holds -0 and subtracting a zero
    projection from it changes no bit.
    """
    points, _, dim = basis.shape
    found = np.zeros(points, dtype=int)
    for d in range(dim):
        open_ = found < mt
        if not open_.any():
            break
        u = np.zeros((points, dim), dtype=complex)
        u[:, d] = 1.0
        filled = mw + found.max()
        for _ in range(2):  # twice for numerical stability
            for v in range(filled):
                vec = basis[:, v]
                u -= np.einsum("pd,pd->p", vec.conj(), u)[:, None] * vec
        norms = np.linalg.norm(u, axis=1)
        take = np.flatnonzero(open_ & (norms > PIVOT_TOL))
        basis[take, mw + found[take]] = u[take] / norms[take, None]
        found[take] += 1
    return found


def complement_numeric(
    H: FilterMatrix,
    grid: int = 256,
    tol: float = DEFAULT_TOL,
) -> tuple[GridFilterMatrix, VerificationReport]:
    """Complete H to a complementary filter, pointwise on a quotient grid.

    At each of the ``grid`` quotient points w the rows of H, read across the
    N preimages and scaled by 1/sqrt(N), form an orthonormal family of size
    m(w) inside the coordinates (j, k) allowed by the column supports.  The
    canonical basis is Gram-Schmidt-ed against that family (pivot = lowest
    index whose residual norm exceeds PIVOT_TOL) until mtilde(w) extra rows
    are found; the complementary samples are the completions scaled back by
    sqrt(N).

    H's samples on the fine grid of preimages come from ``H.grid_samples``,
    kept for ``verify_complementary_grid``, and each run of consecutive
    quotient points sharing m(w), mtilde(w) and the allowed coordinates is
    completed in one batch.
    """
    _check_dims(H)
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    N = H.e.N
    m = H.m
    mtilde = compute_mtilde(m, H.e)
    cols = H.cols
    g_rows = max(mtilde.max_value(), 1)
    fine = N * grid
    sqrt_n = math.sqrt(N)
    ts = np.arange(grid)
    mw = m.sample(ts, grid)
    mt = mtilde.sample(ts, grid)
    # preimage k of the quotient point t is the fine point t + k*grid
    m_up = m.sample(np.arange(fine), fine).reshape(N, grid)
    allowed = m_up[None] > np.arange(cols)[:, None, None]  # (j, k, t)
    Hq = H.grid_samples(fine).reshape(H.rows, cols, N, grid)
    Gq = np.zeros((g_rows, cols, N, grid), dtype=complex)
    # runs of quotient points sharing m(w), mtilde(w) and the allowed
    # coordinates are completed together, in order of t and at most
    # GRID_BLOCK points at a time
    changed = (mw[1:] != mw[:-1]) | (mt[1:] != mt[:-1])
    changed |= (allowed[:, :, 1:] != allowed[:, :, :-1]).any(axis=(0, 1))
    bounds = sorted({*range(0, grid, GRID_BLOCK), *(np.flatnonzero(changed) + 1).tolist(), grid})
    gg, gh = [], []
    for a, b in zip(bounds, bounds[1:]):
        w_dim, t_dim = int(mw[a]), int(mt[a])
        js, ks = np.nonzero(allowed[:, :, a])  # coordinates (j, k), j-major
        dim = len(js)
        if dim != w_dim + t_dim:
            raise CompletionFailed(
                f"coordinate count {dim} at w={Fraction(a, grid)} disagrees with "
                f"m + mtilde = {w_dim + t_dim}"
            )
        basis = np.zeros((b - a, dim, dim), dtype=complex)
        basis[:, :w_dim] = Hq[:w_dim, js, ks, a:b].transpose(2, 0, 1) / sqrt_n
        found = _complete_run(basis, w_dim, t_dim)
        short = np.flatnonzero(found < t_dim)
        if len(short):
            t = a + int(short[0])
            raise CompletionFailed(
                f"completion degenerated at w={Fraction(t, grid)}: "
                f"found {found[short[0]]} of {t_dim} rows"
            )
        for r in range(t_dim):
            Gq[r, js, ks, a:b] = basis[:, w_dim + r].T * sqrt_n
        # the rows of H active on this run enter the gh residual
        run_gg, run_gh = _grid_residuals(Gq[..., a:b], Hq[:w_dim, ..., a:b], mt[a:b], N)
        gg.append(run_gg)
        gh.append(run_gh)
    identities = {"gg_grid": worst_residual(gg), "gh_grid": worst_residual(gh)}
    report = VerificationReport.from_identities(identities, tol)
    G = GridFilterMatrix(fine, Gq.reshape(g_rows, cols, fine), m, H.e)
    return G, report


def verify_complementary_grid(
    G: GridFilterMatrix, H: FilterMatrix, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Re-check the complementary identities of a grid-sampled G against H, on H's
    ``grid_samples`` at G's grid."""
    if G.m != H.m or G.e != H.e:
        raise ContextMismatch("grid filter context differs from H")
    N = H.e.N
    grid = G.grid // N
    mt = compute_mtilde(H.m, H.e).sample(np.arange(grid), grid)
    Gq = G.samples.reshape(G.rows, G.cols, N, grid)
    Hq = H.grid_samples(G.grid)[:, : G.cols].reshape(H.rows, G.cols, N, grid)
    max_gg, max_gh = _grid_residuals(Gq, Hq, mt, N)
    return VerificationReport.from_identities({"gg_grid": max_gg, "gh_grid": max_gh}, tol)
