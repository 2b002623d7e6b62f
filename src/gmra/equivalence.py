"""Purity classification and the equivalence decision between filters.

Two filters over the same multiplicity are equivalent when a measurable
block-unitary multiplier A satisfies  H'(w) = A(N w) H(w) A*(w)  a.e.
Equivalence over all measurable A is not decidable in general, so verdicts
are three-valued: Equivalent comes with a verified witness, Inequivalent
with a certified obstruction, and Unknown with the searched degree and
diagnostics.  Purity verdicts are certified the same way: a Pure verdict
names a positive-measure set on which the stated pointwise bound holds,
and a NotPure verdict carries an eigenvalue/eigenvector witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import ContextMismatch, NotApplicable, NotUnitary
from .filters import (
    DEFAULT_TOL,
    FilterMatrix,
    conjugate_filter,
    identity_multiplier,
)
from .multiplicity import MultiplicityFunction
from .ruelle import SectionVector
from .torus import TorusSet
from .trigpoly import TrigPoly, _terms_value, compose_endomorphism

PURE = "pure"
NOT_PURE = "not_pure"
UNKNOWN = "unknown"

EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"

MULTIPLICITY_MISMATCH = "multiplicity_mismatch"
MODULI_MISMATCH = "moduli_mismatch"
SINGULAR_VALUE_MISMATCH = "singular_value_mismatch"
CONSTANT_RATIO = "constant_ratio"
NO_SOLUTION_UP_TO_DEGREE = "no_solution_up_to_degree"


@dataclass(frozen=True)
class PurityVerdict:
    kind: str
    certificate: TorusSet | None = None
    eigenvalue: complex | None = None
    eigenvector: SectionVector | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Obstruction:
    kind: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str
    witness: FilterMatrix | None = None
    obstruction: Obstruction | None = None
    searched_degree: int | None = None
    diagnostics: dict = field(default_factory=dict)


# ---- eigenfilter detection ---------------------------------------------------


def is_eigenfilter(H: FilterMatrix, tol: float = DEFAULT_TOL):
    """True when row 1 is a unimodular constant followed by zeros, a.e."""
    lam = H.entry(0, 0).constant_value(tol)
    if lam is None or abs(abs(lam) - 1.0) > tol:
        return False, None
    for j in range(1, H.cols):
        if H.entry(0, j).sup_bound() > tol:
            return False, None
    return True, lam


# ---- certified pointwise windows --------------------------------------------


def _rationalize_down(r: float) -> Fraction:
    return Fraction(max(int(math.floor(r * 2**30)), 0), 2**30)


def _certified_windows(cells, samples: int):
    """Yield (window, gap) for the windows on which a pointwise bound holds.

    Each cell is (lo, hi, L, gap_at): the bound is gap_at(x) > 0 and L
    bounds the Lipschitz constant of gap_at on [lo, hi).  A cell with
    L = 0 is constant and is decided by one sample.  Otherwise ``samples``
    midpoints are tried, and a sample x with gap d > 0 certifies the
    window of radius d / (2 L) around it, rounded down to a multiple of
    2^-30 and clipped to the cell.
    """
    for lo, hi, lipschitz, gap_at in cells:
        width = hi - lo
        if lipschitz == 0.0:
            gap = gap_at(lo + width / 2)
            if gap > 0:
                yield (lo, hi), gap
            continue
        for s in range(samples):
            x = lo + width * Fraction(2 * s + 1, 2 * samples)
            gap = gap_at(x)
            if not gap > 0:
                continue
            r = _rationalize_down(gap / (2 * lipschitz))
            a, b = max(lo, x - r), min(hi, x + r)
            if a < b:
                yield (a, b), gap


def _lipschitz(terms) -> float:
    """Derivative bound sum |c| * 2*pi*|nu| of the terms of one piece."""
    return sum(abs(c) * math.tau * abs(float(nu)) for nu, c in terms)


def _block_at(block, x: Fraction) -> np.ndarray:
    return np.array([[_terms_value(t, x) for t in row] for row in block], dtype=complex)


def _block_lipschitz(block) -> float:
    # sorted singular values are 1-Lipschitz in the Frobenius norm
    return math.sqrt(sum(_lipschitz(t) ** 2 for row in block for t in row))


def certified_deviation_set(
    p: TrigPoly, target: complex, margin: float
) -> TorusSet:
    """A set on which |p - target| > margin holds, certified.

    On constant pieces the decision is exact.  On trig pieces, a sample
    point with gap d > margin certifies the window of radius
    (d - margin) / (2 L) around it, L being the derivative bound
    sum |c| * 2*pi*|nu| of the piece.
    """

    def gap_at(terms, x):
        return abs(_terms_value(terms, x) - target) - margin

    cells = ((lo, hi, _lipschitz(terms), partial(gap_at, terms)) for lo, hi, terms in p.pieces)
    return TorusSet.from_intervals(w for w, _ in _certified_windows(cells, samples=24))


# ---- purity ------------------------------------------------------------------


def _matrix_cells(*filters: FilterMatrix):
    """Yield (lo, hi, blocks) on the common refinement of filters sharing (m, N).

    The cuts are the breakpoints of m, their dilation preimages (the
    breakpoints of m(N w)) and every entry breakpoint, so the block
    dimensions m(N w) x m(w) and every entry piece are fixed on a cell.
    blocks[f] holds the terms of filter f's active block, and is empty
    when either dimension is zero.
    """
    m, e = filters[0].m, filters[0].e
    points = set(m.breakpoints())
    for b in m.breakpoints():
        points.update((b + k) / e.N for k in range(e.N))
    for F in filters:
        for row in F.entries:
            for h in row:
                points.update(lo for lo, _, _ in h.pieces)
    cuts = sorted(points) + [Fraction(1)]
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        row_dim, col_dim = m.value_at(e.image(mid)), m.value_at(mid)
        if col_dim == 0:
            row_dim = 0
        blocks = [
            [[_piece_terms(F.entry(i, j), mid) for j in range(col_dim)] for i in range(row_dim)]
            for F in filters
        ]
        yield a, b, blocks


def _piece_terms(h: TrigPoly, x: Fraction):
    for lo, hi, terms in h.pieces:
        if lo <= x < hi:
            return terms
    return ()


def low_singular_certificate(
    H: FilterMatrix, tol: float = DEFAULT_TOL
) -> TorusSet:
    """Certified set where the top singular value of the active block < 1 - tol.

    Pieces with an empty block (either dimension zero) qualify outright: no
    unit-norm eigenvector can live there.  Constant pieces are decided by a
    single SVD; trig pieces via sampled SVDs with a Frobenius-Lipschitz
    window.
    """

    def gap_at(block, x):
        if not block:
            return math.inf
        top = np.linalg.svd(_block_at(block, x), compute_uv=False).max()
        return (1.0 - tol) - float(top)

    cells = (
        (a, b, _block_lipschitz(block), partial(gap_at, block))
        for a, b, (block,) in _matrix_cells(H)
    )
    return TorusSet.from_intervals(w for w, _ in _certified_windows(cells, samples=16))


def purity_test(H: FilterMatrix, tol: float = DEFAULT_TOL) -> PurityVerdict:
    """Decision ladder for purity of the isometry defined by H.

    1. An exact eigenfilter is never pure (constant eigenvector witness).
    2. For scalar multiplicity, | |h|^2 - 1 | > tol on positive measure
       certifies purity (two-sided criterion).
    3. Otherwise a certified set where the active block's top singular
       value stays below 1 - tol forces purity: a unit eigenvector would
       need operator norm >= 1 almost everywhere.
    4. Anything else is an honest Unknown.
    """
    found, lam = is_eigenfilter(H, tol)
    if found:
        sets = H.row_sets
        witness = SectionVector.canonical(sets, 0) if sets else None
        return PurityVerdict(
            NOT_PURE,
            eigenvalue=lam,
            eigenvector=witness,
            diagnostics={"reason": "eigenfilter"},
        )
    if H.m == MultiplicityFunction.constant(1):
        h = H.entry(0, 0)
        cert = certified_deviation_set(h * h.conj(), 1.0, tol)
        if cert.measure() > 0:
            return PurityVerdict(PURE, certificate=cert)
    cert = low_singular_certificate(H, tol)
    if cert.measure() > 0:
        return PurityVerdict(PURE, certificate=cert)
    return PurityVerdict(
        UNKNOWN,
        diagnostics={
            "reason": "no certificate found; modulus/top singular value may sit at 1"
        },
    )


# ---- invariants -------------------------------------------------------------


def invariant_check(
    H: FilterMatrix, Hp: FilterMatrix, tol: float = DEFAULT_TOL
) -> Obstruction | None:
    """First certified invariant violated by the pair, or None.

    Conjugation by block unitaries preserves the pointwise singular values
    of the active block; for scalar multiplicity that is the modulus.
    """
    if H.e != Hp.e or H.m != Hp.m:
        raise ContextMismatch("invariant check expects a shared context")
    if H.m == MultiplicityFunction.constant(1):
        h, hp = H.entry(0, 0), Hp.entry(0, 0)
        diff = h * h.conj() - hp * hp.conj()
        cert = certified_deviation_set(diff, 0.0, tol)
        if cert.measure() > 0:
            return Obstruction(
                MODULI_MISMATCH,
                {"set": cert, "bound": tol},
            )
        return None
    margin = max(tol, 1e-7)

    def gap_at(blocks, x):
        sv = [
            np.sort(np.linalg.svd(_block_at(block, x), compute_uv=False))[::-1]
            for block in blocks
        ]
        return float(np.abs(sv[0] - sv[1]).max()) - margin

    cells = (
        (a, b, sum(_block_lipschitz(block) for block in blocks), partial(gap_at, blocks))
        for a, b, blocks in _matrix_cells(H, Hp)
        if blocks[0]
    )
    for (a, b), gap in _certified_windows(cells, 16):
        return Obstruction(
            SINGULAR_VALUE_MISMATCH,
            {"set": TorusSet.interval(a, b), "gap": gap + margin},
        )
    return None


def constant_ratio_obstruction(
    h: TrigPoly, hp: TrigPoly, tol: float = DEFAULT_TOL
) -> Obstruction | None:
    """Obstruction when h' = c h for a constant c != 1 and h vanishes nowhere.

    Any multiplier a solving the coboundary equation would satisfy
    a(N w) = c a(w) a.e.; comparing Fourier coefficients forces the
    off-lattice coefficients to vanish and the chain a_{n} = c a_{Nn}
    to repeat with equal modulus, which square-summability only allows
    for constant a, hence c = 1.  Raises NotApplicable when the ratio is
    not constant or h has a zero set of positive measure.
    """
    if h.support().measure() != 1:
        raise NotApplicable("ratio argument needs an a.e. nonvanishing filter")
    best_x, best_mag = None, 0.0
    for t in range(64):
        x = Fraction(t, 64)
        mag = abs(h.evaluate(x))
        if mag > best_mag:
            best_x, best_mag = x, mag
    if best_mag <= tol:
        raise NotApplicable("could not find a sampling point with h away from 0")
    c = hp.evaluate(best_x) / h.evaluate(best_x)
    if (hp - h * c).sup_bound() > max(tol, 1e-9):
        raise NotApplicable("ratio is not constant")
    if abs(c - 1.0) <= tol:
        return None
    return Obstruction(CONSTANT_RATIO, {"ratio": c})


# ---- coboundary search -------------------------------------------------------


def coboundary_solve(
    h: TrigPoly,
    hp: TrigPoly,
    degree: int,
    e,
    tol: float = DEFAULT_TOL,
) -> TrigPoly | None:
    """Search for a unimodular multiplier with  h'(w) = a(N w) h(w) conj(a(w)).

    Multiplying through by a(w) linearizes to  h'(w) a(w) = a(N w) h(w);
    matching Fourier coefficients over |n| <= degree gives a homogeneous
    system whose null vectors are candidate multipliers.  A candidate is
    accepted only if, after scaling to unit L2 norm, it is unimodular on a
    grid and satisfies the defining identity exactly in the trig class to
    tolerance.  Applies to single-piece integer-frequency filters.
    """
    if len(h.pieces) != 1 or len(hp.pieces) != 1:
        return None
    if any(nu.denominator != 1 for nu in h.frequencies() | hp.frequencies()):
        return None
    N = e.N
    hc = {int(nu): c for nu, c in h.pieces[0][2]}
    hpc = {int(nu): c for nu, c in hp.pieces[0][2]}
    ns = list(range(-degree, degree + 1))
    qs_set = set()
    for n in ns:
        qs_set.update(n + f for f in hpc)
        qs_set.update(N * n + f for f in hc)
    qs = sorted(qs_set)
    A = np.zeros((len(qs), len(ns)), dtype=complex)
    for row, q in enumerate(qs):
        for col, n in enumerate(ns):
            A[row, col] = hpc.get(q - n, 0j) - hc.get(q - N * n, 0j)
    _, s, vh = np.linalg.svd(A)
    smax = s.max() if len(s) else 1.0
    candidates = [
        vh[idx].conj()
        for idx in range(len(ns) - 1, -1, -1)
        if idx >= len(s) or s[idx] <= 1e-10 * max(smax, 1.0)
    ]
    for coeffs in candidates:
        scale = float(np.linalg.norm(coeffs))
        if scale == 0.0:
            continue
        coeffs = coeffs / scale
        a = TrigPoly.from_pieces(
            [(0, 1, [(Fraction(n), c) for n, c in zip(ns, coeffs)])]
        )
        on_grid = a.sample(np.arange(256) / 256.0)
        if np.abs(np.abs(on_grid) - 1.0).max() > 1e-6:
            continue
        lhs = compose_endomorphism(a, e) * h * a.conj()
        if lhs.deviation_from(hp) <= max(tol, 1e-9):
            return a
    return None


# ---- grid search for matrix multipliers --------------------------------------


def _polar_unitary(M: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def constant_multiplier_search(
    H: FilterMatrix,
    Hp: FilterMatrix,
    grid: int = 64,
    iters: int = 200,
    restarts: int = 6,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> np.ndarray | None:
    """Search for a constant unitary A with A H(w) A* = H'(w) on a grid.

    Alternating Procrustes over the left and right factors of the bilinear
    objective, with seeded random unitary restarts; the factors must agree
    at convergence for a candidate to be returned.  Only the exact
    conjugation check downstream certifies it.
    """
    r = H.m.max_value()
    if H.m != MultiplicityFunction.constant(r) or r == 0:
        return None
    # the upper-left r x r blocks of H and H' at t/grid, as (grid, r, r) stacks
    ts = np.arange(grid)
    hv, hpv = (
        np.ascontiguousarray(F.sample(ts, grid)[:r, :r].transpose(2, 0, 1)) for F in (H, Hp)
    )
    hv_h = hv.conj().transpose(0, 2, 1)
    hpv_h = hpv.conj().transpose(0, 2, 1)
    rng = np.random.default_rng(seed)

    def objective(X, Y):
        return float(np.abs(X @ hv @ Y.conj().T - hpv).max())

    starts = [np.eye(r, dtype=complex)]
    for _ in range(restarts - 1):
        raw = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        starts.append(_polar_unitary(raw))
    for X in starts:
        X = X.copy()
        Y = X.copy()
        best = objective(X, Y)
        for _ in range(iters):
            X = _polar_unitary((hpv @ Y @ hv_h).sum(axis=0))
            Y = _polar_unitary((hpv_h @ X @ hv).sum(axis=0))
            cur = objective(X, Y)
            if cur >= best - 1e-14:
                best = min(best, cur)
                break
            best = cur
        if best <= max(tol, 1e-8) and float(np.abs(X - Y).max()) <= 1e-6:
            return _polar_unitary((X + Y) / 2)
    return None


# ---- the decision ------------------------------------------------------------


def _entries_equal(H: FilterMatrix, Hp: FilterMatrix, tol: float) -> bool:
    size_r = max(H.rows, Hp.rows)
    size_c = max(H.cols, Hp.cols)
    z = TrigPoly.zero()
    for i in range(size_r):
        for j in range(size_c):
            a = H.entry(i, j) if i < H.rows and j < H.cols else z
            b = Hp.entry(i, j) if i < Hp.rows and j < Hp.cols else z
            if not a.deviation_from(b) <= tol:
                return False
    return True


def _is_effectively_scalar(F: FilterMatrix) -> bool:
    if F.m.max_value() != 1:
        return False
    for i in range(F.rows):
        for j in range(F.cols):
            if (i, j) != (0, 0) and not F.entry(i, j).is_zero():
                return False
    return True


def decide(
    H: FilterMatrix,
    Hp: FilterMatrix,
    degree: int = 16,
    tol: float = DEFAULT_TOL,
) -> EquivalenceVerdict:
    """Classify the pair (m, H) vs (m', H'): equal multiplicities plus an
    equivalence of filters, decided with witnesses and obstructions.

    Order: multiplicity comparison, certified invariants, constant-ratio
    obstruction, coboundary search up to ``degree``; matrix pairs fall back
    to a grid search for a constant unitary multiplier, which must pass the
    exact conjugation check.
    """
    if H.e != Hp.e:
        raise ContextMismatch("filters live over different dilations")
    if H.m != Hp.m:
        return EquivalenceVerdict(
            INEQUIVALENT,
            obstruction=Obstruction(MULTIPLICITY_MISMATCH, {}),
        )
    if _entries_equal(H, Hp, tol):
        return EquivalenceVerdict(
            EQUIVALENT, witness=identity_multiplier(H.m, H.e)
        )
    obstruction = invariant_check(H, Hp, tol)
    if obstruction is not None:
        return EquivalenceVerdict(INEQUIVALENT, obstruction=obstruction)
    if _is_effectively_scalar(H) and _is_effectively_scalar(Hp):
        h, hp = H.entry(0, 0), Hp.entry(0, 0)
        try:
            obstruction = constant_ratio_obstruction(h, hp, tol)
            if obstruction is not None:
                return EquivalenceVerdict(INEQUIVALENT, obstruction=obstruction)
        except NotApplicable:
            pass
        a = coboundary_solve(h, hp, degree, H.e, tol)
        if a is not None:
            witness = FilterMatrix.scalar(a, H.m, H.e)
            return EquivalenceVerdict(EQUIVALENT, witness=witness)
        return EquivalenceVerdict(
            UNKNOWN,
            obstruction=Obstruction(NO_SOLUTION_UP_TO_DEGREE, {"degree": degree}),
            searched_degree=degree,
            diagnostics={"note": "no trig-poly multiplier up to the degree bound"},
        )
    # constant multipliers are the only grid solutions we can lift exactly,
    # so target them directly; the conjugation check certifies the witness
    const = constant_multiplier_search(H, Hp, tol=tol)
    if const is not None:
        r = H.m.max_value()
        entries = tuple(
            tuple(
                TrigPoly.constant(const[i, j])
                if abs(const[i, j]) > 1e-12
                else TrigPoly.zero()
                for j in range(r)
            )
            for i in range(r)
        )
        witness = FilterMatrix(entries, H.m, H.e, "m")
        try:
            lifted = conjugate_filter(H, witness, tol)
            if _entries_equal(lifted, Hp, max(tol, 1e-8)):
                return EquivalenceVerdict(EQUIVALENT, witness=witness)
        except NotUnitary:
            pass
    return EquivalenceVerdict(
        UNKNOWN,
        searched_degree=degree,
        diagnostics={"note": "no constant unitary multiplier from constant_multiplier_search"},
    )
