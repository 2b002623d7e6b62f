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
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import ContextMismatch, NotApplicable, NotUnitary
from .filters import (
    DEFAULT_TOL,
    FilterMatrix,
    _check_low_pass,
    conjugate_filter,
    identity_multiplier,
)
from .multiplicity import MultiplicityFunction, sigma_sets
from .ruelle import SectionVector
from .torus import TorusSet, cell_at
from .trigpoly import TrigPoly, _terms_values

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


def _certified_windows(cells, den: int, samples: int, gaps):
    """(a, b, gap): the windows on which a pointwise bound holds, as arrays in point order.

    Each cell is (lo, hi, L, payload), the piece [lo/den, hi/den): L bounds the Lipschitz
    constant of the gap there, and the bound is gap > 0.  Every sample point of every cell
    goes into one int array ``ps`` over q = 2 * samples * den, and one call
    gaps(payloads, where, ps, q) returns the gap at each point ps[i]/q of the cell
    payloads[where[i]].  A cell with L = 0 is constant and is decided by its midpoint,
    samples * (lo + hi), whose window is the whole cell.  Otherwise ``samples`` midpoints
    are tried, and a sample x with gap d > 0 certifies the window of radius d / (2 L)
    around it, rounded down to a multiple of 2^-30 and clipped to the cell: (a, b),
    integer numerators over den * 2 * samples * 2^30.  A radius is capped at one turn,
    which covers any cell, so the window arithmetic runs in int64 while
    den * 2 * samples * 2^30 < 2^62, and on Python ints past that.
    """
    cells = list(cells)
    q = 2 * samples * den
    unit = 2 * samples * 2**30  # a cell end point over den, as a window numerator
    ints = np.int64 if q * 2**30 < 2**62 else object
    if not cells:
        return np.empty(0, dtype=ints), np.empty(0, dtype=ints), np.empty(0)
    lo, hi = np.array([cell[:2] for cell in cells], dtype=ints).T
    lips = np.array([cell[2] for cell in cells])
    # the points (2 samples lo + k (hi - lo))/q: k = 1, 3, .., 2 samples - 1, or the midpoint
    # k = samples of a constant cell
    counts = np.where(lips == 0.0, 1, samples)
    where = np.repeat(np.arange(len(cells)), counts)
    k = 2 * (np.arange(len(where)) - np.repeat(np.cumsum(counts) - counts, counts)) + 1
    k[counts[where] == 1] = samples
    ps = 2 * samples * lo[where] + k.astype(ints) * (hi - lo)[where]
    ps = ps.astype(np.int64 if q < 2**62 else object)  # Python ints past int64
    gap = gaps([payload for _, _, _, payload in cells], where, ps, q)
    sel = np.flatnonzero(gap > 0)
    at, gap, ps, lip = where[sel], gap[sel], ps[sel], lips[where[sel]]
    turns = np.full(len(sel), 2.0**30)  # the radius in 2^-30 turns; a constant cell's is 1
    vary = lip != 0.0
    with np.errstate(over="ignore"):  # past the float range the radius is capped
        turns[vary] = np.minimum(np.floor(gap[vary] / (2 * lip[vary]) * 2**30), 2.0**30)
    keep = np.flatnonzero(turns >= 0)  # a NaN radius certifies nothing
    at, gap, r = at[keep], gap[keep], turns[keep].astype(np.int64).astype(ints) * q
    centre = ps[keep].astype(ints) * 2**30
    a = np.maximum(lo[at] * unit, centre - r)
    b = np.minimum(hi[at] * unit, centre + r)
    live = a < b
    return a[live], b[live], gap[live]


def _window_set(windows, den: int, samples: int) -> TorusSet:
    """The union of the windows (a, b, gap) of ``_certified_windows(cells, den, samples,
    gaps)``: sorted by a, each window joins the run before it unless it starts past the
    largest end so far, and the runs go to ``TorusSet.from_spans``."""
    a, b, _ = windows
    order = np.argsort(a, kind="stable")
    a, reach = a[order], np.maximum.accumulate(b[order])
    new, last = np.ones(len(a), dtype=bool), np.ones(len(a), dtype=bool)
    new[1:] = last[:-1] = a[1:] > reach[:-1]  # a run starts at i, and the one before ends
    return TorusSet.from_spans(den * 2 * samples * 2**30,
                               zip(a[new].tolist(), reach[last].tolist()))


def _lipschitz(fden: int, terms) -> float:
    """Derivative bound sum |c| * 2*pi*|n/fden| of the terms of one piece."""
    return sum(abs(c) * math.tau * abs(n / fden) for n, c in terms)


def _block_lipschitz(block) -> float:
    # sorted singular values are 1-Lipschitz in the Frobenius norm
    return math.sqrt(sum(_lipschitz(*entry) ** 2 for row in block for entry in row))


def _block_stacks(blocks, where: np.ndarray, ps: np.ndarray, q: int):
    """Yield (points, stack) per block shape (rows, cols): the indices i of the points
    ps[i]/q whose block blocks[where[i]] has that shape, and the values of those blocks
    at those points, a (points, rows, cols) array from one ``_terms_values`` call."""
    shapes = defaultdict(list)
    for b, block in enumerate(blocks):
        shapes[len(block), len(block[0]) if block else 0].append(b)
    shape_of, rank = np.empty(len(blocks), dtype=int), np.empty(len(blocks), dtype=int)
    for k, members in enumerate(shapes.values()):
        shape_of[members], rank[members] = k, np.arange(len(members))
    for k, ((rows, cols), members) in enumerate(shapes.items()):
        points = np.flatnonzero(shape_of[where] == k)
        entries = [entry for b in members for row in blocks[b] for entry in row]
        # entry e of the block of members[j] is entries[j * rows * cols + e]
        at = (rank[where[points], None] * (rows * cols) + np.arange(rows * cols)).ravel()
        values = _terms_values(entries, at, np.repeat(ps[points], rows * cols), q)
        yield points, values.reshape(len(points), rows, cols)


def certified_deviation_set(
    p: TrigPoly, target: complex, margin: float
) -> TorusSet:
    """A set on which |p - target| > margin holds, certified.

    On constant pieces the decision is exact.  On trig pieces, a sample
    point with gap d > margin certifies the window of radius
    (d - margin) / (2 L) around it, L being the derivative bound
    sum |c| * 2*pi*|nu| of the piece.
    """
    target = complex(target)

    def gaps(rows, where, ps, q):
        values = _terms_values(rows, where, ps, q)
        return np.hypot(values.real - target.real, values.imag - target.imag) - margin

    cells = ((lo, hi, _lipschitz(p.fden, t), (p.fden, t)) for lo, hi, t in p.cells)
    return _window_set(_certified_windows(cells, p.den, 24, gaps), p.den, 24)


# ---- purity ------------------------------------------------------------------


def _matrix_cells(*filters: FilterMatrix):
    """The common refinement of filters sharing (m, N): (den, cells), each cell
    (lo, hi, blocks) the piece [lo/den, hi/den).

    The cuts are the breakpoints of m, their dilation preimages (the
    breakpoints of m(N w)) and every entry breakpoint, so the block
    dimensions m(N w) x m(w) and every entry piece are fixed on a cell.
    blocks[f] holds (fden, terms) per entry of filter f's active block, and
    is empty when either dimension is zero.
    """
    m, e = filters[0].m, filters[0].e
    entries = [h for F in filters for row in F.entries for h in row]
    den = math.lcm(e.N * m.den, *[h.den for h in entries])
    up = den // (e.N * m.den)  # a numerator over N * m.den, over den
    cuts = {lo * e.N * up for lo, _, _ in m.cells}
    cuts.update((lo + k * m.den) * up for lo, _, _ in m.cells for k in range(e.N))
    cuts.update(lo * (den // h.den) for h in entries for lo, _, _ in h.cells)
    cuts = sorted(cuts) + [den]

    def at(f, p):  # the payload of m's or an entry's cell holding the point p/(2 den)
        return f.cells[cell_at(f.cells, f.den, p, 2 * den)][2]

    def cells():
        for a, b in zip(cuts, cuts[1:]):
            mid = a + b  # the midpoint over 2 den; N * mid mod 2 den is its image
            row_dim, col_dim = at(m, e.N * mid % (2 * den)), at(m, mid)
            if col_dim == 0:
                row_dim = 0
            blocks = [
                [[(F.entry(i, j).fden, at(F.entry(i, j), mid)) for j in range(col_dim)]
                 for i in range(row_dim)]
                for F in filters
            ]
            yield a, b, blocks

    return den, cells()


def low_singular_certificate(
    H: FilterMatrix, tol: float = DEFAULT_TOL
) -> TorusSet:
    """Certified set where the top singular value of the active block < 1 - tol.

    Pieces with an empty block (either dimension zero) qualify outright: no
    unit-norm eigenvector can live there.  Constant pieces are decided by a
    single SVD; trig pieces via sampled SVDs with a Frobenius-Lipschitz
    window.
    """

    def gaps(blocks, where, ps, q):
        out = np.full(len(ps), math.inf)
        for points, stack in _block_stacks(blocks, where, ps, q):
            if stack.size:
                top = np.linalg.svd(stack, compute_uv=False).max(axis=1)
                out[points] = (1.0 - tol) - top
        return out

    den, matrix_cells = _matrix_cells(H)
    cells = ((a, b, _block_lipschitz(block), block) for a, b, (block,) in matrix_cells)
    return _window_set(_certified_windows(cells, den, 16, gaps), den, 16)


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

    def gaps(pairs, where, ps, q):
        out = np.empty(len(ps))
        joined = [[r + rp for r, rp in zip(*pair)] for pair in pairs]  # [H block | H' block]
        for points, stack in _block_stacks(joined, where, ps, q):
            cols = stack.shape[2] // 2
            sv = np.linalg.svd(np.concatenate((stack[..., :cols], stack[..., cols:])),
                               compute_uv=False)
            out[points] = np.abs(sv[: len(points)] - sv[len(points) :]).max(axis=1) - margin
        return out

    den, matrix_cells = _matrix_cells(H, Hp)
    cells = (
        (a, b, sum(_block_lipschitz(block) for block in blocks), blocks)
        for a, b, blocks in matrix_cells
        if blocks[0]
    )
    a, b, gap = _certified_windows(cells, den, 16, gaps)
    if len(gap):  # the first window in point order
        return Obstruction(
            SINGULAR_VALUE_MISMATCH,
            {"set": _window_set((a[:1], b[:1], gap[:1]), den, 16), "gap": float(gap[0]) + margin},
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
    values = h.sample(np.arange(64), 64)  # at the points t/64
    mags = np.fmax(np.hypot(values.real, values.imag), 0.0)  # a NaN reads 0, never chosen
    best_t = int(np.argmax(mags))  # the first largest
    best_mag = float(mags[best_t])
    if best_mag <= tol:
        raise NotApplicable("could not find a sampling point with h away from 0")
    c = hp._value(best_t, 64) / h._value(best_t, 64)
    if (hp - h * c).sup_bound() > max(tol, 1e-9):
        raise NotApplicable("ratio is not constant")
    if abs(c - 1.0) <= tol:
        return None
    return Obstruction(CONSTANT_RATIO, {"ratio": c})


# ---- the intertwiner kernel --------------------------------------------------


def _entries_equal(H: FilterMatrix, Hp: FilterMatrix, tol: float) -> bool:
    return all(
        H.entry(i, j).deviation_from(Hp.entry(i, j)) <= tol
        for i in range(max(H.rows, Hp.rows))
        for j in range(max(H.cols, Hp.cols))
    )


def _coefficients(block, r: int, adjoint: bool, fden: int) -> dict:
    """Frequency numerator over ``fden`` -> r x r coefficient matrix of one cell's block,
    zero-padded; ``fden`` is a multiple of every entry's frequency denominator.

    With ``adjoint``, those of the pointwise adjoint: frequency -nu carries
    the conjugate transpose of the coefficient at nu.
    """
    out = {}
    for i, row in enumerate(block):
        for j, (d, terms) in enumerate(row):
            for n, c in terms:
                nu = n * (fden // d)
                key, at = (-nu, (j, i)) if adjoint else (nu, (i, j))
                out.setdefault(key, np.zeros((r, r), dtype=complex))[at] = (
                    c.conjugate() if adjoint else c
                )
    return out


def _intertwiner_system(H: FilterMatrix, Hp: FilterMatrix, ns: range) -> np.ndarray:
    """The matrix whose null vectors are the multipliers sum_n A_n e(n w), n in ns,
    solving  A(N w) H(w) = H'(w) A(w)  and  A(w) H(w)* = H'(w)* A(N w).

    Both sides are matched frequency by frequency on every cell of
    ``_matrix_cells``: exponentials of distinct frequencies are independent on
    any interval, so this is exact.  A null vector lists the row-major entries
    of A_n for each n in turn.
    """
    r, N = H.m.max_value(), H.e.N
    width = r * r
    eye = np.eye(r)
    fden = math.lcm(*[h.fden for F in (H, Hp) for row in F.entries for h in row])
    equations = []
    for _, _, (block, block_p) in _matrix_cells(H, Hp)[1]:
        for adjoint in (False, True):
            # frequencies as numerators over fden: the multiplier's n is n * fden
            right_dilation, left_dilation = (fden, N * fden) if adjoint else (N * fden, fden)
            rows = defaultdict(lambda: np.zeros((width, len(ns) * width), dtype=complex))
            for nu, C in _coefficients(block, r, adjoint, fden).items():
                term = np.kron(eye, C.T)  # A -> A C on row-major entries
                for k, n in enumerate(ns):
                    rows[right_dilation * n + nu][:, k * width : (k + 1) * width] += term
            for nu, C in _coefficients(block_p, r, adjoint, fden).items():
                term = np.kron(C, eye)  # A -> C A
                for k, n in enumerate(ns):
                    rows[left_dilation * n + nu][:, k * width : (k + 1) * width] -= term
            equations.extend(rows.values())
    return np.vstack(equations) if equations else np.zeros((1, len(ns) * width))


def _polar_unitary(M: np.ndarray) -> np.ndarray:
    """The unitary factor U of a polar decomposition M = U P."""
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def _multiplier(coeffs: np.ndarray, ns: range, H: FilterMatrix) -> FilterMatrix:
    """The r x r multiplier sum_n coeffs[n] e(n w), entry (i, j) cut to {m > max(i, j)}.

    Coefficients of modulus 1e-12 or less are dropped.
    """
    sets = sigma_sets(H.m)

    def entry(i, j):
        terms = [(n, complex(c)) for n, c in zip(ns, coeffs[:, i, j]) if abs(c) > 1e-12]
        s = sets[max(i, j)]
        return TrigPoly.from_spans(s.den, 1, ((lo, hi, terms) for lo, hi in s.spans))

    entries = tuple(tuple(entry(i, j) for j in range(len(sets))) for i in range(len(sets)))
    return FilterMatrix(entries, H.m, H.e, "m")


def coboundary_solve(
    H: FilterMatrix,
    Hp: FilterMatrix,
    degree: int,
    tol: float = DEFAULT_TOL,
) -> FilterMatrix | None:
    """A multiplier of trig degree <= ``degree`` with  H'(w) = A(N w) H(w) A(w)*, or None.

    The unknowns are the Fourier coefficients of an r x r multiplier, r the
    largest value of m, and the null space of ``_intertwiner_system`` comes
    from one SVD.  With the adjoint equations the constant null vectors form
    the intertwiner space of two *-representations, which holds the polar
    part of its invertible elements: for degree 0 the candidate is the polar
    part of a fixed combination (weights 1, 1/2, 1/3, ...) of the null basis.
    For degree > 0 each null vector, scaled to norm sqrt(r), is a candidate.
    A candidate is returned only if ``conjugate_filter`` (which checks block
    unitarity) reproduces H' to max(tol, 1e-9).
    """
    r = H.m.max_value()
    if r == 0:
        return None
    ns = range(-degree, degree + 1)
    _, s, vh = np.linalg.svd(_intertwiner_system(H, Hp, ns))
    rank = int(np.count_nonzero(s > 1e-10 * max(s.max(initial=0.0), 1.0)))
    null = vh[rank:][::-1].conj().reshape(-1, len(ns), r, r)
    if degree == 0 and len(null):
        generic = np.tensordot(1.0 / np.arange(1, len(null) + 1), null[:, 0], 1)
        candidates = [_polar_unitary(generic)[None]]
    else:
        candidates = [v * (math.sqrt(r) / np.linalg.norm(v)) for v in null]
    for coeffs in candidates:
        A = _multiplier(coeffs, ns, H)
        try:
            if _entries_equal(conjugate_filter(H, A, tol), Hp, max(tol, 1e-9)):
                return A
        except NotUnitary:
            pass
    return None


# ---- the decision ------------------------------------------------------------


def _is_effectively_scalar(F: FilterMatrix) -> bool:
    if F.m.max_value() != 1:
        return False
    for i in range(F.rows):
        for j in range(F.cols):
            if (i, j) != (0, 0) and not F.entry(i, j).is_zero():
                return False
    return True


def _single_piece_integer(h: TrigPoly) -> bool:
    return len(h.cells) == 1 and h.fden == 1


def decide(
    H: FilterMatrix,
    Hp: FilterMatrix,
    degree: int = 16,
    tol: float = DEFAULT_TOL,
) -> EquivalenceVerdict:
    """Classify the pair (m, H) vs (m', H'): equal multiplicities plus an
    equivalence of filters, decided with witnesses and obstructions.

    Order: multiplicity comparison, certified invariants, constant-ratio
    obstruction, then ``coboundary_solve``: up to ``degree`` for scalar
    filters of one piece with integer frequencies, at degree 0 for a
    constant multiplicity, and not at all otherwise (the system over many
    cells grows large and has not, in probes, found a witness).  An
    ``unknown`` names the degree searched, or says why no search ran.
    """
    if degree < 0:
        raise ValueError(f"search degree must be >= 0, got {degree}")
    if H.e != Hp.e:
        raise ContextMismatch("filters live over different dilations")
    _check_low_pass(H, Hp)
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
        if not (_single_piece_integer(h) and _single_piece_integer(hp)):
            return EquivalenceVerdict(
                UNKNOWN,
                diagnostics={"note": "no multiplier search: scalar filters are searched "
                             "only with one piece and integer frequencies"},
            )
    elif H.m == MultiplicityFunction.constant(H.m.max_value()):
        degree = 0
    else:
        return EquivalenceVerdict(
            UNKNOWN,
            diagnostics={"note": "no multiplier search: matrix filters are searched "
                         "only over a constant multiplicity"},
        )
    witness = coboundary_solve(H, Hp, degree, tol)
    if witness is not None:
        return EquivalenceVerdict(EQUIVALENT, witness=witness)
    return EquivalenceVerdict(
        UNKNOWN,
        obstruction=Obstruction(NO_SOLUTION_UP_TO_DEGREE, {"degree": degree}),
        searched_degree=degree,
        diagnostics={"note": "no trig-poly multiplier up to the degree bound"},
    )
