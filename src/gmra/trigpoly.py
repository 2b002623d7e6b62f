"""Piecewise trigonometric polynomials on the circle.

Values are finite sums  sum_j c_j * e^(2*pi*i*nu_j*w)  on each piece of a
rational-breakpoint partition.  Frequencies are rationals (not just
integers): substituting a dilation branch z = (w + k)/N divides every
frequency by N, so rational frequencies make the class closed under the
preimage fold that drives all filter identities.  Breakpoints and
frequencies are exact, integer numerators over two reduced denominators
(``Fraction`` only at the boundary); coefficients are complex floats.
Zero operands give the zero poly, or drop out of sums, before any
alignment, so callers never test ``is_zero()`` to save work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul, sub, truediv

import numpy as np

from .torus import (
    GRID_BLOCK, TorusEndomorphism, TorusSet, _grid_points, cell_at, coalesce, grid_cells, mod1,
    overlay,
)

_QUARTER_TURNS = (complex(1.0), 1j, complex(-1.0), -1j)
_QUARTER_PHASES = np.array(_QUARTER_TURNS)


def _turn(num: int, den: int) -> complex:
    """e^(2*pi*i*num/den) for integers num and den > 0, exact at quarter turns.

    The turn is reduced in integers and int/int division rounds correctly, so
    every num/den of one rational gives the same bits.
    """
    r = num % den
    quarters = 4 * r
    if quarters % den == 0:
        return _QUARTER_TURNS[quarters // den]
    t = math.tau * (r / den)
    return complex(math.cos(t), math.sin(t))


def unit_phase(q) -> complex:
    """e^(2*pi*i*q) for rational q, exact at quarter turns."""
    q = Fraction(q)
    return _turn(q.numerator, q.denominator)


def _terms_value(terms, fden: int, a: int, b: int) -> complex:
    """sum c * e^(2*pi*i*(n/fden)*(a/b)) over the (n, c) terms, at the rational a/b."""
    return sum((c * _turn(n * a, fden * b) for n, c in terms), 0j)


def _lowest(n: int, d: int) -> tuple[int, int]:
    """The frequency n/d as (a, b) in lowest terms."""
    g = math.gcd(n, d)
    return n // g, d // g


def _turns(num: np.ndarray, period: np.ndarray) -> np.ndarray:
    """``_turn(num, period)`` over broadcast integer arrays, bit for bit.

    In int64 with every period below 2^53, r = num mod period and its float are exact, so
    r/period is the correctly rounded quotient ``_turn`` forms, and quarter turns come out
    exactly 1, i, -1, -i.  Object arrays of Python ints, or periods past 2^53, go through
    ``_turn`` one element at a time.  Callers check their ranges in Python ints before
    forming int64 products.
    """
    if num.dtype != np.int64 or period.dtype != np.int64 or period.max(initial=1) >= 2**53:
        shape = np.broadcast_shapes(num.shape, period.shape)
        turns = [_turn(int(n), int(d)) for n, d in np.broadcast(num, period)]
        return np.array(turns, dtype=complex).reshape(shape)
    r = num % period
    turn = r / period
    turn *= math.tau
    out = np.empty(r.shape, dtype=complex)
    np.cos(turn, out=out.real)
    np.sin(turn, out=out.imag)
    quarters, rest = np.divmod(4 * r, period)
    exact = rest == 0
    out[exact] = _QUARTER_PHASES[quarters[exact]]
    return out


def _grid_phase(a: np.ndarray, b: np.ndarray, ps: np.ndarray, den: int) -> np.ndarray:
    """e^(2*pi*i*(a/b)*p/den) at integers p, with the values of ``_turn``: ``a`` and ``b`` are
    arrays of reduced frequency numerators and denominators (int64, or object past it),
    broadcast against ``ps``.

    The turn is r/(b*den), r = (a*p) mod (b*den), taken by ``_turns``: in int64 where
    a*p and b*den stay below 2^62 and 2^53, on Python ints otherwise.
    """
    fits = a.dtype == b.dtype == np.int64
    if fits:
        top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
        fits = top * den < 2**62 and int(b.max(initial=1)) * den < 2**53
    if not fits:
        a, b, ps = a.astype(object), b.astype(object), ps.astype(object)
    return _turns(a * ps, b * den)


def _phase_table(a: np.ndarray, b: np.ndarray, den: int, evaluations: int):
    """(turns, start, period, residue) for the phases of the terms (a, b) at points p/den,
    or None where ``_grid_phase`` should take them one by one.

    Each distinct period P = b*den gets one table ``_turns(arange(P), P)`` of its P roots of
    unity, laid in ``turns`` from its ``start``; the phase at p is entry
    (residue * p) mod P of it, residue = a mod P.  ``_turns`` depends only on
    (num mod P, P), so the bits are those of ``_grid_phase``.  The tables are built when
    the periods' total is below ``evaluations``, the term-point phases of the call (at
    one term per point a table costs the same ``_turns`` plus a gather), and every period
    is below 2^31, so that residue * p stays in int64 for 0 <= p < den.
    """
    bs = sorted(set(b.ravel().tolist()))
    periods = [x * den for x in bs]
    if sum(periods) >= evaluations or periods[-1] >= 2**31:
        return None
    turns = np.concatenate([_turns(np.arange(P), np.array(P)) for P in periods])
    starts = np.cumsum([0] + periods[:-1])
    b = b.astype(np.int64)
    period = b * den
    return turns, starts[np.searchsorted(bs, b)], period, (a % period).astype(np.int64)


def _terms_values(rows, where: np.ndarray, ps: np.ndarray, q: int) -> np.ndarray:
    """``_terms_value(terms, fden, p, q)`` at every point p/q, 0 <= p < q, of ``ps``, (fden,
    terms) being ``rows[w]`` for the point's entry w of ``where``, in one pass and bit for
    bit.

    Each frequency n/fden is reduced to a/b once, in the table of the rows' terms padded
    with zero terms to one width.  The phases of a block of ``GRID_BLOCK`` points are
    gathered from ``_phase_table``'s roots of unity, or taken by ``_grid_phase`` where
    those tables would be larger than the call.  Each
    term adds c.re*cos - c.im*sin to the real part and c.re*sin + c.im*cos to the
    imaginary one, the rounding of Python's complex product: numpy's complex ``*`` may
    fuse a multiply-add and round apart.
    """
    out = np.zeros(len(ps), dtype=complex)
    width = max((len(terms) for _, terms in rows), default=0)
    if not width:
        return out
    pad = [(0, 1, 0j)] * width
    table = [[(*_lowest(n, d), c) for n, c in terms] + pad[len(terms):] for d, terms in rows]
    a = np.array([[x for x, _, _ in row] for row in table]).T  # int64, or object past it
    b = np.array([[y for _, y, _ in row] for row in table]).T
    cs = np.array([[c for _, _, c in row] for row in table], dtype=complex).T
    roots = _phase_table(a, b, q, width * len(ps))
    if roots is not None:
        turns, start, period, residue = roots
        ps = ps.astype(np.int64)
    for begin in range(0, len(ps), GRID_BLOCK):
        block = slice(begin, begin + GRID_BLOCK)
        at = where[block] if len(table) > 1 else [0]  # one row broadcasts over the block
        if roots is None:
            phases = _grid_phase(a[:, at], b[:, at], ps[block], q)
        else:
            r = residue[:, at] * ps[block]
            r %= period[:, at]
            r += start[:, at]
            phases = turns[r]
        re, im = np.zeros(phases.shape[1]), np.zeros(phases.shape[1])
        for phase, c in zip(phases, cs[:, at]):
            cos, sin, c_re, c_im = phase.real, phase.imag, c.real, c.imag
            re += c_re * cos - c_im * sin
            im += c_re * sin + c_im * cos
        out.real[block], out.imag[block] = re, im
    return out


# (n, c): the term c * e^(2*pi*i*(n/fden)*w) of a poly with frequency denominator fden
Terms = tuple[tuple[int, complex], ...]


def _merge_terms(pairs) -> Terms:
    """Canonical terms of (n, c) pairs: equal frequencies added in input order, exact
    zeros dropped, sorted by frequency."""
    acc: dict[int, complex] = {}
    for n, c in pairs:
        acc[n] = acc[n] + c if n in acc else c
    return tuple(sorted(term for term in acc.items() if term[1] != 0))


def _product(ta: Terms, tb: Terms) -> Terms:
    """``_merge_terms`` of the pairs (na + nb, ca * cb), taken in (a, b) order."""
    acc: dict[int, complex] = {}
    for na, ca in ta:
        for nb, cb in tb:
            n = na + nb
            acc[n] = acc[n] + ca * cb if n in acc else ca * cb
    terms = sorted(acc.items())
    return tuple(terms) if 0 not in acc.values() else tuple([t for t in terms if t[1] != 0])


def _sum_terms(payloads) -> Terms:
    """The sum of a sequence of canonical term tuples, bit for bit that of repeated ``+``.

    The tuples are added left to right, and a frequency that cancels to an exact 0 is
    dropped at once: no tuple holds a frequency twice, so the next one to reach it
    starts it afresh, as after a merge of each tuple in turn.
    """
    if len(payloads) == 1:
        return payloads[0]
    acc: dict[int, complex] = {}
    for t in payloads:
        for n, c in t:
            if n in acc:
                c = acc[n] + c
                if not c:
                    del acc[n]
                    continue
            acc[n] = c
    return tuple(sorted(acc.items()))


def _scaled(terms: Terms, c: complex) -> Terms:
    """Each coefficient times c, exact zeros dropped; the frequencies keep their order."""
    out = []
    for n, co in terms:
        co *= c
        if co:
            out.append((n, co))
    return tuple(out)


def _over(x: Fraction, den: int) -> int:
    """The numerator of x over den, a multiple of its denominator."""
    return x.numerator * (den // x.denominator)


def _rescaled(cells, a: int, b: int):
    """The nonzero (lo, hi, terms) cells with lo and hi times a and each frequency times b."""
    return (
        (lo * a, hi * a, terms if b == 1 else tuple((n * b, c) for n, c in terms))
        for lo, hi, terms in cells if terms
    )


def _nonzero_cells(p: "TrigPoly", den: int, fden: int):
    """The nonzero cells of p over den, frequencies over fden: multiples of p's own."""
    return _rescaled(p.cells, den // p.den, fden // p.fden)


def _aligned(polys, gate: TorusSet | None = None):
    """(den, fden, cells): the polys' (and gate's) common denominators, their cells over them."""
    den = math.lcm(gate.den if gate is not None else 1, *[p.den for p in polys])
    fden = math.lcm(*[p.fden for p in polys])
    return den, fden, [_nonzero_cells(p, den, fden) for p in polys]


def _sup_bound(tiles) -> float:
    """The largest sum of |c| over the terms of a tile, each added in frequency order from
    the int 0 (so 0 when every tile is empty); NaN if any is, so ``<= tol`` fails."""
    bounds = [sum(abs(c) for _, c in terms) for terms in tiles]
    return math.nan if any(b != b for b in bounds) else max(bounds, default=0.0)


_GATE = object()  # overlay payload of a gate interval
_MINUS_ONE = complex(-1)
_TWO_PI_I = 2j * math.pi


def _tiled(den: int, fden: int, cells) -> "TrigPoly":
    """The poly of (lo, terms) cells tiling [0, den) in ascending order: equal neighbours
    merged by ``coalesce``, then den and fden reduced by the gcds of the cut points and
    frequency numerators that remain."""
    los, tiles = coalesce(cells)
    g = math.gcd(den, *los)
    h = math.gcd(fden, *[n for t in tiles for n, _ in t]) if fden > 1 else 1
    if g > 1 or h > 1:
        den, fden, los = den // g, fden // h, [lo // g for lo in los]
        tiles = [tuple((n // h, c) for n, c in t) for t in tiles] if h > 1 else tiles
    return TrigPoly(den, fden, tuple(zip(los, los[1:] + [den], tiles)))


def _swept(den: int, fden: int, pieces, combine, gate: TorusSet | None = None) -> "TrigPoly":
    """The poly carrying combine(payloads) on each cell of ``overlay(pieces, den)``; the
    gate's spans (over den, a multiple of its own) join the overlay first, and cells
    outside them carry ().  Without pieces, or with an empty gate, it is 0 unswept."""
    pieces = list(pieces)
    if not pieces or gate is not None and not gate.spans:
        return TrigPoly.zero()
    if gate is None:
        cells = ((lo, combine(ps)) for lo, _, ps in overlay(pieces, den))
    else:
        marks = [(lo, hi, _GATE) for lo, hi in gate.over(den)]
        cells = (
            (lo, combine(ps[1:]) if ps and ps[0] is _GATE else ())
            for lo, _, ps in overlay(marks + pieces, den)
        )
    return _tiled(den, fden, cells)


def _on_set(ts: TorusSet, fden: int, terms: Terms) -> "TrigPoly":
    """The poly carrying canonical ``terms`` (frequencies over a reduced ``fden``) on ts and
    0 off it: one cell per span of ts, () on the gaps.  It is the gated sweep's result,
    since a canonical ts leaves no cut point to reduce and no equal neighbours to merge."""
    if not terms or not ts.spans:
        return TrigPoly.zero()
    cells, cursor = [], 0
    for lo, hi in ts.spans:
        if cursor < lo:
            cells.append((cursor, lo, ()))
        cells.append((lo, hi, terms))
        cursor = hi
    if cursor < ts.den:
        cells.append((cursor, ts.den, ()))
    return TrigPoly(ts.den, fden, tuple(cells))


@dataclass(frozen=True)
class TrigPoly:
    """A piecewise trig polynomial in canonical form.

    ``cells`` (lo, hi, terms) tile [0, den): the pieces [lo/den, hi/den), a
    term (n, c) of frequency n/fden.  Per cell, terms are sorted by frequency
    with exact zeros dropped, adjacent cells with identical terms are merged,
    and den and fden are reduced, so ``==`` and ``hash`` are structural.
    """

    den: int
    fden: int
    cells: tuple[tuple[int, int, Terms], ...]

    @property
    def pieces(self) -> tuple:
        """The cells as (lo, hi, terms) with Fraction breakpoints and frequencies."""
        den, fden = self.den, self.fden
        return tuple(
            (Fraction(lo, den), Fraction(hi, den), tuple((Fraction(n, fden), c) for n, c in terms))
            for lo, hi, terms in self.cells
        )

    @staticmethod
    def from_pieces(raw) -> "TrigPoly":
        """Build from (lo, hi, terms) with lo/hi in [0, 1], terms (nu, c); gaps filled with 0."""
        cleaned = []
        for lo, hi, terms in raw:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo < hi:
                if lo < 0 or hi > 1:
                    raise ValueError("pieces must lie in [0, 1]")
                cleaned.append((lo, hi, [(Fraction(nu), complex(c)) for nu, c in terms]))
        den = math.lcm(*(x.denominator for lo, hi, _ in cleaned for x in (lo, hi)))
        fden = math.lcm(*(nu.denominator for _, _, terms in cleaned for nu, _ in terms))
        return TrigPoly.from_spans(den, fden, (
            (_over(lo, den), _over(hi, den), [(_over(nu, fden), c) for nu, c in t])
            for lo, hi, t in cleaned
        ))

    @staticmethod
    def from_spans(den: int, fden: int, pieces) -> "TrigPoly":
        """Build from int (lo, hi, terms) with 0 <= lo <= hi <= den, terms (n, c) of frequency
        n/fden and complex c; gaps filled with 0.

        The nonempty spans, sorted, are laid straight into cells with () on the gaps, and
        ``_tiled`` merges equal neighbours; spans that overlap raise ``ValueError``.
        """
        cells, cursor = [], 0
        for lo, hi, terms in sorted((x for x in pieces if x[0] < x[1]), key=itemgetter(0)):
            if lo < cursor:
                raise ValueError("pieces overlap")
            if cursor < lo:
                cells.append((cursor, ()))
            cells.append((lo, _merge_terms(terms)))
            cursor = hi
        if cursor < den:
            cells.append((cursor, ()))
        return _tiled(den, fden, cells)

    @staticmethod
    def sum(polys) -> "TrigPoly":
        """The sum of ``polys`` in one sweep, with the coefficients of repeated ``+``."""
        return gated_sum(polys)

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly(1, 1, ((0, 1, ()),))

    @staticmethod
    def constant(c) -> "TrigPoly":
        return TrigPoly.exponential(0, c)

    @staticmethod
    def exponential(freq, coef=1.0) -> "TrigPoly":
        """coef * e^(2*pi*i*freq*w) on the whole circle."""
        return TrigPoly.from_pieces([(0, 1, [(freq, coef)])])

    @staticmethod
    def indicator(ts: TorusSet, coef=1.0) -> "TrigPoly":
        return TrigPoly.constant(coef).restrict(ts)

    # ---- algebra ---------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly.sum((self, other))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        """self + other * -1 in one sweep, with the coefficients of that chain."""
        if self.is_zero() and other.is_zero():
            return TrigPoly.zero()
        den, fden, (mine, theirs) = _aligned((self, other))
        negated = ((lo, hi, _scaled(t, _MINUS_ONE)) for lo, hi, t in theirs)
        return _swept(den, fden, chain(mine, negated), _sum_terms)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            if self.is_zero() or other.is_zero():
                return TrigPoly.zero()
            den, fden, cells = _aligned((self, other))
            return _swept(den, fden, chain(*cells),
                          lambda ts: _product(*ts) if len(ts) == 2 else ())
        c = complex(other)
        return self._map_terms(lambda terms: _scaled(terms, c))

    __rmul__ = __mul__

    def conj(self) -> "TrigPoly":
        return self._map_terms(lambda ts: tuple((-n, c.conjugate()) for n, c in reversed(ts)))

    def _map_terms(self, terms_map, fden: int | None = None) -> "TrigPoly":
        """The poly whose cells carry terms_map(terms), frequencies over ``fden`` (default
        this poly's): a map keeping frequencies distinct and in order, so no re-merge."""
        return _tiled(self.den, fden or self.fden, ((lo, terms_map(t)) for lo, _, t in self.cells))

    def restrict(self, ts: TorusSet) -> "TrigPoly":
        """Zero the function outside ts (exact piece surgery); a poly of one cell is laid
        straight onto ts by ``_on_set``, without a sweep."""
        if len(self.cells) == 1:
            return _on_set(ts, self.fden, self.cells[0][2])
        return gated_sum((self,), ts)

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, x) -> complex:
        """Exact-point evaluation (half-open rule at breakpoints)."""
        x = mod1(x)
        return self._value(x.numerator, x.denominator)

    def _value(self, p: int, q: int) -> complex:
        """The value at the point p/q, 0 <= p < q: its cell by ``cell_at``, exact phases."""
        return _terms_value(self.cells[cell_at(self.cells, self.den, p, q)][2], self.fden, p, q)

    def sample(self, xs: np.ndarray, den: int | None = None) -> np.ndarray:
        """Vectorized evaluation at many points, in blocks of ``GRID_BLOCK`` so temporaries
        stay small at any size.

        With ``den``, ``xs`` is an array of integers p (``_grid_points`` refuses any other
        kind) and the points are exactly p/den: ``grid_cells`` locates them and
        ``_terms_values`` evaluates them, so the values are those of ``evaluate`` bit for
        bit.  Without ``den``, ``xs`` are real points of any shape, reduced mod 1, located
        by ``searchsorted`` over lo/den (a point that ``% 1.0`` rounds up to 1.0 falls in
        the last cell) and evaluated with ``np.exp``.
        """
        shape = np.shape(xs)  # the points are flattened, the values reshaped
        if den is not None:
            ps = _grid_points(xs, den).ravel()
            rows = [(self.fden, terms) for _, _, terms in self.cells]
            where = grid_cells(self.cells, self.den, ps, den)
            return _terms_values(rows, where, ps, den).reshape(shape)
        xs = np.asarray(xs, dtype=float).ravel() % 1.0
        where = np.searchsorted([lo / self.den for lo, _, _ in self.cells], xs, "right") - 1
        out = np.zeros(len(xs), dtype=complex)
        for start in range(0, len(xs), GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            for index, (_, _, terms) in enumerate(self.cells):
                here = where[block] == index
                if not terms or not here.any():
                    continue
                at = xs[block][here]
                acc = np.zeros(at.shape, dtype=complex)
                for n, c in terms:
                    acc += c * np.exp(_TWO_PI_I * (n / self.fden) * at)
                out[block][here] = acc
        return out.reshape(shape)

    # ---- structure -------------------------------------------------------

    def support(self) -> TorusSet:
        """Union of pieces carrying a nonzero polynomial.

        A nonzero trig polynomial vanishes only on a null set, so this is
        the a.e. support.
        """
        return TorusSet.from_spans(self.den, ((lo, hi) for lo, hi, terms in self.cells if terms))

    def is_zero(self) -> bool:
        return all(not terms for _, _, terms in self.cells)

    def sup_bound(self) -> float:
        """Max over pieces of sum |coef|, a sup-norm bound; NaN if any is, so ``<= tol`` fails."""
        return _sup_bound(terms for _, _, terms in self.cells)

    def deviation_from(self, other: "TrigPoly") -> float:
        return (self - other).sup_bound()

    def constant_value(self, tol: float):
        """The constant this function equals everywhere, or None."""
        dev = 0.0
        value = None
        for _, _, terms in self.cells:
            c0 = 0j
            for n, c in terms:
                if n == 0:
                    c0 = c
                else:
                    dev += abs(c)
            if value is None:
                value = c0
            else:
                dev += abs(c0 - value)
        if value is not None and dev <= tol:
            return value
        return None

    def frequencies(self) -> set[Fraction]:
        return {Fraction(n, self.fden) for _, _, terms in self.cells for n, _ in terms}

    def shift_frequencies(self, gamma) -> "TrigPoly":
        """Multiply by e^(2*pi*i*gamma*w): shift every frequency by gamma."""
        if self.is_zero():
            return TrigPoly.zero()
        if not isinstance(gamma, int):
            gamma = Fraction(gamma)
        fden = math.lcm(self.fden, gamma.denominator)
        scale, shift = fden // self.fden, gamma.numerator * (fden // gamma.denominator)
        return self._map_terms(lambda terms: tuple((n * scale + shift, c) for n, c in terms), fden)

    def __str__(self) -> str:
        def fmt_terms(terms):
            if not terms:
                return "0"
            return " + ".join(f"({c:.4g})e[{nu}]" for nu, c in terms)

        return "; ".join(
            f"[{lo},{hi}): {fmt_terms(terms)}" for lo, hi, terms in self.pieces
        )


# ---- one-sweep sums and branch maps: a scale or gate of None is no scale or gate


def gated_sum(polys, gate: TorusSet | None = None, scale=None) -> TrigPoly:
    """(TrigPoly.sum(polys) * scale).restrict(gate) in one sweep, with its coefficients."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return TrigPoly.zero()
    c = None if scale is None else complex(scale)
    combine = _sum_terms if c is None else lambda payloads: _scaled(_sum_terms(payloads), c)
    den, fden, cells = _aligned(polys, gate)
    return _swept(den, fden, chain(*cells), combine, gate)


def _branch_terms(terms: Terms, factor: int, k: int, period: int, scale, turns: dict) -> Terms:
    """(n * factor, c * e^(2*pi*i*n*k/period) * scale) per term (n, c), exact zeros dropped:
    the one phase-and-drop step of the branch maps, each phase cached in ``turns`` by n*k
    (a cache serves one period).

    Substituting z = (w + k)/N on branch k keeps the numerators over N times
    the frequency denominator: factor 1, period N*fden; the inverse
    g(N*w - k) is factor N, period fden and -k.  factor > 0 keeps the order.
    """
    out = []
    for n, c in terms:
        nk = n * k
        turn = turns.get(nk)
        if turn is None:
            turn = turns[nk] = _turn(nk, period)
        c *= turn
        if scale is not None:
            c *= scale
        if c:
            out.append((n * factor, c))
    return tuple(out)


def gated_compress(parts, e: TorusEndomorphism, gate=None, scale=None) -> TrigPoly:
    """The sum over (g, k) in ``parts`` of g(N*w - k) * scale on branch [k/N, (k+1)/N),
    restricted to gate, in one sweep: each piece is scaled before the cells add in
    ``parts`` order."""
    parts = list(parts)
    if all(g.is_zero() for g, _ in parts):
        return TrigPoly.zero()
    c = None if scale is None else complex(scale)
    up, fden, _ = _aligned([g for g, _ in parts])
    den = math.lcm(up * e.N, _aligned((), gate)[0])  # the gate's denominators join N*up
    up = den // e.N  # the preimages of cells over up are numerators over den
    turns: dict[int, complex] = {}  # one period, fden, for every part's phases
    pieces = (
        (a, b, _branch_terms(t, e.N, -k, fden, c, turns))
        for g, k in parts for a, b, t in e.branch_preimages(_nonzero_cells(g, up, fden), k, up)
    )
    return _swept(den, fden, pieces, _sum_terms, gate)


def compose_endomorphism(f: TrigPoly, e: TorusEndomorphism) -> TrigPoly:
    """f(N*w mod 1) as a trig poly: ``gated_compress`` of f over all N branches."""
    return gated_compress([(f, k) for k in range(e.N)], e)


# ---- the fold sweep: a job is (pairs, ts), the (f, g) pairs it sums and a set ts or None


def _pair_fold(N: int, f: TrigPoly, g: TrigPoly):
    """(den, period, cells): w -> sum_{N*z = w (mod 1)} f(z) * conj(g(z)) as (lo, hi, terms)
    cells tiling [0, den), den = lcm(f.den, g.den) and frequencies over period = N * fden,
    fden = lcm(f.fden, g.fden), on the pair's own refinement, with the bits of the chain
    of ``*`` and a branch sweep.

    The cells of f and g are walked side by side, and each cell where both are nonzero
    carries their product, merged once by ``_product`` with conj(g)'s terms in ascending
    frequency.  Its parts on the branches [k*den/N, (k+1)*den/N) land on [0, den) at
    N*z - k, each product term (n, c) becoming c * e^(2*pi*i*n*k/period) by
    ``_branch_terms`` (on branch 0 too, phases cached per pair), and on each cell of
    [0, den) the branches add in ascending k by ``_sum_terms``.
    A product, and a sum, that ``==`` its left neighbour takes that neighbour's terms:
    ``==`` takes -0.0 for 0.0, and ``coalesce`` merged such cells of the chain's polys.
    """
    den, fden = math.lcm(f.den, g.den), math.lcm(f.fden, g.fden)
    period, cuts, images = fden * N, {0, den}, []
    fa, ga = den // f.den, den // g.den
    fb, gb = fden // f.fden, fden // g.fden
    mine = [(hi * fa, t if fb == 1 else tuple([(n * fb, c) for n, c in t]))
            for _, hi, t in f.cells]
    theirs = [(hi * ga, tuple([(-n * gb, c.conjugate()) for n, c in reversed(t)]))
              for _, hi, t in g.cells]
    phases: dict[int, complex] = {}
    i = j = lo = 0
    last = ()
    while lo < den:
        (f_hi, ta), (g_hi, tb) = mine[i], theirs[j]
        hi = f_hi if f_hi < g_hi else g_hi
        product = _product(ta, tb) if ta and tb else ()
        if product == last:
            product = last
        last = product
        if product:
            z_lo, z_hi = lo * N, hi * N
            for k in range(z_lo // den, -(-z_hi // den)):
                a, b = z_lo - k * den, z_hi - k * den
                a, b = a if a > 0 else 0, b if b < den else den
                cuts.add(a)
                cuts.add(b)
                images.append((a, b, _branch_terms(product, 1, k, period, None, phases)))
        lo = hi
        i += f_hi == hi
        j += g_hi == hi
    points = sorted(cuts)
    index = {x: n for n, x in enumerate(points)}
    covers = [[] for _ in points[1:]]
    for a, b, terms in images:
        for n in range(index[a], index[b]):
            covers[n].append(terms)
    cells, last = [], None
    for lo, hi, cover in zip(points, points[1:], covers):
        terms = _sum_terms(cover)
        if terms == last:
            terms = last
        last = terms
        cells.append((lo, hi, terms))
    return den, period, cells


def fold_sweep(N: int, jobs):
    """For each job (pairs, ts): (den, fden, cells), cells (lo, inside, terms) tiling
    [0, den) in ascending order, terms being sum_j fold(f_j, g_j) over the job's (f_j, g_j)
    pairs and inside whether the cell lies in ts (always, for ts None).

    Each distinct pair (by identity) is folded once by ``_pair_fold``, on its own
    refinement, and a pair with a zero side not at all.  Only the sum over the pairs runs
    on the union of the job's refinements and the cuts of ts, adding the folds in pair
    order by ``_sum_terms``, so every coefficient is that of the chain of ``*``, the
    branch sweep and ``TrigPoly.sum`` bit for bit.
    """
    folds, out = {}, []
    for pairs, ts in jobs:
        parts = []
        for f, g in pairs:
            if f.is_zero() or g.is_zero():
                continue
            key = (id(f), id(g))
            if key not in folds:
                folds[key] = _pair_fold(N, f, g)
            parts.append(folds[key])
        den = math.lcm(ts.den if ts is not None else 1, *[d for d, _, _ in parts])
        fden = math.lcm(*[p for _, p, _ in parts])
        marks = [(lo, hi, _GATE) for lo, hi in ts.over(den)] if ts is not None else []
        if not marks and len(parts) == 1:  # one fold and no cut to add: its own cells
            cells = [(lo, ts is None, t) for lo, _, t in parts[0][2]]
        else:
            pieces = (piece for d, p, cs in parts for piece in _rescaled(cs, den // d, fden // p))
            cells = []
            for lo, _, tiles in overlay(chain(marks, pieces), den):
                marked = bool(tiles) and tiles[0] is _GATE
                cells.append((lo, ts is None or marked, _sum_terms(tiles[marked:])))
        out.append((den, fden, cells))
    return out


def gated_folds(N: int, jobs, scale=None) -> list[TrigPoly]:
    """(sum_j fold(f_j, g_j) * scale).restrict(gate) for each job (pairs, gate) of
    ``fold_sweep``, with the coefficients of that chain: the sum is scaled, exact zeros
    dropped, on each cell inside the gate."""
    c = None if scale is None else complex(scale)
    return [
        _tiled(den, fden, ((lo, (t if c is None else _scaled(t, c)) if inside else ())
                           for lo, inside, t in cells))
        for den, fden, cells in fold_sweep(N, jobs)
    ]


def fold_residuals(N: int, jobs) -> list[float]:
    """The sup bound of sum_j fold(f_j, g_j) - N * chi_ts for each job (pairs, ts) of
    ``fold_sweep``, read off its cells, bit for bit that of the chain through
    ``TrigPoly.sum``, ``-`` and ``sup_bound``: on ts the target's term (0, -N) is added
    last by ``_sum_terms``.  A ts of None is no target."""
    target = _scaled(((0, complex(float(N))),), _MINUS_ONE)
    jobs = [(pairs, TorusSet() if ts is None else ts) for pairs, ts in jobs]
    return [
        _sup_bound(_sum_terms((t, target)) if inside else t for _, inside, t in cells)
        for _, _, cells in fold_sweep(N, jobs)
    ]


def fold(e: TorusEndomorphism, f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Preimage transfer sum  w -> sum_{N*z = w (mod 1)} f(z) * conj(g(z)).

    This is the left side of every filter identity.  The result is exact in
    the class: each branch contributes frequencies nu/N and pieces rescaled
    by N.  It is the one-pair job of ``fold_sweep``: on each cell the
    branches add in the order k = 0 .. N-1.
    """
    return gated_folds(e.N, [([(f, g)], None)])[0]


# ---- integration ---------------------------------------------------------


INNER_BLOCK = 2**11  # pair slots per block of ``_cells_inner``
_NEG_ZERO = complex(-0.0, -0.0)  # x + (-0.0) is x bit for bit, so it pads a sum


def _cells_inner(cells) -> list[complex]:
    """int ta * conj(tb) over each cell (lo, hi, den, fden, ta, tb), the piece
    [lo/den, hi/den) carrying two term tuples with frequencies over fden, in one array pass.

    A pair of terms (n1, c) of ta and (n2, d) of tb adds c conj(d) (hi - lo)/den when
    lam = n1 - n2 is 0, and otherwise c conj(d) (e(n1 hi) conj(e(n2 hi)) - e(n1 lo)
    conj(e(n2 lo))) / (2 pi i lam/fden), with e(n t) = e^(2*pi*i*n*t/(fden*den)) and lam
    formed in integers, so the zero test is exact.  Each cell's pairs add in (j, k) order
    from 0j, and every pair runs the float operations of Python's complex arithmetic on
    that formula, so each value is that of a pair loop bit for bit: products and
    quotients are written out in real ufuncs (numpy's complex ``*`` may fuse a
    multiply-add), and ``np.cumsum``, which adds in sequence, sums each cell.

    Each term's phases come from one ``_turns`` call, shared by both sides when tb is
    ta.  Cells go largest first into blocks of at most ``INNER_BLOCK`` pair slots, one
    row per cell padded with -0.0 to the block's width; a cell wider than a block spans
    several, each starting from the last one's sum.  The integers are int64 when every
    product stays below 2^62 and every quotient is of exact floats, Python ints on
    object arrays otherwise.
    """
    if not cells:
        return []
    count = len(cells)
    sides, owner, right = [], [], []  # the term tuples of the table: each ta, then tb
    for i, (_, _, _, _, ta, tb) in enumerate(cells):
        sides.append(ta)
        if tb is not ta:
            right.append(count + len(owner))
            owner.append(i)
        else:
            right.append(i)
    sides += [cells[i][5] for i in owner]
    lens = list(map(len, sides))
    terms = list(chain.from_iterable(sides))
    ns = [n for n, _ in terms]
    los, his, dens, fdens = zip(*[cell[:4] for cell in cells])
    periods = list(map(mul, fdens, dens))
    top = max(map(abs, ns), default=0)
    small = top < 2**52 and max(periods) < 2**53 and top * max(his) < 2**62
    ints = np.int64 if small else object
    entry_cell = np.repeat(list(range(count)) + owner, lens)
    lo, hi, period, fden = np.array((los, his, periods, fdens), dtype=ints)[:, entry_cell]
    n = np.array(ns, dtype=ints)
    phases = _turns(n * np.array((lo, hi)), period)  # e(n lo), e(n hi) per term
    c = np.array([c for _, c in terms], dtype=complex)
    # per term, a column: re and im of c, e(n lo), e(n hi), then the width of its cell
    table = np.concatenate(([c.real], phases.real, [c.imag], phases.imag,
                            [np.array(list(map(truediv, map(sub, his, los), dens)))[entry_cell]]))
    n_fden = np.array((n, fden))
    lens = np.array(lens)
    first = np.cumsum(lens) - lens
    rows_a, rows_b, first_a, first_b = lens[:count], lens[right], first[:count], first[right]
    sizes = (rows_a * rows_b).tolist()  # the pairs of each cell

    def block(rows: np.ndarray, offset: int, width: int, start: complex) -> np.ndarray:
        """The sums from ``start`` over pair slots offset .. offset + width - 1 of the
        cells ``rows``, each of which has a pair in slot ``offset``."""
        j, k = np.divmod(np.arange(offset, offset + width), rows_b[rows, None])
        live = j < rows_a[rows, None]  # slot j * rows_b + k holds the cell's pair (j, k)
        li, ri = (first_a[rows, None] + j)[live], (first_b[rows, None] + k)[live]
        # np.take keeps each gathered row contiguous, as ``[:, li]`` does not
        a, b = np.take(table, li, axis=1), np.take(table[:6], ri, axis=1)
        (n1, fden_), n2 = np.take(n_fden, li, axis=1), n[ri]
        # x * conj(y) rounds as x.re*y.re + x.im*y.im and x.im*y.re - x.re*y.im, since
        # negation is exact: c conj(d) and the phase products at lo and hi
        p_re = a[:3] * b[:3] + a[3:6] * b[3:]
        p_im = a[3:6] * b[:3] - a[:3] * b[3:]
        lam = n1 - n2
        flat = lam == 0
        d_re = np.where(flat, a[6], p_re[2] - p_re[1])  # the delta, or (width, 0.0)
        d_im = np.where(flat, 0.0, p_im[2] - p_im[1])
        w_re, w_im = p_re[0], p_im[0]
        num_re = w_re * d_re - w_im * d_im
        num_im = w_re * d_im + w_im * d_re
        # num / (2 pi i x), x = lam/fden: Python's b = (0 x - tau 0) + (0 0 + tau x)i is
        # (copysign(0, x), tau x), so Smith's quotient takes ratio = b.re/b.im = +0.0 and
        # denominator b.re * ratio + b.im = tau x; x is 1/fden where lam = 0, unused
        denom = np.asarray(np.where(flat, 1, lam) / fden_, dtype=float) * math.tau
        padded = np.full(j.shape, _NEG_ZERO)
        padded.real[live] = np.where(flat, num_re, (num_re * 0.0 + num_im) / denom)
        padded.imag[live] = np.where(flat, num_im, (num_im * 0.0 - num_re) / denom)
        padded[:, 0] += start
        return padded.cumsum(axis=1)[:, -1]

    out = np.zeros(count, dtype=complex)  # a cell without pairs integrates to 0j
    order = sorted(filter(sizes.__getitem__, range(count)), key=sizes.__getitem__,
                   reverse=True)
    i = 0
    while i < len(order):
        size = sizes[order[i]]
        if size > INNER_BLOCK:  # one cell over several blocks
            rows, total = np.array(order[i:i + 1]), 0j
            for offset in range(0, size, INNER_BLOCK):
                total = block(rows, offset, min(INNER_BLOCK, size - offset), total)[0]
            out[rows] = total
            i += 1
        else:
            rows = np.array(order[i:i + INNER_BLOCK // size])
            out[rows] = block(rows, 0, size, 0j)
            i += len(rows)
    return out.tolist()


def _inners(pairs) -> list[complex]:
    """``inner(f, g)`` for each (f, g) of ``pairs``, with one ``_cells_inner`` call: each
    value sums its cells' integrals in cell order from 0j."""
    cells, bounds = [], [0]
    for f, g in pairs:
        if f is g:
            cells += ((lo, hi, f.den, f.fden, t, t) for lo, hi, t in f.cells if t)
        else:
            den, fden, both = _aligned((f, g))
            cells += ((lo, hi, den, fden, *ts) for lo, hi, ts in overlay(chain(*both), den)
                      if len(ts) == 2)
        bounds.append(len(cells))
    values = _cells_inner(cells)
    return [sum(values[a:b], 0j) for a, b in zip(bounds, bounds[1:])]


def inner(f: TrigPoly, g: TrigPoly) -> complex:
    """int f * conj(g) over the circle without forming the product: cell by cell over
    ``overlay`` of the nonzero pieces of f and g, or over f's own pieces when g is f."""
    return _inners([(f, g)])[0]


def integrate(f: TrigPoly) -> complex:
    """Closed-form integral over the circle: the inner product with the constant 1."""
    return inner(f, TrigPoly.constant(1.0))


def norm(f: TrigPoly) -> float:
    return math.sqrt(max(inner(f, f).real, 0.0))
