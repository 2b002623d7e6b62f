"""Piecewise trigonometric polynomials on the circle.

Values are finite sums  sum_j c_j * e^(2*pi*i*nu_j*w)  on each piece of a
rational-breakpoint partition.  Frequencies are rationals (not just
integers): substituting a dilation branch z = (w + k)/N divides every
frequency by N, so rational frequencies make the class closed under the
preimage fold that drives all filter identities.  Breakpoints stay exact;
coefficients are complex floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .torus import (
    GRID_BLOCK, ONE, ZERO, TorusEndomorphism, TorusSet, coalesce, grid_cells, mod1, overlay,
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


def _terms_value(terms, x: Fraction) -> complex:
    """sum c * e^(2*pi*i*nu*x) over the (nu, c) terms, at a rational x."""
    a, b = x.numerator, x.denominator
    return sum((c * _turn(nu.numerator * a, nu.denominator * b) for nu, c in terms), 0j)


def _grid_phase(nu: Fraction, ps: np.ndarray, den: int) -> np.ndarray:
    """e^(2*pi*i*nu*p/den) at integers p, with the values of ``unit_phase``.

    The turn nu*p/den is reduced exactly to r/(b*den), r = (a*p) mod (b*den)
    for nu = a/b, in int64; quarter turns come out exactly 1, i, -1, -i.
    Where int64 could overflow or r/(b*den) would not convert exactly to a
    float, the points go through ``_turn`` one by one.
    """
    a, b = nu.numerator, nu.denominator
    period = b * den
    if abs(a) * den >= 2**62 or period >= 2**53:
        return np.array(
            [_turn(a * int(p), period) for p in ps], dtype=complex
        )
    r = a * ps
    r %= period
    turn = r / period
    turn *= math.tau
    out = np.empty(r.shape, dtype=complex)
    np.cos(turn, out=out.real)
    np.sin(turn, out=out.imag)
    r *= 4
    exact = r % period == 0
    out[exact] = _QUARTER_PHASES[r[exact] // period]
    return out


Terms = tuple[tuple[Fraction, complex], ...]


def _merge_terms(pairs) -> Terms:
    # keyed by (num, den) -- int-tuple hashing is much cheaper than Fraction
    acc: dict[tuple[int, int], list] = {}
    for nu, c in pairs:
        if type(nu) is not Fraction:
            nu = Fraction(nu)
        if type(c) is not complex:
            c = complex(c)
        key = (nu.numerator, nu.denominator)
        slot = acc.get(key)
        if slot is None:
            acc[key] = [nu, c]
        else:
            slot[1] += c
    out = [(nu, c) for nu, c in acc.values() if c != 0]
    out.sort(key=lambda term: term[0])
    return tuple(out)


def _sum_terms(payloads) -> Terms:
    """The sum of canonical term tuples, bit for bit that of repeated ``+``.

    The tuples are merged left to right, and a frequency that cancels to an
    exact 0 is dropped before the next tuple reaches it.
    """
    terms = ()
    for t in payloads:
        terms = _merge_terms(terms + t) if terms else t
    return terms


def _scaled(terms: Terms, c: complex) -> Terms:
    """Each coefficient times c, exact zeros dropped; the frequencies keep their order."""
    out = []
    for nu, co in terms:
        co *= c
        if co:
            out.append((nu, co))
    return tuple(out)


_GATE = object()  # overlay payload of a gate interval
_MINUS_ONE = complex(-1)


def _swept(pieces, combine, gate: TorusSet | None = None) -> "TrigPoly":
    """The poly carrying combine(payloads) on each cell of ``overlay(pieces)``; the
    gate's intervals join the overlay ahead of the pieces, and cells outside it carry ()."""
    if gate is None:
        cells = ((lo, hi, combine(ps)) for lo, hi, ps in overlay(pieces))
    else:
        marked = overlay(chain(((lo, hi, _GATE) for lo, hi in gate.intervals), pieces))
        cells = (
            (lo, hi, combine(ps[1:]) if ps and ps[0] is _GATE else ()) for lo, hi, ps in marked
        )
    return TrigPoly(coalesce(cells))


def _nonzero_pieces(p: "TrigPoly"):
    return ((lo, hi, terms) for lo, hi, terms in p.pieces if terms)


@dataclass(frozen=True)
class TrigPoly:
    """A piecewise trig polynomial in canonical form.

    Pieces tile [0, 1); per piece, terms are sorted by frequency with exact
    zeros dropped, and adjacent pieces with identical terms are merged.
    """

    pieces: tuple[tuple[Fraction, Fraction, Terms], ...]

    @staticmethod
    def from_pieces(raw) -> "TrigPoly":
        """Build from (lo, hi, terms) with lo/hi in [0, 1]; gaps filled with 0."""
        cleaned = []
        for lo, hi, terms in raw:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo < hi:
                if lo < 0 or hi > 1:
                    raise ValueError("pieces must lie in [0, 1]")
                cleaned.append((lo, hi, _merge_terms(terms)))

        def only(payloads):
            if len(payloads) > 1:
                raise ValueError("pieces overlap")
            return payloads[0] if payloads else ()

        return _swept(cleaned, only)

    @staticmethod
    def sum(polys) -> "TrigPoly":
        """The sum of ``polys`` in one sweep, with the coefficients of repeated ``+``."""
        return gated_sum(polys)

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly(((ZERO, ONE, ()),))

    @staticmethod
    def constant(c) -> "TrigPoly":
        return TrigPoly(((ZERO, ONE, _merge_terms([(ZERO, c)])),))

    @staticmethod
    def exponential(freq, coef=1.0) -> "TrigPoly":
        """coef * e^(2*pi*i*freq*w) on the whole circle."""
        return TrigPoly(((ZERO, ONE, _merge_terms([(Fraction(freq), coef)])),))

    @staticmethod
    def indicator(ts: TorusSet, coef=1.0) -> "TrigPoly":
        return TrigPoly.from_pieces(
            (lo, hi, [(ZERO, coef)]) for lo, hi in ts.intervals
        )

    # ---- algebra ---------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly.sum((self, other))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        """self + other * -1 in one sweep, with the coefficients of that chain."""
        negated = ((lo, hi, _scaled(t, _MINUS_ONE)) for lo, hi, t in _nonzero_pieces(other))
        return _swept(chain(_nonzero_pieces(self), negated), _sum_terms)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):

            def product(payloads):
                if len(payloads) < 2:
                    return ()
                ta, tb = payloads
                return _merge_terms((na + nb, ca * cb) for na, ca in ta for nb, cb in tb)

            return _swept(chain(_nonzero_pieces(self), _nonzero_pieces(other)), product)
        c = complex(other)
        return self._map_terms(lambda terms: _scaled(terms, c))

    __rmul__ = __mul__

    def conj(self) -> "TrigPoly":
        return self._map_terms(lambda ts: tuple((-nu, c.conjugate()) for nu, c in reversed(ts)))

    def _map_terms(self, terms_map) -> "TrigPoly":
        """The poly whose pieces carry terms_map(terms): a map keeping frequencies distinct and
        in order, so no re-merge."""
        return TrigPoly(coalesce((lo, hi, terms_map(terms)) for lo, hi, terms in self.pieces))

    def restrict(self, ts: TorusSet) -> "TrigPoly":
        """Zero the function outside ts (exact piece surgery)."""
        return gated_sum((self,), ts)

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, x) -> complex:
        """Exact-point evaluation (half-open rule at breakpoints)."""
        x = mod1(Fraction(x))
        for lo, hi, terms in self.pieces:
            if lo <= x < hi:
                return _terms_value(terms, x)
        raise AssertionError("canonical pieces cover [0,1)")

    def sample(self, xs: np.ndarray, den: int | None = None) -> np.ndarray:
        """Vectorized evaluation at many points.

        With ``den``, ``xs`` is a 1-d array of integers p and the points are
        exactly p/den: pieces are located and phases reduced in integer
        arithmetic (see ``grid_cells`` and ``_grid_phase``), so the values
        are those of ``evaluate`` up to rounding in cos/sin.  Points go
        through in blocks of ``GRID_BLOCK``, so temporaries stay small at
        any grid size.  Without ``den``, ``xs`` are real points (reduced
        mod 1) evaluated in floating point.
        """
        if den is not None:
            ps = np.asarray(xs, dtype=np.int64)
            out = np.empty(ps.shape, dtype=complex)
            for start in range(0, len(ps), GRID_BLOCK):
                out[start : start + GRID_BLOCK] = self._sample_grid(
                    ps[start : start + GRID_BLOCK], den
                )
            return out
        xs = np.asarray(xs, dtype=float) % 1.0
        out = np.zeros(xs.shape, dtype=complex)
        for lo, hi, terms in self.pieces:
            mask = (xs >= float(lo)) & (xs < float(hi))
            if not mask.any():
                continue
            acc = np.zeros(mask.sum(), dtype=complex)
            for nu, c in terms:
                acc += c * np.exp(2j * math.pi * float(nu) * xs[mask])
            out[mask] = acc
        return out

    def _sample_grid(self, ps: np.ndarray, den: int) -> np.ndarray:
        ps = np.mod(ps, den)
        cells = grid_cells([lo for lo, _, _ in self.pieces], ps, den)
        out = np.zeros(ps.shape, dtype=complex)
        for index, (_, _, terms) in enumerate(self.pieces):
            if not terms:
                continue
            here = cells == index
            if not here.any():
                continue
            at = ps[here]
            acc = np.zeros(at.shape, dtype=complex)
            for nu, c in terms:
                phase = _grid_phase(nu, at, den)
                phase *= c
                acc += phase
            out[here] = acc
        return out

    # ---- structure -------------------------------------------------------

    def support(self) -> TorusSet:
        """Union of pieces carrying a nonzero polynomial.

        A nonzero trig polynomial vanishes only on a null set, so this is
        the a.e. support.
        """
        return TorusSet.from_intervals(
            (lo, hi) for lo, hi, terms in self.pieces if terms
        )

    def is_zero(self) -> bool:
        return all(not terms for _, _, terms in self.pieces)

    def sup_bound(self) -> float:
        """Upper bound for the sup norm: max over pieces of sum |coef|."""
        return max(
            (sum(abs(c) for _, c in terms) for _, _, terms in self.pieces),
            default=0.0,
        )

    def deviation_from(self, other: "TrigPoly") -> float:
        return (self - other).sup_bound()

    def constant_value(self, tol: float):
        """The constant this function equals everywhere, or None."""
        dev = 0.0
        value = None
        for _, _, terms in self.pieces:
            c0 = 0j
            for nu, c in terms:
                if nu == 0:
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
        out: set[Fraction] = set()
        for _, _, terms in self.pieces:
            out.update(nu for nu, _ in terms)
        return out

    def shift_frequencies(self, gamma) -> "TrigPoly":
        """Multiply by e^(2*pi*i*gamma*w): shift every frequency by gamma."""
        gamma = Fraction(gamma)
        return self._map_terms(lambda terms: tuple((nu + gamma, c) for nu, c in terms))

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
    c = None if scale is None else complex(scale)
    combine = _sum_terms if c is None else lambda payloads: _scaled(_sum_terms(payloads), c)
    return _swept(chain.from_iterable(map(_nonzero_pieces, polys)), combine, gate)


def _branch_terms(terms: Terms, k: int, den: int, factor, scale) -> Terms:
    """(nu * factor, c * e^(2*pi*i*nu*k/den) * scale) per term (nu, c), exact zeros dropped.

    Substituting z = (w + k)/N on branch k is factor 1/N, den N; the inverse
    g(N*w - k) is factor N, den 1 and -k.  factor > 0 keeps the order.
    """
    out = []
    for nu, c in terms:
        c *= _turn(nu.numerator * k, nu.denominator * den)
        if scale is not None:
            c *= scale
        if c:
            out.append((nu * factor, c))
    return tuple(out)


def _dilated(branches, e: TorusEndomorphism, scale=None):
    """z = (w + k)/N substituted in each branch image (k, a, b, terms) of ``branch_images``."""
    shrink = Fraction(1, e.N)
    return ((a, b, _branch_terms(t, k, e.N, shrink, scale)) for k, a, b, t in branches)


def gated_dilate(p: TrigPoly, e: TorusEndomorphism, k: int, gate=None, scale=None) -> TrigPoly:
    """(dilate_branch(p, e, k) * scale).restrict(gate) in one sweep; splits off branch k only."""
    c = None if scale is None else complex(scale)
    return _swept(_dilated(e.branch_image(_nonzero_pieces(p), k), e, c), _sum_terms, gate)


def dilate_branch(p: TrigPoly, e: TorusEndomorphism, k: int) -> TrigPoly:
    """Substitute z = (w + k)/N: branch k of p stretched across the circle."""
    return gated_dilate(p, e, k)


def gated_compress(parts, e: TorusEndomorphism, gate=None, scale=None) -> TrigPoly:
    """TrigPoly.sum(compress_branch(g, e, k) * scale for g, k in parts).restrict(gate) in one
    sweep: each piece is scaled before the cells add in ``parts`` order."""
    c = None if scale is None else complex(scale)
    pieces = (
        (a, b, _branch_terms(t, -k, 1, e.N, c))
        for g, k in parts for a, b, t in e.branch_preimages(_nonzero_pieces(g), k)
    )
    return _swept(pieces, _sum_terms, gate)


def compress_branch(g: TrigPoly, e: TorusEndomorphism, k: int) -> TrigPoly:
    """Inverse of dilate_branch: g(N*w - k) on branch [k/N, (k+1)/N), 0 elsewhere."""
    return gated_compress(((g, k),), e)


def compose_endomorphism(f: TrigPoly, e: TorusEndomorphism) -> TrigPoly:
    """f(N*w mod 1) as a trig poly: the N branches of compress_branch in one."""
    return gated_compress([(f, k) for k in range(e.N)], e)


def fold(e: TorusEndomorphism, f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Preimage transfer sum  w -> sum_{N*z = w (mod 1)} f(z) * conj(g(z)).

    This is the left side of every filter identity.  The result is exact in
    the class: each branch contributes frequencies nu/N and pieces rescaled
    by N.  All N branch images go through one sweep, and on each cell the
    branches add in the order k = 0 .. N-1.
    """
    return _swept(_dilated(e.branch_images(_nonzero_pieces(f * g.conj())), e), _sum_terms)


# ---- integration ---------------------------------------------------------


def _cell_inner(ta: Terms, tb: Terms, lo: Fraction, hi: Fraction) -> complex:
    """int_lo^hi (sum_j c_j e(nu_j w)) * conj(sum_k d_k e(mu_k w)) dw in closed form, pair by pair.

    e(t) = e^(2*pi*i*t).  lambda = nu_j - mu_k is formed in integers, so the
    zero test is exact and its float is correctly rounded.
    """
    an, ad, bn, bd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    width = (bn * ad - an * bd) / (ad * bd)

    def phased(terms):  # (num, den, c, e(nu*lo), e(nu*hi)) per term (nu, c)
        nds = [(nu.numerator, nu.denominator, c) for nu, c in terms]
        return [(n, d, c, _turn(n * an, d * ad), _turn(n * bn, d * bd)) for n, d, c in nds]

    left, right = phased(ta), phased(tb)
    total = 0j
    for n1, d1, c, pa, pb in left:
        for n2, d2, d, qa, qb in right:
            lam = n1 * d2 - n2 * d1
            w = c * d.conjugate()
            if lam == 0:
                total += w * width
            else:
                delta = pb * qb.conjugate() - pa * qa.conjugate()
                total += w * delta / (2j * math.pi * (lam / (d1 * d2)))
    return total


def inner(f: TrigPoly, g: TrigPoly) -> complex:
    """int f * conj(g) over the circle without forming the product: cell by cell over
    ``overlay`` of the nonzero pieces of f and g, or over f's own pieces when g is f."""
    if f is g:
        cells = ((lo, hi, (t, t)) for lo, hi, t in _nonzero_pieces(f))
    else:
        cells = overlay(chain(_nonzero_pieces(f), _nonzero_pieces(g)))
    return sum((_cell_inner(*ts, lo, hi) for lo, hi, ts in cells if len(ts) == 2), 0j)


def integrate(f: TrigPoly) -> complex:
    """Closed-form integral over the circle: the inner product with the constant 1."""
    return inner(f, TrigPoly.constant(1.0))


def norm(f: TrigPoly) -> float:
    return math.sqrt(max(inner(f, f).real, 0.0))
