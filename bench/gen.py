"""Seeded input generator for the benchmark workloads.

Everything here is plain Python over ``fractions.Fraction`` and ``complex``:
the generator reads the catalog's exact data, builds new systems from it,
and writes them as problem-file JSON.  gmra sees only that JSON, parsed
back through ``gmra.jsonio``.

A piecewise polynomial is a list of ``(lo, hi, terms)`` pieces tiling
[0, 1), with ``terms`` a list of ``(freq, coef)`` pairs.  A multiplier is a
list of ``(lo, hi, freq, phase)`` pieces: ``phase * e(freq * w)`` with an
integer ``freq`` and a unimodular ``phase``.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
BREAK_DENOMINATOR = 120  # breakpoints of a multiplier are j / 120
TOLERANCE = 1e-9


def rat(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def exact_phase(q: Fraction) -> complex:
    """e^(2 pi i q), exact at quarter turns."""
    q = Fraction(q) % 1
    exact = {ZERO: 1 + 0j, Fraction(1, 4): 1j, Fraction(1, 2): -1 + 0j, Fraction(3, 4): -1j}
    if q in exact:
        return exact[q]
    return cmath.exp(2j * math.pi * float(q))


# ---- systems as plain data ---------------------------------------------------


class System:
    """Dilation, multiplicity pieces and filter rows, as plain data."""

    def __init__(self, name, N, m_pieces, H, G):
        self.name = name
        self.N = N
        self.m_pieces = m_pieces  # [(lo, hi, value)]
        self.H = H  # rows of polys
        self.G = G  # rows of polys, or None

    def to_problem(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "endomorphism": {"N": self.N},
            "multiplicity": [
                {"interval": [rat(lo), rat(hi)], "value": v} for lo, hi, v in self.m_pieces
            ],
            "filters": {
                "H": [[poly_json(p) for p in row] for row in self.H],
                "G": [[poly_json(p) for p in row] for row in self.G] if self.G else None,
            },
            "options": {"tolerance": TOLERANCE},
        }


def poly_json(p) -> dict:
    return {
        "pieces": [
            {
                "interval": [rat(lo), rat(hi)],
                "terms": [
                    {"freq": rat(nu), "re": c.real, "im": c.imag} for nu, c in terms
                ],
            }
            for lo, hi, terms in p
        ]
    }


def from_catalog(entry) -> System:
    """Copy a catalog entry's exact data into plain pieces."""

    def plain(tp):
        return [(lo, hi, list(terms)) for lo, hi, terms in tp.pieces]

    return System(
        entry.name,
        entry.e.N,
        list(entry.m.pieces),
        [[plain(h) for h in row] for row in entry.H.entries],
        [[plain(g) for g in row] for row in entry.G.entries],
    )


def dft_haar(N: int) -> System:
    """h = N^-1/2 sum_k e(-k w); the G rows are the remaining DFT rows."""
    s = 1.0 / math.sqrt(N)

    def row(r):
        terms = [(Fraction(-k), s * exact_phase(Fraction(r * k, N))) for k in range(N)]
        return [[(ZERO, ONE, terms)]]

    return System(
        f"dft_haar{N}", N, [(ZERO, ONE, 1)], [row(0)], [row(r) for r in range(1, N)]
    )


# ---- piecewise-monomial conjugation -------------------------------------------


def random_multiplier(rng: random.Random, pieces: int, max_freq: int):
    """Unimodular a = phase_p e(freq_p w) on `pieces` arcs, |freq_p| <= max_freq.

    One arc wraps through 0; integer frequencies keep e(freq w) continuous
    across the wrap, so it is a single monomial piece of the circle.
    """
    cuts = sorted(rng.sample(range(1, BREAK_DENOMINATOR), pieces))
    cuts = [Fraction(j, BREAK_DENOMINATOR) for j in cuts]
    # a seeded order of a fixed frequency multiset keeps the work per size steady
    freqs = [p % (2 * max_freq + 1) - max_freq for p in range(pieces)]
    rng.shuffle(freqs)
    monos = [(f, cmath.exp(2j * math.pi * rng.random())) for f in freqs]
    out = [(ZERO, cuts[0]) + monos[-1]]
    for p in range(pieces - 1):
        out.append((cuts[p], cuts[p + 1]) + monos[p])
    out.append((cuts[-1], ONE) + monos[-1])
    return out


def _value_piece(pieces, x):
    for piece in pieces:
        if piece[0] <= x < piece[1]:
            return piece
    raise ValueError(f"{x} not covered")


def conjugate_poly(h, a, N):
    """w -> a(N w) h(w) conj(a(w)) on the common refinement of the partitions."""
    # a(N w) on branch k: w in [(lo + k)/N, (hi + k)/N) maps to phase e(freq (N w - k))
    # = phase e(N freq w), the integer freq making e(-freq k) = 1.
    a_up = [
        ((lo + k) / N, (hi + k) / N, freq * N, phase)
        for k in range(N)
        for lo, hi, freq, phase in a
    ]
    points = sorted(
        {p for lo, hi, _ in h for p in (lo, hi)}
        | {p for piece in a_up for p in piece[:2]}
        | {p for piece in a for p in piece[:2]}
    )
    out = []
    for x, y in zip(points, points[1:]):
        terms = _value_piece(h, x)[2]
        _, _, f_up, c_up = _value_piece(a_up, x)
        _, _, f, c = _value_piece(a, x)
        shift = f_up - f
        scale = c_up * c.conjugate()
        out.append((x, y, [(nu + shift, coef * scale) for nu, coef in terms]))
    return out


def conjugate_system(base: System, a, name: str) -> System:
    """Apply the scalar multiplier entrywise to H and to G."""

    def conj_rows(rows):
        return [[conjugate_poly(p, a, base.N) for p in row] for row in rows]

    G = conj_rows(base.G) if base.G else None
    return System(name, base.N, base.m_pieces, conj_rows(base.H), G)


# ---- block-diagonal matrix pairs --------------------------------------------------


def diagonal_system(name, N, first, second) -> System:
    """diag(first, second) over the constant multiplicity 2, without a G."""
    z = [(ZERO, ONE, [])]
    return System(name, N, [(ZERO, ONE, 2)], [[first, z], [z, second]], None)


def exponential_twist(h, freq: int, phase: complex):
    """phase * e(freq w) * h(w); with freq = 0 a constant phase, such as -1."""
    return [
        (lo, hi, [(nu + freq, c * phase) for nu, c in terms]) for lo, hi, terms in h
    ]
