"""Certificate windows in int arrays against the point-by-point window arithmetic."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra.equivalence import _certified_windows, _window_set
from gmra.torus import TorusSet


def loop_windows(cells, den, samples, gaps):
    """The windows point by point in Python ints, in point order."""
    cells = list(cells)
    if not cells:
        return
    q = 2 * samples * den
    unit = 2 * samples * 2**30
    ks = [(samples,) if L == 0.0 else range(1, 2 * samples, 2) for _, _, L, _ in cells]
    where = np.repeat(np.arange(len(cells)), [len(k) for k in ks])
    points = [2 * samples * lo + k * (hi - lo) for (lo, hi, _, _), cell in zip(cells, ks)
              for k in cell]
    ps = np.array(points, dtype=np.int64 if q < 2**62 else object)
    found = gaps([payload for _, _, _, payload in cells], where, ps, q).tolist()
    for i, p, gap in zip(where.tolist(), points, found):
        if not gap > 0:
            continue
        lo, hi, lipschitz, _ = cells[i]
        if lipschitz == 0.0:
            yield (lo * unit, hi * unit), gap
            continue
        r = max(math.floor(gap / (2 * lipschitz) * 2**30), 0) * q
        a, b = max(lo * unit, p * 2**30 - r), min(hi * unit, p * 2**30 + r)
        if a < b:
            yield (a, b), gap


def hashed_gaps(payloads, where, ps, q):
    """A gap per point from its cell's scale and a hash of the point: some NaN, most of
    either sign, a few far larger than the Lipschitz bound."""
    out = []
    for w, p in zip(where.tolist(), ps.tolist()):
        h = hash((w, p, q)) % 1009
        out.append(math.nan if h % 97 == 0 else payloads[w] * (h - 400) / 600)
    return np.array(out)


@st.composite
def window_cells(draw):
    den = draw(st.integers(1, 500) | st.sampled_from([2**28 + 3, 2**40 + 15, 2**58 + 27]))
    count = draw(st.integers(0, 8))
    cells = []
    for _ in range(count):
        lo = draw(st.integers(0, den - 1))
        hi = draw(st.integers(lo + 1, den))
        lip = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.7, 25.0, 1e6]))
        scale = draw(st.sampled_from([1e-6, 1.0, 1e3, 1e6]))  # radii past int64 too
        cells.append((lo, hi, lip, scale))
    return den, cells


@settings(max_examples=150, deadline=None)
@given(window_cells(), st.sampled_from([1, 3, 16, 24]))
def test_windows_are_those_of_the_point_loop(drawn, samples):
    den, cells = drawn
    a, b, gap = _certified_windows(cells, den, samples, hashed_gaps)
    want = list(loop_windows(cells, den, samples, hashed_gaps))
    assert list(zip(a.tolist(), b.tolist(), gap.tolist())) == [
        (lo, hi, g) for (lo, hi), g in want
    ]
    assert _window_set((a, b, gap), den, samples) == TorusSet.from_spans(
        den * 2 * samples * 2**30, (window for window, _ in want)
    )


def test_no_cells_give_no_windows():
    a, b, gap = _certified_windows([], 7, 16, hashed_gaps)
    assert len(a) == len(b) == len(gap) == 0
    assert _window_set((a, b, gap), 7, 16) == TorusSet.empty()


def test_a_radius_past_the_float_range_certifies_its_whole_cell():
    def unit_gaps(payloads, where, ps, q):
        return np.ones(len(ps))

    found = _certified_windows([(2, 5, 1e-300, None)], 7, 16, unit_gaps)
    assert _window_set(found, 7, 16) == TorusSet.from_spans(7, [(2, 5)])
