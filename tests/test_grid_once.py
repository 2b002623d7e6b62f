"""Each grid point sampled once: phase tables in the exact sampler, ``apply_S_grid`` on
the quotient grid, a filter's kept ``grid_samples`` and the shape rules of
``GridFilterMatrix``.

Every value is compared by its bytes: with the exact ``evaluate``, with a test-local
copy of the fine-grid ``apply_S_grid`` that sampled each section component at
N*s/fine, and with per-entry ``TrigPoly.sample``.
"""

import gc
import math
import random
import weakref
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import catalog, trigpoly
from gmra.errors import ContextMismatch
from gmra.filters import (
    FilterMatrix,
    GridFilterMatrix,
    complement_numeric,
    verify_complementary_grid,
)
from gmra.multiplicity import MultiplicityFunction, sigma_tilde_sets
from gmra.ruelle import apply_S_grid, random_section
from gmra.torus import TorusEndomorphism, TorusSet
from gmra.trigpoly import TrigPoly

from conftest import conjugated

F = Fraction
PRIMES = (2, 3, 5, 7, 11, 13, 65537, 2147483647)


@contextmanager
def tables_taken():
    """The sides of the table rule that ``_terms_values`` takes inside the block: True
    for roots-of-unity tables, False for phases one by one."""
    taken = []
    real = trigpoly._phase_table

    def spy(*args):
        out = real(*args)
        taken.append(out is not None)
        return out

    with patch.object(trigpoly, "_phase_table", spy):
        yield taken


@st.composite
def prime_polys(draw, primes=PRIMES):
    """A piecewise poly with breakpoints k/b and frequencies n/fden, fden a prime."""
    b = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    fden = draw(st.sampled_from(primes))
    cuts = sorted(draw(st.sets(st.integers(1, b - 1), max_size=3))) if b > 1 else []
    bounds = [F(0)] + [F(c, b) for c in cuts] + [F(1)]
    term = st.tuples(
        st.integers(-8 * fden, 8 * fden).map(lambda n: F(n, fden)),
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    )
    pieces = [(lo, hi, draw(st.lists(term, min_size=1, max_size=4)))
              for lo, hi in zip(bounds, bounds[1:])]
    return TrigPoly.from_pieces(pieces)


def assert_sample_is_evaluate(p, ps, Q):
    got = p.sample(ps, Q)
    values = {x: p.evaluate(F(x, Q)) for x in set(ps.tolist())}
    want = np.array([values[x] for x in ps.tolist()], dtype=complex)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(prime_polys(primes=PRIMES[:6]), st.integers(1, 12))
def test_sample_from_phase_tables_is_evaluate_bit_for_bit(p, scale):
    """Enough points, each grid point read (2 + fden) times, that the periods' total (at
    most (1 + fden) Q) is below the evaluations: every phase is gathered from a table."""
    Q = p.den * scale
    ps = np.arange(Q * (p.fden + 2)) - Q  # reduced mod Q by the sampler
    with tables_taken() as taken:
        assert_sample_is_evaluate(p, ps, Q)
    assert taken == ([True] if not p.is_zero() else [])


@settings(max_examples=150, deadline=None)
@given(prime_polys(), st.sampled_from([53, 62]), st.integers(-3, 3), st.data())
def test_sample_past_the_phase_tables_is_evaluate_bit_for_bit(p, bits, shift, data):
    """A few points on a grid whose periods b*Q lie near 2^53 or 2^62: the phases are taken
    one by one, in int64 below the bounds of ``_grid_phase`` and on Python ints past them."""
    Q = p.den * max(2**bits // (p.den * max(p.fden, 2)) + shift, 1)
    points = st.integers(0, Q - 1)
    ps = np.array([0, Q - 1, Q // 2, *data.draw(st.lists(points, max_size=8))], dtype=np.int64)
    with tables_taken() as taken:
        assert_sample_is_evaluate(p, ps, Q)
    assert True not in taken


def test_table_rule_compares_periods_with_evaluations():
    # fden 7: periods Q and 7Q, one table each when 8Q < width * points; one term on a
    # full grid takes no table, which would cost the same phases plus a gather
    p = TrigPoly.from_pieces([(0, 1, [(F(1, 7), 1.0), (F(2), 0.5j)])])
    Q = 16
    for points, table in ((4 * Q + 1, True), (4 * Q, False)):
        ps = np.arange(points) % Q
        with tables_taken() as taken:
            assert_sample_is_evaluate(p, ps, Q)
        assert taken == [table]
    p = TrigPoly.exponential(F(3))
    for points, table in ((Q + 1, True), (Q, False)):
        ps = np.arange(points) % Q
        with tables_taken() as taken:
            assert_sample_is_evaluate(p, ps, Q)
        assert taken == [table]


# ---- apply_S_grid on the quotient grid ---------------------------------------------


def fine_grid_apply(G, f):
    """``apply_S_grid`` as it sampled each component at N*s/fine on the fine grid."""
    fine = G.grid
    up = (G.e.N * np.arange(fine)) % fine
    out = np.zeros((G.cols, fine), dtype=complex)
    for i, c in enumerate(f.components[: G.rows]):
        out += G.samples[i] * c.sample(up, fine)
    return out


def dft_haar(N):
    h = TrigPoly.from_pieces([(0, 1, [(F(-k), 1 / math.sqrt(N)) for k in range(N)])])
    return FilterMatrix.scalar(h, MultiplicityFunction.constant(1), TorusEndomorphism(N))


def shannon(N):
    h = TrigPoly.indicator(TorusSet.interval(F(-1, 2 * N), F(1, 2 * N)), math.sqrt(N))
    return FilterMatrix.scalar(h, MultiplicityFunction.constant(1), TorusEndomorphism(N))


BY_N = {
    2: [catalog.get(name).H for name in ("haar", "journe", "shannon_reversed")],
    3: [catalog.get(name).H for name in ("cantor3", "haar3_2wavelet")] + [shannon(3)],
    4: [dft_haar(4), shannon(4)],
    5: [dft_haar(5), shannon(5)],
}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_quotient_grid_apply_is_the_fine_grid_one_bit_for_bit(N, data):
    H = data.draw(st.sampled_from(BY_N[N]))
    grid = data.draw(st.integers(1, 48))
    seed = data.draw(st.integers(0, 2**16))
    G, _ = complement_numeric(H, grid=grid)
    section = random_section(tuple(sigma_tilde_sets(H.m, H.e)), random.Random(seed),
                             data.draw(st.integers(0, 4)))
    got = apply_S_grid(G, section)
    assert got.grid == G.grid
    assert got.samples.tobytes() == fine_grid_apply(G, section).tobytes()


def test_quotient_grid_apply_on_conjugates_is_the_fine_grid_one():
    rng = random.Random(24)
    for name in ("haar", "journe", "cantor3"):
        H, _ = conjugated(catalog.get(name), 4, rng)
        G, _ = complement_numeric(H, grid=36)
        section = random_section(tuple(sigma_tilde_sets(H.m, H.e)), rng, 3)
        assert apply_S_grid(G, section).samples.tobytes() == fine_grid_apply(G, section).tobytes()


# ---- a filter's grid samples, computed once ----------------------------------------


COMPLETED = [name for name in catalog.names() if catalog.get(name).G is not None]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(COMPLETED), st.integers(1, 200), st.integers(0, 2**16))
def test_grid_samples_are_kept_read_only_and_per_entry(name, den, seed):
    H, _ = conjugated(catalog.get(name), 3, random.Random(seed))
    values = H.grid_samples(den)
    assert values.shape == (H.rows, H.cols, den) and not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0, 0] = 1.0
    for i in range(H.rows):
        for j in range(H.cols):
            want = H.entry(i, j).sample(np.arange(den), den)
            assert values[i, j].tobytes() == want.tobytes()
    assert H.grid_samples(den) is values
    assert H.grid_samples(den + 1) is not values


def test_grid_samples_die_with_their_filter():
    H, _ = conjugated(catalog.get("journe"), 3, random.Random(5))
    values = H.grid_samples(64)
    alive = weakref.ref(H), weakref.ref(values)
    del H, values
    gc.collect()
    assert [ref() for ref in alive] == [None, None]


def test_grid_verification_reads_the_samples_of_the_completion(monkeypatch):
    # complement_numeric samples H once; verify_complementary_grid samples it no more
    H = catalog.get("journe").H
    G, report = complement_numeric(H, grid=32)
    monkeypatch.setattr(TrigPoly, "sample", lambda *args: pytest.fail("H sampled again"))
    again = verify_complementary_grid(G, H)
    assert again.identities == report.identities


# ---- grid filters keep their grid's shape ------------------------------------------


def haar_grid_filter():
    H = catalog.get("haar").H
    G, _ = complement_numeric(H, grid=8)
    assert G.samples.shape == (1, 1, 16)
    return H, G


def test_grid_filter_refuses_a_grid_that_is_not_a_multiple_of_n():
    # 15 points would be cut to a quotient grid of 7, and the identities checked on 14
    H, G = haar_grid_filter()
    with pytest.raises(ContextMismatch, match="multiple of N"):
        GridFilterMatrix(15, G.samples[:, :, :15], G.m, G.e)


def test_grid_filter_refuses_samples_of_another_grid():
    # 16 samples over a grid of 8 would be read as 16 points, and apply_S_grid would fail
    # to broadcast them
    H, G = haar_grid_filter()
    with pytest.raises(ContextMismatch, match="not"):
        GridFilterMatrix(8, G.samples, G.m, G.e)
    with pytest.raises(ContextMismatch):
        GridFilterMatrix(16, G.samples[0], G.m, G.e)
    rebuilt = GridFilterMatrix(16, G.samples, G.m, G.e)
    assert verify_complementary_grid(rebuilt, H).identities == \
        verify_complementary_grid(G, H).identities
