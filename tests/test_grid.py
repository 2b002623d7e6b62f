"""The exact-location grid sampler and the batched grid layer built on it.

The per-point loops below are the reference the batched functions must
match: they evaluate every entry at every grid point with the exact
``evaluate``/``value_at``.
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import catalog, filters
from gmra.errors import CompletionFailed, ContextMismatch
from gmra.filters import (
    FilterMatrix,
    check_block_unitary,
    complement_numeric,
    identity_multiplier,
    verify_complementary_grid,
)
from gmra.multiplicity import MultiplicityFunction, compute_mtilde, sigma_sets, sigma_tilde_sets
from gmra.ruelle import apply_S_grid, random_section
from gmra.torus import GRID_BLOCK, TorusEndomorphism, TorusSet, _grid_points
from gmra.trigpoly import TrigPoly, unit_phase

F = Fraction
TOL = 1e-12


# ---- per-point references ----------------------------------------------------


def reference_complement(H, grid, pivot_tol=1e-8):
    N = H.e.N
    m = H.m
    mtilde = compute_mtilde(m, H.e)
    cols = H.cols
    g_rows = max(mtilde.max_value(), 1)
    samples = np.zeros((g_rows, cols, N * grid), dtype=complex)
    sqrt_n = math.sqrt(N)
    max_gg = max_gh = 0.0
    for t in range(grid):
        w = F(t, grid)
        zs = H.e.preimages(w)
        mt, mw = mtilde.value_at(w), m.value_at(w)
        coords = [(j, k) for j in range(cols) for k in range(N) if m.value_at(zs[k]) >= j + 1]
        dim = len(coords)
        if dim != mw + mt:
            raise CompletionFailed(
                f"coordinate count {dim} at w={w} disagrees with m + mtilde = {mw + mt}"
            )
        h_rows = np.array(
            [[H.entry(i, j).evaluate(zs[k]) / sqrt_n for (j, k) in coords] for i in range(mw)],
            dtype=complex,
        ).reshape(mw, dim)
        chosen = []
        for d in range(dim):
            if len(chosen) == mt:
                break
            u = np.zeros(dim, dtype=complex)
            u[d] = 1.0
            for _ in range(2):
                for v in list(h_rows) + chosen:
                    u = u - (v.conj() @ u) * v
            nu = float(np.linalg.norm(u))
            if nu > pivot_tol:
                chosen.append(u / nu)
        if len(chosen) < mt:
            raise CompletionFailed(
                f"completion degenerated at w={w}: found {len(chosen)} of {mt} rows"
            )
        for r, u in enumerate(chosen):
            for (j, k), value in zip(coords, u):
                samples[r, j, t + k * grid] = value * sqrt_n
        for r in range(mt):
            for r2 in range(r, mt):
                acc = sum(
                    samples[r, j, t + k * grid] * np.conj(samples[r2, j, t + k * grid])
                    for j in range(cols)
                    for k in range(N)
                )
                max_gg = max(max_gg, abs(acc - (N if r == r2 else 0.0)))
            for i in range(mw):
                acc = sum(
                    samples[r, j, t + k * grid] * np.conj(H.entry(i, j).evaluate(zs[k]))
                    for j in range(cols)
                    for k in range(N)
                )
                max_gh = max(max_gh, abs(acc))
    return samples, max_gg, max_gh


def reference_verify_grid(G, H):
    N = H.e.N
    grid = G.grid // N
    mtilde = compute_mtilde(H.m, H.e)
    max_gg = max_gh = 0.0
    for t in range(grid):
        w = F(t, grid)
        zs = H.e.preimages(w)
        mt = mtilde.value_at(w)
        for r in range(G.rows):
            for r2 in range(r, G.rows):
                acc = sum(
                    G.samples[r, j, t + k * grid] * np.conj(G.samples[r2, j, t + k * grid])
                    for j in range(G.cols)
                    for k in range(N)
                )
                max_gg = max(max_gg, abs(acc - (N if (r == r2 and r < mt) else 0.0)))
            for i in range(H.rows):
                acc = sum(
                    G.samples[r, j, t + k * grid] * np.conj(H.entry(i, j).evaluate(zs[k]))
                    for j in range(G.cols)
                    for k in range(N)
                )
                max_gh = max(max_gh, abs(acc))
    return max_gg, max_gh


def reference_apply_S_grid(F_grid, f):
    fine = F_grid.grid
    out = np.zeros((F_grid.cols, fine), dtype=complex)
    for s in range(fine):
        up = F_grid.e.image(F(s, fine))
        vals = [c.evaluate(up) for c in f.components]
        for j in range(F_grid.cols):
            out[j, s] = sum(
                F_grid.samples[i, j, s] * vals[i] for i in range(min(F_grid.rows, len(vals)))
            )
    return out


# ---- systems: every catalog filter, plus N = 3, 4, 5 with breakpoints on the grid --


def shannon_n(N):
    """sqrt(N) on [-1/(2N), 1/(2N)): one preimage of each w lands inside."""
    e = TorusEndomorphism(N)
    m = MultiplicityFunction.constant(1)
    h = TrigPoly.indicator(TorusSet.interval(F(-1, 2 * N), F(1, 2 * N)), math.sqrt(N))
    return FilterMatrix.scalar(h, m, e)


def dft_haar(N):
    """h = N^-1/2 sum_k e(-k w)."""
    e = TorusEndomorphism(N)
    h = TrigPoly.from_pieces([(0, 1, [(F(-k), 1 / math.sqrt(N)) for k in range(N)])])
    return FilterMatrix.scalar(h, MultiplicityFunction.constant(1), e)


SYSTEMS = {name: catalog.get(name).H for name in catalog.names()}
SYSTEMS.update({f"shannon{N}": shannon_n(N) for N in (3, 4, 5)})
SYSTEMS.update({f"dft_haar{N}": dft_haar(N) for N in (3, 4, 5)})


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("grid", [10, 24])
def test_grid_layer_matches_per_point_reference(name, grid):
    check_against_reference(SYSTEMS[name], grid)


@pytest.mark.parametrize("name", ["journe", "journe_rank2"])
def test_grid_layer_matches_reference_across_blocks(name):
    # more quotient points than one batch holds: runs and residuals split
    check_against_reference(SYSTEMS[name], GRID_BLOCK + 30)


def check_against_reference(H, grid):
    try:
        want = reference_complement(H, grid)
    except CompletionFailed as exc:
        with pytest.raises(CompletionFailed) as info:
            complement_numeric(H, grid=grid)
        assert str(info.value) == str(exc)
        return
    G, report = complement_numeric(H, grid=grid)
    samples, max_gg, max_gh = want
    assert np.abs(G.samples - samples).max() <= TOL
    assert abs(report.identities["gg_grid"] - max_gg) <= TOL
    assert abs(report.identities["gh_grid"] - max_gh) <= TOL

    gg, gh = reference_verify_grid(G, H)
    again = verify_complementary_grid(G, H)
    assert abs(again.identities["gg_grid"] - gg) <= TOL
    assert abs(again.identities["gh_grid"] - gh) <= TOL
    assert again.passed == report.passed

    sets = tuple(sigma_tilde_sets(H.m, H.e))
    section = random_section(sets, random.Random(grid), degree=3)
    got = apply_S_grid(G, section).samples
    assert np.abs(got - reference_apply_S_grid(G, section)).max() <= TOL


def test_grid_application_needs_a_section_over_the_row_sets():
    # journe's G has one row, over mtilde's one set; a section over m's sets is refused
    H = catalog.get("journe").H
    G, _ = complement_numeric(H, grid=16)
    section = random_section(tuple(sigma_sets(H.m)), random.Random(0), degree=2)
    assert G.rows == 1 and len(section.sets) > 1
    with pytest.raises(ContextMismatch):
        apply_S_grid(G, section)


def test_first_failing_point_is_reported():
    # a NaN on [3/4, 1) spoils the rows at w in [1/2, 1) only, where the
    # second preimage (w + 1)/2 lands; completion fails first at w = 1/2
    H = catalog.get("haar").H
    h = H.entry(0, 0) + TrigPoly.from_pieces([(F(3, 4), 1, [(F(0), complex(math.nan, 0))])])
    H = FilterMatrix.scalar(h, H.m, H.e)
    with pytest.raises(CompletionFailed) as want:
        reference_complement(H, 12)
    with pytest.raises(CompletionFailed) as got:
        complement_numeric(H, grid=12)
    assert "w=1/2" in str(want.value)
    assert str(got.value) == str(want.value)


# ---- the sampler against evaluate ---------------------------------------------

denominators = st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12, 15])


@st.composite
def grid_polys(draw):
    """A piecewise poly with breakpoints k/b and a grid Q that hits every one."""
    b = draw(denominators)
    cuts = sorted(draw(st.sets(st.integers(1, b - 1), max_size=4))) if b > 1 else []
    bounds = [F(0)] + [F(c, b) for c in cuts] + [F(1)]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        terms = draw(
            st.lists(
                st.tuples(
                    st.fractions(min_value=-8, max_value=8, max_denominator=5),
                    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
                ),
                max_size=3,
            )
        )
        pieces.append((lo, hi, terms))
    Q = b * draw(st.integers(1, 12)) * draw(st.sampled_from([1, 2, 3, 5]))
    return TrigPoly.from_pieces(pieces), Q


@settings(max_examples=150, deadline=None)
@given(grid_polys())
def test_sample_matches_evaluate_at_every_grid_point(case):
    p, Q = case
    ps = np.arange(-Q, 2 * Q)
    got = p.sample(ps, Q)
    want = np.array([p.evaluate(F(int(q), Q)) for q in ps])
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(1, 60),
)
def test_quarter_turns_are_exact(nu, Q):
    ps = np.arange(Q)
    got = TrigPoly.exponential(nu).sample(ps, Q)
    for p, value in zip(range(Q), got):
        turn = (nu * F(p, Q)) % 1
        if turn.denominator in (1, 2, 4):
            assert value == unit_phase(turn)
            assert value in (1, 1j, -1, -1j)


def test_half_open_rule_at_breakpoints():
    # an indicator of [1/3, 2/3) on the grid k/6: 2/6 is in, 4/6 is out
    p = TrigPoly.indicator(TorusSet.interval(F(1, 3), F(2, 3)))
    assert list(p.sample(np.arange(6), 6).real) == [0, 0, 1, 1, 0, 0]


def test_large_denominators_fall_back_to_exact_integers():
    p = TrigPoly.from_pieces([(0, F(1, 3), [(F(7, 3), 1.0)]), (F(1, 3), 1, [(F(1), 2j)])])
    for Q in (3 * 2**58, 2**61 + 1):
        ps = np.array([0, 1, Q // 3, Q // 3 + 1, Q // 2, Q - 1], dtype=np.int64)
        want = np.array([p.evaluate(F(int(q), Q)) for q in ps])
        assert np.array_equal(p.sample(ps, Q), want)


def test_exact_samplers_refuse_non_integer_points():
    # truncating would evaluate at 0/2 and 1/2, not at the points 0.25 and 0.85 meant
    with pytest.raises(TypeError):
        TrigPoly.exponential(1).sample(np.array([0.5, 1.7]), 2)
    with pytest.raises(TypeError):
        MultiplicityFunction.constant(1).sample(np.array([0.5]), 2)
    # integers of any width are reduced mod den, and the float sampler still takes floats
    assert _grid_points(np.array([-1, 5], dtype=np.int32), 4).tolist() == [3, 1]
    assert TrigPoly.exponential(1).sample(np.array([0.25]))[0] == pytest.approx(1j)


@st.composite
def multiplicities(draw):
    b = draw(denominators)
    pieces = [
        (F(lo, b), F(lo + length, b), value)
        for lo, length, value in draw(
            st.lists(st.tuples(st.integers(-b, b), st.integers(1, b), st.integers(0, 3)), max_size=3)
        )
    ]
    try:
        m = MultiplicityFunction.from_pieces(pieces)
    except ValueError:  # overlapping pieces
        m = MultiplicityFunction.from_pieces(pieces[:1])
    return m, b * draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(multiplicities())
def test_multiplicity_sample_equals_value_at(case):
    m, Q = case
    ps = np.arange(-Q, 2 * Q)
    got = m.sample(ps, Q)
    assert got.dtype == np.int64
    assert list(got) == [m.value_at(F(int(q), Q)) for q in ps]


# ---- no per-point exact evaluation inside the grid layer -------------------------


def test_grid_layer_does_not_evaluate_per_point(monkeypatch):
    H = catalog.get("journe").H
    G, _ = complement_numeric(H, grid=16)
    section = random_section(tuple(sigma_tilde_sets(H.m, H.e)), random.Random(0), degree=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-point evaluation in the grid layer")

    calls = []
    real_value_at = MultiplicityFunction.value_at

    def counted(self, x):
        calls.append(x)
        return real_value_at(self, x)

    monkeypatch.setattr(TrigPoly, "evaluate", forbidden)
    monkeypatch.setattr(FilterMatrix, "value_at", forbidden)
    monkeypatch.setattr(MultiplicityFunction, "value_at", counted)
    counts = []
    for grid in (8, 64):
        calls.clear()
        complement_numeric(H, grid=grid)
        verify_complementary_grid(G, H)
        apply_S_grid(G, section)
        check_block_unitary(identity_multiplier(H.m, H.e))
        counts.append(len(calls))
    # exact multiplicity work (mtilde cells) does not grow with the grid
    assert counts[0] == counts[1]


# ---- completion: the documented projection order ---------------------------------


def all_slots_complete_run(basis, mw, mt):
    """``_complete_run`` as first written: every canonical vector is projected off every
    slot, twice, filled or not.  The documented-order reference of the completion: the
    slots no point has filled are +0 and take nothing off."""
    points, slots, dim = basis.shape
    found = np.zeros(points, dtype=int)
    for d in range(dim):
        open_ = found < mt
        if not open_.any():
            break
        u = np.zeros((points, dim), dtype=complex)
        u[:, d] = 1.0
        for _ in range(2):
            for v in range(slots):
                vec = basis[:, v]
                u -= np.einsum("pd,pd->p", vec.conj(), u)[:, None] * vec
        norms = np.linalg.norm(u, axis=1)
        take = np.flatnonzero(open_ & (norms > filters.PIVOT_TOL))
        basis[take, mw + found[take]] = u[take] / norms[take, None]
        found[take] += 1
    return found


def grid_pool_problems(seeds):
    """(label, H, grid) of each distinct problem text and grid of the benchmark's ``grid``
    pools of ``seeds``."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    out = {}
    for seed in seeds:
        pool = workloads.Workload("grid", seed)
        for task in pool.tasks:
            key = (task.texts[0], task.params["grid"])
            if key not in out:
                out[key] = (f"grid:{seed} {task.label}", pool.load(task.texts[0]).H, key[1])
    return list(out.values())


def test_completion_projects_off_the_filled_slots_only_bit_for_bit(monkeypatch):
    """Skipping the slots no point has filled gives the G samples and residuals of
    projecting off all of them, on the catalog and the ``grid`` pools of seeds 1 and 2."""
    cases = [(name, catalog.get(name).H, grid) for name in catalog.names() for grid in (24, 100)]
    cases += grid_pool_problems((1, 2))
    got = {}
    for label, H, grid in cases:
        try:
            got[label, grid] = complement_numeric(H, grid=grid)
        except CompletionFailed as exc:
            got[label, grid] = str(exc)
    monkeypatch.setattr(filters, "_complete_run", all_slots_complete_run)
    for label, H, grid in cases:
        try:
            G, report = complement_numeric(H, grid=grid)
        except CompletionFailed as exc:
            assert got[label, grid] == str(exc), label
            continue
        G_new, report_new = got[label, grid]
        assert G_new.samples.tobytes() == G.samples.tobytes(), label
        assert report_new.identities == report.identities, label
