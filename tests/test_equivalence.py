import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import catalog, equivalence
from gmra.equivalence import (
    EQUIVALENT,
    INEQUIVALENT,
    NOT_PURE,
    PURE,
    UNKNOWN,
    certified_deviation_set,
    coboundary_solve,
    constant_ratio_obstruction,
    decide,
    invariant_check,
    is_eigenfilter,
    low_singular_certificate,
    purity_test,
)
from gmra.errors import ContextMismatch, NotApplicable
from gmra.filters import FilterMatrix, conjugate_filter, verify_filter
from gmra.multiplicity import MultiplicityFunction, sigma_sets
from gmra.torus import GRID_BLOCK, TorusEndomorphism, TorusSet, cell_at
from gmra.trigpoly import TrigPoly, _terms_value, _terms_values, compose_endomorphism, unit_phase

F = Fraction
SQRT2 = math.sqrt(2.0)
N2 = TorusEndomorphism(2)
M1 = MultiplicityFunction.constant(1)


def poly(*terms):
    return TrigPoly.from_pieces([(0, 1, [(F(n), c) for n, c in terms])])


def scalar(p):
    return FilterMatrix.scalar(p, M1, N2)


def haar_poly():
    return poly((0, 1 / SQRT2), (-1, 1 / SQRT2))


class TestEigenfilter:
    def test_constant_one(self):
        found, lam = is_eigenfilter(scalar(poly((0, 1.0))), 1e-9)
        assert found and abs(lam - 1.0) < 1e-12

    def test_haar_is_not(self):
        found, _ = is_eigenfilter(catalog.get("haar").H, 1e-9)
        assert not found

    def test_unimodular_nonconstant_is_not(self):
        found, _ = is_eigenfilter(scalar(poly((1, 1.0))), 1e-9)
        assert not found


@st.composite
def unimodular_multipliers(draw, entry):
    """A block-unitary multiplier of non-constant phase for the entry's m: on each level
    set, e^(2*pi*i*k*w) times a piecewise-constant unimodular with breakpoints j/12."""
    sets = sigma_sets(entry.m)
    size = max(len(sets), 1)
    rows = [[TrigPoly.zero()] * size for _ in range(size)]
    cuts = st.sets(st.integers(1, 11).map(lambda j: F(j, 12)), min_size=1, max_size=3)
    for i, s in enumerate(sets):
        bounds = [F(0)] + sorted(draw(cuts)) + [F(1)]
        turns = [draw(st.floats(0, 1, exclude_max=True)) for _ in bounds[1:]]
        steps = TrigPoly.from_pieces(
            (lo, hi, [(0, complex(math.cos(math.tau * t), math.sin(math.tau * t)))])
            for lo, hi, t in zip(bounds, bounds[1:], turns)
        )
        k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        rows[i][i] = (steps * TrigPoly.exponential(k)).restrict(s)
    return FilterMatrix.from_rows(rows, entry.m, entry.e, "m")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(catalog.names()), st.data())
def test_verdicts_survive_unimodular_conjugation(name, data):
    """Conjugation by a block unitary keeps supports and the purity of the isometry.

    The certificates of a pure verdict read moduli and singular values, which the
    conjugation keeps, so a pure filter stays pure.  A not-pure verdict rests on an
    exact constant eigenvector, which a non-constant phase moves, so the conjugate of
    the eigenfilter may read unknown, but never pure.
    """
    entry = catalog.get(name)
    conjugated = conjugate_filter(entry.H, data.draw(unimodular_multipliers(entry)))
    assert conjugated.structure_violations == entry.H.structure_violations
    before, after = purity_test(entry.H).kind, purity_test(conjugated).kind
    if before == NOT_PURE:
        assert after in (NOT_PURE, UNKNOWN)
    else:
        assert after == before


class TestPurity:
    def test_shannon_pure(self):
        v = purity_test(catalog.get("shannon").H)
        assert v.kind == PURE
        assert v.certificate.measure() > 0

    def test_reversed_shannon_pure(self):
        assert purity_test(catalog.get("shannon_reversed").H).kind == PURE

    def test_constant_eigenfilter_not_pure(self):
        v = purity_test(scalar(poly((0, 1.0))))
        assert v.kind == NOT_PURE
        assert abs(v.eigenvalue - 1.0) < 1e-12
        assert v.eigenvector is not None
        assert v.eigenvector.components[0].deviation_from(
            TrigPoly.constant(1.0)
        ) < 1e-12

    def test_journe_rank2_pure(self):
        v = purity_test(catalog.get("journe_rank2").H)
        assert v.kind == PURE
        assert v.certificate.measure() > 0

    def test_matrix_certificate_soundness(self):
        entry = catalog.get("journe_rank2")
        v = purity_test(entry.H)
        assert v.kind == PURE
        for lo, hi in v.certificate.intervals:
            x = (lo + hi) / 2
            row_dim = entry.m.value_at(entry.e.image(x))
            col_dim = entry.m.value_at(x)
            if row_dim == 0 or col_dim == 0:
                continue
            block = np.array(
                [
                    [entry.H.entry(i, j).evaluate(x) for j in range(col_dim)]
                    for i in range(row_dim)
                ]
            )
            top = np.linalg.svd(block, compute_uv=False).max()
            assert top < 1.0 - 1e-9

    def test_gray_zone_unimodular_is_unknown(self):
        # |h| = 1 identically but h is not constant: no certificate exists
        assert purity_test(scalar(poly((1, 1.0)))).kind == UNKNOWN

    def test_eigenfilter_always_not_pure(self):
        for lam in (1.0, -1.0, 1j):
            v = purity_test(scalar(poly((0, lam))))
            assert v.kind == NOT_PURE

    def test_certificate_soundness(self):
        # the claimed pointwise bound holds at rational samples of the set
        for name in ("haar", "cohen", "cantor3"):
            H = catalog.get(name).H
            v = purity_test(H)
            assert v.kind == PURE
            h = H.entry(0, 0)
            for lo, hi, in_set in _sample_windows(v.certificate):
                val = abs(h.evaluate((lo + hi) / 2)) ** 2
                assert abs(val - 1.0) > 1e-9


def _sample_windows(ts):
    return [(lo, hi, True) for lo, hi in ts.intervals]


class TestInvariants:
    def test_haar_vs_cohen_moduli(self):
        obs = invariant_check(catalog.get("haar").H, catalog.get("cohen").H)
        assert obs is not None and obs.kind == equivalence.MODULI_MISMATCH
        assert obs.detail["set"].measure() > 0

    def test_haar_vs_negated_none(self):
        obs = invariant_check(
            catalog.get("haar").H, catalog.get("haar_negated").H
        )
        assert obs is None

    def test_journe_self_none(self):
        H = catalog.get("journe").H
        assert invariant_check(H, H) is None

    def test_journe_vs_rank2_singular_values(self):
        obs = invariant_check(
            catalog.get("journe").H, catalog.get("journe_rank2").H
        )
        assert obs is not None and obs.kind == equivalence.SINGULAR_VALUE_MISMATCH


class TestConstantRatio:
    def test_negated(self):
        obs = constant_ratio_obstruction(haar_poly(), haar_poly() * -1.0)
        assert obs is not None and abs(obs.detail["ratio"] + 1.0) < 1e-12

    def test_same_filter_none(self):
        assert constant_ratio_obstruction(haar_poly(), haar_poly()) is None

    def test_rotated_by_i(self):
        obs = constant_ratio_obstruction(haar_poly(), haar_poly() * 1j)
        assert obs is not None and abs(obs.detail["ratio"] - 1j) < 1e-12

    def test_nonconstant_ratio_not_applicable(self):
        with pytest.raises(NotApplicable):
            constant_ratio_obstruction(haar_poly(), poly((0, 1 / SQRT2), (1, 1 / SQRT2)))

    def test_vanishing_filter_not_applicable(self):
        s = catalog.get("shannon").H.entry(0, 0)
        with pytest.raises(NotApplicable):
            constant_ratio_obstruction(s, s * -1.0)


class TestCoboundary:
    def test_exponential_witness(self):
        hp = scalar(poly((0, 1 / SQRT2), (1, 1 / SQRT2)))
        A = coboundary_solve(scalar(haar_poly()), hp, 2)
        assert A is not None
        # witness satisfies the defining identity exactly in the class
        a = A.entry(0, 0)
        lhs = compose_endomorphism(a, N2) * haar_poly() * a.conj()
        assert lhs.deviation_from(hp.entry(0, 0)) < 1e-9

    def test_trivial_witness(self):
        A = coboundary_solve(scalar(haar_poly()), scalar(haar_poly()), 0)
        assert A is not None
        a = A.entry(0, 0)
        assert a.deviation_from(TrigPoly.constant(a.evaluate(0))) < 1e-9

    def test_negated_has_no_witness(self):
        assert coboundary_solve(scalar(haar_poly()), scalar(haar_poly() * -1.0), 16) is None

    def test_sign_swapped_pair_has_a_constant_witness(self):
        h = catalog.get("haar").H.entry(0, 0)
        H, Hp = TestMatrixPairs._diag(h, h * -1.0), TestMatrixPairs._diag(h * -1.0, h)
        A = coboundary_solve(H, Hp, 0)
        assert A is not None
        assert all(entry.frequencies() <= {0} for row in A.entries for entry in row)
        assert _max_deviation(conjugate_filter(H, A), Hp) < 1e-9

    def test_witness_vanishes_off_the_support_of_m(self):
        # m = 1 on [0, 1/2) only, and e(w) on it takes h to e(w) h; the
        # witness must be zero where m is
        half = MultiplicityFunction.from_pieces([(0, F(1, 2), 1)])
        h = TrigPoly.from_pieces([(0, F(1, 4), [(0, SQRT2)])])
        H = FilterMatrix.scalar(h, half, N2)
        A = coboundary_solve(H, FilterMatrix.scalar(h.shift_frequencies(1), half, N2), 1)
        assert A is not None
        assert A.entry(0, 0).support() == half.support()


def _max_deviation(H, Hp):
    return max(
        H.entry(i, j).deviation_from(Hp.entry(i, j)) for i in range(Hp.rows) for j in range(Hp.cols)
    )


class TestDecide:
    def test_reflexive_equivalent(self):
        for name in ("haar", "journe", "cantor3"):
            H = catalog.get(name).H
            v = decide(H, H)
            assert v.kind == EQUIVALENT

    def test_negative_degree_refused(self):
        H = catalog.get("haar").H
        with pytest.raises(ValueError, match="search degree must be >= 0"):
            decide(H, H, degree=-1)

    def test_complementary_filters_refused(self):
        entry = catalog.get("journe")
        for pair in ((entry.H, entry.G), (entry.G, entry.H), (entry.G, entry.G)):
            with pytest.raises(ContextMismatch):
                decide(*pair)

    def test_haar_vs_negated(self):
        v = decide(catalog.get("haar").H, catalog.get("haar_negated").H)
        assert v.kind == INEQUIVALENT
        assert v.obstruction.kind == equivalence.CONSTANT_RATIO
        assert abs(v.obstruction.detail["ratio"] + 1.0) < 1e-9

    def test_haar_vs_conjugated(self):
        hp = scalar(poly((0, 1 / SQRT2), (1, 1 / SQRT2)))
        H = catalog.get("haar").H
        v = decide(H, hp)
        assert v.kind == EQUIVALENT
        # soundness: conjugating H by the witness reproduces hp and stays a filter
        lifted = conjugate_filter(H, v.witness)
        assert lifted.entry(0, 0).deviation_from(hp.entry(0, 0)) < 1e-9
        assert verify_filter(lifted).passed

    def test_witness_inverts_with_direction(self):
        hp = scalar(poly((0, 1 / SQRT2), (1, 1 / SQRT2)))
        H = catalog.get("haar").H
        forward = decide(H, hp).witness.entry(0, 0)
        backward = decide(hp, H).witness.entry(0, 0)
        assert (forward * backward).deviation_from(TrigPoly.constant(1.0)) < 1e-9

    def test_haar_vs_cohen(self):
        v = decide(catalog.get("haar").H, catalog.get("cohen").H)
        assert v.kind == INEQUIVALENT
        assert v.obstruction.kind == equivalence.MODULI_MISMATCH

    def test_journe_vs_haar_multiplicity(self):
        v = decide(catalog.get("journe").H, catalog.get("haar").H)
        assert v.kind == INEQUIVALENT
        assert v.obstruction.kind == equivalence.MULTIPLICITY_MISMATCH

    def test_unknown_carries_degree(self):
        # equal moduli, not a constant ratio, no trig witness: e_1 vs e_{-1}
        v = decide(scalar(poly((1, 1.0))), scalar(poly((-1, 1.0))), degree=6)
        assert v.kind in (UNKNOWN, EQUIVALENT)
        if v.kind == UNKNOWN:
            assert v.searched_degree == 6

    def test_unknown_names_the_search_that_ran(self):
        # a piecewise-constant phase makes a multi-piece scalar: no search runs
        steps = TrigPoly.from_pieces([(0, F(1, 3), [(0, 1.0)]), (F(1, 3), 1, [(0, 1j)])])
        H = catalog.get("haar").H
        v = decide(H, conjugate_filter(H, scalar(steps)))
        assert (v.kind, v.obstruction, v.searched_degree) == (UNKNOWN, None, None)
        assert v.diagnostics["note"].startswith("no multiplier search")
        # a constant m: only a constant multiplier is searched
        h = catalog.get("haar").H.entry(0, 0)
        s = catalog.get("shannon").H.entry(0, 0)
        twisted = TestMatrixPairs._diag(h.shift_frequencies(1) * 1j, s)
        v = decide(TestMatrixPairs._diag(h, s), twisted)
        assert (v.kind, v.searched_degree) == (UNKNOWN, 0)
        assert v.obstruction.kind == equivalence.NO_SOLUTION_UP_TO_DEGREE
        assert v.obstruction.detail == {"degree": 0}
        # m not constant: no search runs
        entry = catalog.get("journe")
        rows = [[TrigPoly.zero()] * 2 for _ in range(2)]
        for i, level in enumerate(sigma_sets(entry.m)):
            rows[i][i] = TrigPoly.exponential(1).restrict(level)
        A = FilterMatrix.from_rows(rows, entry.m, entry.e)
        v = decide(entry.H, conjugate_filter(entry.H, A))
        assert (v.kind, v.obstruction, v.searched_degree) == (UNKNOWN, None, None)
        assert v.diagnostics["note"].startswith("no multiplier search")


class TestMatrixPairs:
    @staticmethod
    def _diag(first, second):
        m2 = MultiplicityFunction.constant(2)
        z = TrigPoly.zero()
        return FilterMatrix.from_rows([[first, z], [z, second]], m2, N2)

    def test_swapped_diagonal_pair_is_equivalent(self):
        h = catalog.get("haar").H.entry(0, 0)
        s = catalog.get("shannon").H.entry(0, 0)
        H, Hp = self._diag(h, s), self._diag(s, h)
        assert verify_filter(H).passed and verify_filter(Hp).passed
        v = decide(H, Hp)
        assert v.kind == EQUIVALENT
        lifted = conjugate_filter(H, v.witness)
        for i in range(2):
            for j in range(2):
                assert lifted.entry(i, j).deviation_from(Hp.entry(i, j)) < 1e-8
        assert verify_filter(lifted).passed

    def test_different_singular_values_certified(self):
        h = catalog.get("haar").H.entry(0, 0)
        s = catalog.get("shannon").H.entry(0, 0)
        c = catalog.get("cohen").H.entry(0, 0)
        v = decide(self._diag(h, s), self._diag(h, c))
        assert v.kind == INEQUIVALENT
        assert v.obstruction.kind == equivalence.SINGULAR_VALUE_MISMATCH
        assert v.obstruction.detail["set"].measure() > 0

    def test_honest_unknown_for_unresolved_matrix_pair(self):
        # same singular values everywhere, no constant multiplier: the
        # exponential twist needs a non-constant witness
        h = catalog.get("haar").H.entry(0, 0)
        s = catalog.get("shannon").H.entry(0, 0)
        twisted = self._diag(h.shift_frequencies(1) * complex(0, 1), s)
        base = self._diag(h, s)
        v = decide(base, twisted)
        assert v.kind in (UNKNOWN, EQUIVALENT)


# ---- constant multipliers: the sign-swapped gap and random unitary conjugates ---


def _scalar_filters(N):
    """The catalog filters with m = 1 and dilation N that pass verify_filter."""
    return [
        name
        for name in catalog.names()
        if catalog.get(name).e.N == N
        and catalog.get(name).m == M1
        and verify_filter(catalog.get(name).H).passed
    ]


@st.composite
def block_diagonal_conjugates(draw):
    """diag(+-h_1, ..., +-h_r) of catalog scalars, r = 2 or 3, and its conjugate by
    a constant unitary: a random one, or a permutation (which takes diag(h, -h)
    to the sign-swapped diag(-h, h))."""
    N = draw(st.sampled_from([2, 3]))
    r = draw(st.sampled_from([2, 3]))
    names = draw(st.lists(st.sampled_from(_scalar_filters(N)), min_size=r, max_size=r))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=r, max_size=r))
    z = TrigPoly.zero()
    m, e = MultiplicityFunction.constant(r), TorusEndomorphism(N)
    rows = [[z] * r for _ in range(r)]
    for i, (name, sign) in enumerate(zip(names, signs)):
        rows[i][i] = catalog.get(name).H.entry(0, 0) * sign
    H = FilterMatrix.from_rows(rows, m, e)
    if draw(st.booleans()):
        U = np.eye(r)[draw(st.permutations(range(r)))]
    else:
        parts = st.floats(-1, 1, allow_nan=False)
        raw = np.array(draw(st.lists(parts, min_size=2 * r * r, max_size=2 * r * r)))
        U, _ = np.linalg.qr(raw[: r * r].reshape(r, r) + 1j * raw[r * r :].reshape(r, r))
    A = FilterMatrix.from_rows([[TrigPoly.constant(U[i, j]) for j in range(r)] for i in range(r)], m, e)
    return H, conjugate_filter(H, A)


@settings(max_examples=40, deadline=None)
@given(block_diagonal_conjugates())
def test_constant_unitary_conjugates_are_equivalent(pair):
    H, Hp = pair
    v = decide(H, Hp)
    assert v.kind == EQUIVALENT
    assert _max_deviation(conjugate_filter(H, v.witness), Hp) < 1e-9


class TestCatalogSweep:
    N2_ENTRIES = [
        "shannon", "haar", "haar_negated", "cohen",
        "shannon_reversed", "haar_reversed",
        "journe", "journe_rank2", "eigenfilter_constant",
    ]

    def test_decide_symmetric_on_catalog_pairs(self):
        # decided verdicts must agree under swapping the arguments
        for i, a in enumerate(self.N2_ENTRIES):
            for b in self.N2_ENTRIES[i:]:
                Ha, Hb = catalog.get(a).H, catalog.get(b).H
                fwd = decide(Ha, Hb)
                bwd = decide(Hb, Ha)
                if EQUIVALENT in (fwd.kind, bwd.kind):
                    assert fwd.kind == bwd.kind == EQUIVALENT, (a, b)
                if INEQUIVALENT in (fwd.kind, bwd.kind):
                    assert fwd.kind == bwd.kind == INEQUIVALENT, (a, b)

    def test_distinct_entries_never_equivalent_to_each_other(self):
        # every distinct catalog pair is either certified inequivalent or
        # an honest unknown; none should produce an (exactly verified)
        # witness, since all represent different classes
        for i, a in enumerate(self.N2_ENTRIES):
            for b in self.N2_ENTRIES[i + 1:]:
                v = decide(catalog.get(a).H, catalog.get(b).H)
                assert v.kind in (INEQUIVALENT, UNKNOWN), (a, b, v.kind)


class TestCertifiedWindows:
    def test_window_bound_holds(self):
        p = haar_poly() * haar_poly().conj()
        cert = certified_deviation_set(p, 1.0, 1e-9)
        assert cert.measure() > 0
        for lo, hi in cert.intervals:
            for t in range(5):
                x = lo + (hi - lo) * F(2 * t + 1, 10)
                assert abs(p.evaluate(x) - 1.0) > 1e-9


# ---- soundness of every certified window, at points across each window ------


@st.composite
def piecewise_polys(draw, scale=1.0):
    """A piecewise trig poly with coefficients 0.01 * scale <= |c| <= scale.

    The lower bound keeps every Lipschitz bound far above the rounding of
    ``evaluate``, so a window's claim is checked, not float noise.
    """
    b = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    cuts = sorted(draw(st.sets(st.integers(1, b - 1), max_size=3))) if b > 1 else []
    bounds = [F(0)] + [F(c, b) for c in cuts] + [F(1)]
    coefs = st.complex_numbers(
        min_magnitude=0.01 * scale, max_magnitude=scale, allow_nan=False, allow_infinity=False
    )
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        terms = draw(
            st.dictionaries(
                st.fractions(min_value=-3, max_value=3, max_denominator=3), coefs, max_size=3
            )
        )
        pieces.append((lo, hi, list(terms.items())))
    return TrigPoly.from_pieces(pieces)


MULTIPLICITIES = [
    MultiplicityFunction.constant(2),
    MultiplicityFunction.from_pieces([(0, F(1, 2), 2), (F(1, 2), 1, 1)]),
    MultiplicityFunction.from_pieces([(0, F(1, 3), 2), (F(1, 3), F(2, 3), 1)]),
]


@st.composite
def diagonal_pairs(draw):
    """Two 2x2 block-diagonal filters over one (m, N), entries scaled near 1.

    The second filter nudges the first's (1,1) entry by a small poly, so
    a singular value gap crosses zero inside many cells.
    """
    m = draw(st.sampled_from(MULTIPLICITIES))
    e = TorusEndomorphism(draw(st.sampled_from([2, 3])))
    scale = draw(st.sampled_from([0.4, 0.7, 1.0]))
    diagonal = [draw(piecewise_polys(scale)) for _ in range(2)]
    nudged = [diagonal[0] + draw(piecewise_polys(0.05)), diagonal[1]]
    z = TrigPoly.zero()
    return tuple(
        FilterMatrix.from_rows([[a, z], [z, b]], m, e) for a, b in (diagonal, nudged)
    )


def fraction_deviation_set(p, target, margin, samples=24):
    """Reference windows of ``certified_deviation_set``: Fraction sample points and radii
    on the Fraction pieces, each window read by ``TorusSet.from_intervals``."""
    windows = []
    for lo, hi, terms in p.pieces:
        lipschitz = sum(abs(c) * math.tau * abs(float(nu)) for nu, c in terms)

        def gap_at(x):
            return abs(sum((c * unit_phase(nu * x) for nu, c in terms), 0j) - target) - margin

        if lipschitz == 0.0:
            if gap_at((lo + hi) / 2) > 0:
                windows.append((lo, hi))
            continue
        for s in range(samples):
            x = lo + (hi - lo) * F(2 * s + 1, 2 * samples)
            gap = gap_at(x)
            if gap > 0:
                r = F(max(math.floor(gap / (2 * lipschitz) * 2**30), 0), 2**30)
                if max(lo, x - r) < min(hi, x + r):
                    windows.append((max(lo, x - r), min(hi, x + r)))
    return TorusSet.from_intervals(windows)


def _points_across(ts):
    """The points lo + (hi - lo) * k/11, k = 0..10, of every interval of ts."""
    for lo, hi in ts.intervals:
        for k in range(11):
            yield lo + (hi - lo) * F(k, 11)


def _active_block(H, x):
    rows, cols = H.m.value_at(H.e.image(x)), H.m.value_at(x)
    return H.value_at(x)[:rows, :cols] if rows and cols else None


def _singular_values(block):
    return np.sort(np.linalg.svd(block, compute_uv=False))[::-1]


class TestCertifiedWindowSoundness:
    @settings(max_examples=50, deadline=None)
    @given(
        piecewise_polys(),
        st.sampled_from([0.0, 1.0, 0.5j]),
        st.sampled_from([1e-9, 0.25]),
    )
    def test_deviation_set(self, p, target, margin):
        for x in _points_across(certified_deviation_set(p, target, margin)):
            assert abs(p.evaluate(x) - target) > margin, x

    @settings(max_examples=50, deadline=None)
    @given(
        piecewise_polys(),
        st.sampled_from([0.0, 1.0, 0.5j]),
        st.sampled_from([1e-9, 0.25]),
    )
    def test_deviation_set_is_that_of_fraction_points(self, p, target, margin):
        assert certified_deviation_set(p, target, margin) == fraction_deviation_set(
            p, target, margin
        )

    @settings(max_examples=50, deadline=None)
    @given(diagonal_pairs())
    def test_low_singular_certificate(self, pair):
        H, _ = pair
        for x in _points_across(low_singular_certificate(H, 1e-9)):
            block = _active_block(H, x)
            if block is not None:
                assert _singular_values(block)[0] < 1.0 - 1e-9, x

    @settings(max_examples=50, deadline=None)
    @given(diagonal_pairs())
    def test_singular_value_mismatch(self, pair):
        H, Hp = pair
        obstruction = invariant_check(H, Hp, 1e-9)
        if obstruction is None:
            return
        assert obstruction.kind == "singular_value_mismatch"
        for x in _points_across(obstruction.detail["set"]):
            a, b = _active_block(H, x), _active_block(Hp, x)
            gap = np.abs(_singular_values(a) - _singular_values(b)).max()
            assert gap > 1e-7, x  # the margin max(tol, 1e-7) of invariant_check

    @settings(max_examples=50, deadline=None)
    @given(piecewise_polys(), piecewise_polys(0.05))
    def test_moduli_mismatch(self, h, nudge):
        hp = h + nudge
        obstruction = invariant_check(scalar(h), scalar(hp), 1e-9)
        if obstruction is None:
            return
        for x in _points_across(obstruction.detail["set"]):
            assert abs(abs(h.evaluate(x)) ** 2 - abs(hp.evaluate(x)) ** 2) > 1e-9, x


# ---- the batched evaluation behind every certificate window --------------------


class TestBatchedEvaluation:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(piecewise_polys(), min_size=1, max_size=4),
        st.sampled_from([1, 2, 24, 48, 7 * 2**20, 2**31 - 1]),
        st.data(),
    )
    def test_values_are_those_of_value_bit_for_bit(self, polys, scale, data):
        """One call over the cells of several polys (mixed fden) at points p/q, among them
        the breakpoints when q is a multiple of every den, equals ``_value`` at each."""
        q = scale * math.lcm(*[p.den for p in polys])
        points = data.draw(st.lists(
            st.tuples(st.integers(0, len(polys) - 1), st.integers(0, q - 1)),
            min_size=1, max_size=30,
        ))
        rows = [(p.fden, terms) for p in polys for _, _, terms in p.cells]
        first = np.cumsum([0] + [len(p.cells) for p in polys])
        where = np.array([first[i] + cell_at(polys[i].cells, polys[i].den, x, q)
                          for i, x in points])
        values = _terms_values(rows, where, np.array([x for _, x in points]), q)
        for (i, x), value in zip(points, values):
            want = polys[i]._value(x, q)
            assert (value.real, value.imag) == (want.real, want.imag), (i, x, q)

    def test_values_in_many_blocks_are_those_of_value(self):
        """More points than one block of ``GRID_BLOCK``, over every catalog entry."""
        polys = [catalog.get(name).H.entry(i, j) for name in catalog.names()
                 for i in range(catalog.get(name).H.rows) for j in range(catalog.get(name).H.cols)]
        q = 2 * 3 * 5 * 7 * 11 * 13 * math.lcm(*[p.den for p in polys])
        points = [(i, x) for i in range(len(polys)) for x in range(0, q, q // 199 + 1)]
        rows = [(p.fden, terms) for p in polys for _, _, terms in p.cells]
        first = np.cumsum([0] + [len(p.cells) for p in polys])
        where = np.array([first[i] + cell_at(polys[i].cells, polys[i].den, x, q)
                          for i, x in points])
        assert len(points) > 2 * GRID_BLOCK
        values = _terms_values(rows, where, np.array([x for _, x in points]), q)
        for (i, x), value in zip(points, values):
            want = polys[i]._value(x, q)
            assert (value.real, value.imag) == (want.real, want.imag), (i, x)

    def test_values_past_int64_are_those_of_value(self):
        """Frequency and point denominators past 2^62 take the per-point fallback."""
        a, b = 4294967291, 4294967279  # primes: their product is past 2^63
        piecewise = TrigPoly.from_pieces([
            (0, F(1, a), []),
            (F(1, a), F(2, b), [(F(5, a * b), 0.5j), (F(-7, 3), 1.25)]),
        ])
        polys = [piecewise, TrigPoly.from_pieces([(0, 1, [(F(1, 3), 2 - 1j), (F(a, b), 1.0)])])]
        q = 2 * 24 * a * b
        points = [(i, x) for i in range(2) for x in (0, 1, q // (2 * a), q // 3, q - 1)]
        rows = [(p.fden, terms) for p in polys for _, _, terms in p.cells]
        first = np.cumsum([0] + [len(p.cells) for p in polys])
        where = np.array([first[i] + cell_at(polys[i].cells, polys[i].den, x, q)
                          for i, x in points])
        values = _terms_values(rows, where, np.array([x for _, x in points], dtype=object), q)
        for (i, x), value in zip(points, values):
            want = polys[i]._value(x, q)
            assert (value.real, value.imag) == (want.real, want.imag), (i, x)

    def test_deviation_set_past_int64_is_that_of_fraction_points(self):
        a, b = 4294967291, 4294967279
        p = TrigPoly.from_pieces([(F(1, a), F(2, b), [(F(1, 2), 0.75), (F(3, a), 0.5j)]),
                                  (F(2, b), 1, [(F(-1, 3), 1.0)])])
        assert p.den * 48 >= 2**62
        for target, margin in ((0.0, 0.1), (1.0, 1e-9)):
            assert certified_deviation_set(p, target, margin) == fraction_deviation_set(
                p, target, margin
            )

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    def test_stacked_svd_is_per_matrix_svd(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        stack = rng.normal(size=(64, rows, 2 * cols)) + 1j * rng.normal(size=(64, rows, 2 * cols))
        stack[::7, 0] = 0.0  # some rank-deficient blocks
        # the halves of a joined [H block | H' block] stack, as invariant_check splits them
        halves = np.concatenate((stack[..., :cols], stack[..., cols:]))
        batched = np.linalg.svd(halves, compute_uv=False)
        for matrix, sv in zip(halves, batched):
            assert np.linalg.svd(matrix, compute_uv=False).tobytes() == sv.tobytes()


def per_point_ratio(h, hp, tol):
    """The ratio of ``constant_ratio_obstruction`` from its per-point scan: the first point
    t/64 of strictly largest |h| (a NaN never wins), None if |h| <= tol there."""
    best_t, best_mag = None, 0.0
    for t in range(64):
        mag = abs(h._value(t, 64))
        if mag > best_mag:
            best_t, best_mag = t, mag
    return None if best_mag <= tol else hp._value(best_t, 64) / h._value(best_t, 64)


class TestRatioScan:
    @settings(max_examples=100, deadline=None)
    @given(piecewise_polys(), st.sampled_from([-1.0, 1j, 0.5 - 2j]))
    def test_ratio_is_that_of_the_per_point_scan(self, h, c):
        if h.support().measure() != 1:
            return
        want = per_point_ratio(h, h * c, 1e-9)
        try:
            got = constant_ratio_obstruction(h, h * c, 1e-9).detail["ratio"]
        except NotApplicable:
            got = None
        assert got == want

    @pytest.mark.parametrize("h", [TrigPoly.exponential(1, 2.0), TrigPoly.exponential(3, -1j),
                                   poly((0, 1.0), (64, 1.0))])
    def test_first_largest_modulus_wins(self, h):
        """|h| is flat, or peaks at every t/64: the first strictly largest float wins."""
        got = constant_ratio_obstruction(h, h * 1j).detail["ratio"]
        assert got == per_point_ratio(h, h * 1j, 1e-9)


def per_point_invariant(H, Hp, tol):
    """The matrix rung of ``invariant_check`` one sample point at a time: every entry by
    ``_terms_value`` and every block by its own SVD; the first certified window's set
    and gap, or None."""
    margin, samples = max(tol, 1e-7), 16
    den, cells = equivalence._matrix_cells(H, Hp)
    q, unit = 2 * samples * den, 2 * samples * 2**30
    for lo, hi, blocks in cells:
        if not blocks[0]:
            continue
        lipschitz = sum(equivalence._block_lipschitz(block) for block in blocks)

        def gap_at(p, q):
            sv = [
                np.linalg.svd(np.array([[_terms_value(t, d, p, q) for d, t in row]
                                        for row in block], dtype=complex), compute_uv=False)
                for block in blocks
            ]
            return float(np.abs(sv[0] - sv[1]).max()) - margin

        if lipschitz == 0.0:
            windows = [((lo * unit, hi * unit), gap_at(lo + hi, 2 * den))]
        else:
            windows = []
            for s in range(samples):
                p = 2 * samples * lo + (2 * s + 1) * (hi - lo)
                gap = gap_at(p, q)
                if gap > 0:
                    r = max(math.floor(gap / (2 * lipschitz) * 2**30), 0) * q
                    windows.append(((max(lo * unit, p * 2**30 - r),
                                     min(hi * unit, p * 2**30 + r)), gap))
        for (a, b), gap in windows:
            if gap > 0 and a < b:
                return TorusSet.from_spans(den * unit, [(a, b)]), gap + margin
    return None


class TestBatchedInvariant:
    @settings(max_examples=50, deadline=None)
    @given(diagonal_pairs())
    def test_obstruction_is_that_of_per_point_evaluation(self, pair):
        H, Hp = pair
        obstruction = invariant_check(H, Hp, 1e-9)
        want = per_point_invariant(H, Hp, 1e-9)
        if want is None:
            assert obstruction is None
        else:
            assert (obstruction.detail["set"], obstruction.detail["gap"]) == want

    @pytest.mark.parametrize(
        "names", [("journe", "journe_rank2"), ("journe_rank2", "journe"), ("journe", "journe")]
    )
    def test_matrix_pairs_on_the_catalog(self, names):
        H, Hp = (catalog.get(name).H for name in names)
        obstruction = invariant_check(H, Hp)
        got = obstruction and (obstruction.detail["set"], obstruction.detail["gap"])
        assert got == per_point_invariant(H, Hp, equivalence.DEFAULT_TOL)
