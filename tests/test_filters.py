import math
import random
from fractions import Fraction

import pytest
from conftest import conjugated, reparsed

from gmra import catalog
from gmra.equivalence import EQUIVALENT, decide
from gmra.errors import CompletionFailed, ContextMismatch, NotUnitary
from gmra.filters import (
    FilterMatrix,
    VerificationReport,
    check_block_unitary,
    complement_numeric,
    conjugate_filter,
    identity_multiplier,
    verify_complementary,
    verify_complementary_grid,
    verify_filter,
    worst_residual,
)
from gmra.ruelle import cuntz_check
from gmra.multiplicity import MultiplicityFunction, sigma_sets
from gmra.torus import TorusEndomorphism
from gmra.trigpoly import TrigPoly, integrate

F = Fraction
N2 = TorusEndomorphism(2)
M1 = MultiplicityFunction.constant(1)
SQRT2 = math.sqrt(2.0)


def poly(*terms):
    return TrigPoly.from_pieces([(0, 1, [(F(n), c) for n, c in terms])])


def scalar_filter(p, m=M1, e=N2, rows_follow="m"):
    return FilterMatrix.scalar(p, m, e, rows_follow)


class TestVerifyFilter:
    def test_constant_one_passes(self):
        rep = verify_filter(scalar_filter(poly((0, 1.0))))
        assert rep.passed and rep.max_residual < 1e-12

    def test_cohen_passes(self):
        rep = verify_filter(catalog.get("cohen").H)
        assert rep.passed

    def test_journe_passes(self):
        rep = verify_filter(catalog.get("journe").H)
        assert rep.passed and not rep.violations

    def test_unnormalized_haar_fails_with_residual_two(self):
        rep = verify_filter(catalog.get("haar_unnormalized").H)
        assert not rep.passed
        assert abs(rep.max_residual - 2.0) < 1e-12

    def test_support_violation_reported(self):
        # sigma_1 = [0,1/2) but the entry lives on the whole circle
        m = MultiplicityFunction.from_pieces([(0, F(1, 2), 1)])
        H = scalar_filter(poly((0, SQRT2)), m=m)
        rep = verify_filter(H)
        assert not rep.passed
        assert any("column support" in v for v in rep.violations)

    def test_dims_too_small(self):
        m = MultiplicityFunction.from_pieces([(0, F(1, 2), 2), (F(1, 2), 1, 1)])
        with pytest.raises(ContextMismatch):
            verify_filter(scalar_filter(poly((0, 1.0)), m=m))

    def test_energy_identity(self):
        # integral of sum |entries|^2 equals the total measure of the
        # level sets (trace of the fold identity, integrated)
        for name in ("haar", "shannon", "journe", "haar3_2wavelet"):
            entry = catalog.get(name)
            total = sum(
                integrate(h * h.conj()).real
                for row in entry.H.entries
                for h in row
            )
            expected = float(
                sum((s.measure() for s in sigma_sets(entry.m)), F(0))
            )
            assert abs(total - expected) < 1e-9


class TestVerifyComplementary:
    def test_haar_pair(self):
        entry = catalog.get("haar")
        assert verify_complementary(entry.G, entry.H).passed

    def test_journe_pair(self):
        entry = catalog.get("journe")
        assert verify_complementary(entry.G, entry.H).passed

    def test_dilation3_pair(self):
        entry = catalog.get("haar3_2wavelet")
        assert verify_complementary(entry.G, entry.H).passed

    def test_context_mismatch(self):
        haar = catalog.get("haar")
        journe = catalog.get("journe")
        with pytest.raises(ContextMismatch):
            verify_complementary(journe.G, haar.H)

    def test_broken_complement_fails(self):
        entry = catalog.get("haar")
        bad = FilterMatrix.from_rows(
            [[entry.G.entry(0, 0) * 2.0]], entry.m, entry.e, "mtilde"
        )
        rep = verify_complementary(bad, entry.H)
        assert not rep.passed


class TestConjugateFilter:
    def test_exponential_multiplier_on_haar(self):
        entry = catalog.get("haar")
        A = scalar_filter(poly((1, 1.0)))
        out = conjugate_filter(entry.H, A)
        expected = poly((0, 1 / SQRT2), (1, 1 / SQRT2))
        assert out.entry(0, 0).deviation_from(expected) < 1e-12

    def test_identity_multiplier_fixes_filter(self):
        entry = catalog.get("journe")
        A = identity_multiplier(entry.m, entry.e)
        out = conjugate_filter(entry.H, A)
        for i in range(entry.H.rows):
            for j in range(entry.H.cols):
                assert out.entry(i, j).deviation_from(entry.H.entry(i, j)) < 1e-12

    def test_sign_multiplier_commutes(self):
        entry = catalog.get("haar")
        A = scalar_filter(poly((0, -1.0)))
        out = conjugate_filter(entry.H, A)
        assert out.entry(0, 0).deviation_from(entry.H.entry(0, 0)) < 1e-12

    def test_not_unitary_rejected(self):
        entry = catalog.get("haar")
        A = scalar_filter(poly((0, 0.5)))
        with pytest.raises(NotUnitary):
            conjugate_filter(entry.H, A)

    def test_multiplier_vanishing_between_grid_points_rejected(self):
        # |(1 + e(128w))/2| = |cos(128 pi w)| is 1 on the grid j/128 but 0 at w = 1/256
        A = scalar_filter(poly((0, 0.5), (128, 0.5)))
        assert check_block_unitary(A) >= 1.0
        with pytest.raises(NotUnitary):
            conjugate_filter(catalog.get("haar").H, A)

    def test_nonzero_entry_outside_the_block_rejected(self):
        # A A* = diag(1, 0) = P over m = 1, but A* A is not: entry (0, 1) leaks
        half = poly((0, 1 / SQRT2))
        zero = TrigPoly.zero()
        A = FilterMatrix.from_rows([[half, half], [zero, zero]], M1, N2)
        assert check_block_unitary(A) >= 0.5
        with pytest.raises(NotUnitary):
            conjugate_filter(catalog.get("haar").H, A)

    def test_entries_outside_the_stored_shape_are_zero(self):
        H = catalog.get("haar").H
        assert H.entry(0, 0) is H.entries[0][0]
        assert all(H.entry(i, j).is_zero() for i, j in [(0, 1), (1, 0), (3, 5)])
        zero = TrigPoly.zero()
        padded = FilterMatrix.from_rows([[H.entry(0, 0), zero], [zero, zero]], H.m, H.e)
        verdict = decide(H, padded)
        assert verdict.kind == EQUIVALENT
        assert check_block_unitary(verdict.witness) == 0.0
        assert verdict.witness.entries == identity_multiplier(H.m, H.e).entries

    @pytest.mark.parametrize("name", ["journe", "cantor3", "haar3_2wavelet", "journe_rank2"])
    def test_complementary_filter_refused(self, name):
        # G's rows follow mtilde, so A(N w) G(w) A*(w) would pair them with m-blocks of A
        entry = catalog.get(name)
        P = identity_multiplier(entry.m, entry.e)
        A = FilterMatrix.from_rows(
            [[x * poly((1, 1.0)) for x in row] for row in P.entries], entry.m, entry.e
        )
        assert verify_filter(conjugate_filter(entry.H, A)).passed
        with pytest.raises(ContextMismatch):
            conjugate_filter(entry.G, A)

    def test_filterhood_preserved(self):
        entry = catalog.get("haar")
        for terms in [[(1, 1.0)], [(0, 1j)], [(2, 1.0)]]:
            A = scalar_filter(poly(*terms))
            assert verify_filter(conjugate_filter(entry.H, A)).passed


class TestComplementNumeric:
    def test_haar_grid_completion(self):
        entry = catalog.get("haar")
        G, rep = complement_numeric(entry.H, grid=256)
        assert rep.passed and rep.max_residual < 1e-9
        assert verify_complementary_grid(G, entry.H).passed

    def test_journe_grid_completion(self):
        entry = catalog.get("journe")
        G, rep = complement_numeric(entry.H, grid=1024)
        assert rep.passed and rep.max_residual < 1e-9

    def test_trivial_completion_rows(self):
        entry = catalog.get("eigenfilter_constant")
        G, rep = complement_numeric(entry.H, grid=64)
        assert rep.passed
        N, grid = 2, 64
        for t in range(grid):
            z0 = G.samples[0, 0, t]
            z1 = G.samples[0, 0, t + grid]
            assert abs(abs(z0) ** 2 + abs(z1) ** 2 - 2.0) < 1e-9
            # cross term against h = 1 at both preimages
            assert abs(z0 + z1) < 1e-9

    def test_grid_ruelle_application_is_isometric(self):
        from gmra.ruelle import SectionVector, apply_S_grid

        entry = catalog.get("haar")
        G, _ = complement_numeric(entry.H, grid=128)
        f = SectionVector.canonical(tuple(entry.G.row_sets), 0)
        out = apply_S_grid(G, f)
        assert abs(out.norm_estimate() - f.norm()) < 1e-6


class TestNonFiniteFailsClosed:
    @staticmethod
    def nan_haar():
        entry = catalog.get("haar")
        h = entry.H.entry(0, 0) + poly((2, complex(math.nan, 0.0)))
        return entry, scalar_filter(h)

    def test_worst_residual_keeps_nan_and_inf(self):
        assert math.isnan(worst_residual([0.0, math.nan, 1.0]))
        assert worst_residual([0.5, math.inf]) == math.inf
        assert worst_residual([]) == 0.0

    def test_nan_in_a_grid_sample(self):
        entry = catalog.get("haar")
        G, _ = complement_numeric(entry.H, grid=32)
        assert verify_complementary_grid(G, entry.H).passed
        G.samples[0, 0, 5] = math.nan
        rep = verify_complementary_grid(G, entry.H)
        assert not rep.passed and math.isnan(rep.max_residual)

    def test_nan_in_a_filter_entry(self):
        entry, H = self.nan_haar()
        assert not verify_filter(H).passed
        assert not cuntz_check(H, entry.G, trials=0).passed
        with pytest.raises(CompletionFailed):
            complement_numeric(H, grid=16)

    def test_nan_in_a_G_entry(self):
        entry = catalog.get("haar")
        g = entry.G.entry(0, 0) + poly((3, complex(math.nan, 0.0)))
        G = scalar_filter(g, rows_follow="mtilde")
        for rep in (cuntz_check(entry.H, G), verify_complementary(G, entry.H)):
            assert not rep.passed and math.isnan(rep.max_residual)

    def test_nan_in_a_later_identity(self):
        # gg(1,1) comes first and is finite; only gh(1,1) is NaN
        entry, H = self.nan_haar()
        rep = verify_complementary(entry.G, H)
        assert list(rep.identities) == ["gg(1,1)", "gh(1,1)"]
        assert rep.identities["gg(1,1)"] < 1e-12
        assert math.isnan(rep.identities["gh(1,1)"])
        assert not rep.passed and math.isnan(rep.max_residual)

    def test_merge_keeps_nan(self):
        ok = VerificationReport(passed=True, max_residual=0.0, tolerance=1e-9)
        bad = VerificationReport(passed=False, max_residual=math.nan, tolerance=1e-9)
        assert math.isnan(ok.merge(bad).max_residual)

    def test_nan_multiplier_is_not_unitary(self):
        A = scalar_filter(poly((0, complex(math.nan, 0.0))))
        with pytest.raises(NotUnitary):
            conjugate_filter(catalog.get("haar").H, A)


PAIRED = [name for name in catalog.names() if catalog.get(name).G is not None]


def with_conjugates(name):
    """The catalog pair and its entrywise conjugates by 2 and 3 arcs."""
    entry, rng = catalog.get(name), random.Random(name)
    return [(entry.H, entry.G)] + [conjugated(entry, pieces, rng) for pieces in (2, 3)]


class TestFoldTables:
    @pytest.mark.parametrize("name", PAIRED)
    def test_tables_change_no_report(self, name):
        # the first round may fill the tables on H and G, the second reads them
        for H, G in with_conjugates(name):
            for _ in range(2):
                assert verify_filter(H) == verify_filter(reparsed(H))
                assert verify_complementary(G, H) == verify_complementary(reparsed(G), reparsed(H))
                assert cuntz_check(H, G) == cuntz_check(reparsed(H), reparsed(G))

    @pytest.mark.parametrize("tols", [(1e-9, 1e-30), (1e-30, 1e-9)])
    def test_each_call_applies_its_own_tolerance(self, tols):
        # the conjugates' residuals sit between the two tolerances
        for H, G in with_conjugates("haar")[1:]:
            for tol in tols:
                reports = (verify_filter(H, tol), verify_complementary(G, H, tol),
                           cuntz_check(H, G, tol=tol))
                for rep in reports:
                    assert 1e-30 < rep.max_residual < 1e-9
                    assert rep.tolerance == tol and rep.passed == (tol == 1e-9)

    def test_nan_fails_closed_when_repeated(self):
        entry, H = TestNonFiniteFailsClosed.nan_haar()
        G = reparsed(entry.G)
        for _ in range(2):
            for rep in (verify_filter(H), verify_complementary(G, H), cuntz_check(H, G)):
                assert not rep.passed and math.isnan(rep.max_residual)
