import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from conftest import circle_sets, conjugated, reparsed
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import catalog, filters, ruelle
from gmra.errors import ContextMismatch
from gmra.filters import FilterMatrix, conjugate_filter, verify_complementary, verify_filter
from gmra.multiplicity import MultiplicityFunction, sigma_sets
from gmra.ruelle import (
    SectionVector,
    apply_S,
    apply_S_adjoint,
    canonical_vectors,
    cuntz_check,
    random_section,
)
from gmra.torus import TorusEndomorphism, TorusSet
from gmra.trigpoly import TrigPoly, compose_endomorphism, gated_sum

F = Fraction
SQRT2 = math.sqrt(2.0)
N2 = TorusEndomorphism(2)
M1 = MultiplicityFunction.constant(1)


def poly(*terms):
    return TrigPoly.from_pieces([(0, 1, [(F(n), c) for n, c in terms])])


def c1(F_):
    return SectionVector.canonical(tuple(F_.row_sets), 0)


class TestApply:
    def test_shannon_maps_c1_to_h(self):
        H = catalog.get("shannon").H
        out = apply_S(H, c1(H))
        assert out.components[0].deviation_from(H.entry(0, 0)) < 1e-12

    def test_haar_maps_c1_to_h(self):
        H = catalog.get("haar").H
        out = apply_S(H, c1(H))
        assert out.components[0].deviation_from(H.entry(0, 0)) < 1e-12

    def test_zero_filter_gives_zero(self):
        Z = FilterMatrix.scalar(TrigPoly.zero(), M1, N2)
        out = apply_S(Z, c1(Z))
        assert all(c.is_zero() for c in out.components)

    def test_context_mismatch(self):
        H = catalog.get("journe").H
        wrong = SectionVector.canonical((TorusSet.full(),), 0)
        with pytest.raises(ContextMismatch):
            apply_S(H, wrong)


class TestAdjoint:
    def test_isometry_on_canonical(self):
        H = catalog.get("haar").H
        v = c1(H)
        back = apply_S_adjoint(H, apply_S(H, v))
        assert (back - v).norm() < 1e-12

    def test_shannon_adjoint_of_c1(self):
        # (1/2)(h(w/2) + h(w/2 + 1/2)) = 1/sqrt(2) on the whole circle
        H = catalog.get("shannon").H
        out = apply_S_adjoint(H, c1(H))
        assert out.components[0].deviation_from(
            TrigPoly.constant(1 / SQRT2)
        ) < 1e-12

    def test_adjoint_of_zero(self):
        H = catalog.get("haar").H
        zero = SectionVector.zero(tuple(H.column_sets))
        assert apply_S_adjoint(H, zero).norm() == 0

    def test_adjoint_pairing(self):
        # <S f, g> == <f, S* g> on seeded random pairs, for every catalog H and G
        rng = random.Random(11)
        for name in catalog.names():
            entry = catalog.get(name)
            for F_ in (entry.H, entry.G):
                if F_ is None:
                    continue
                for _ in range(3):
                    f = random_section(F_.row_sets, rng, degree=4)
                    g = random_section(F_.column_sets, rng, degree=4)
                    lhs = apply_S(F_, f).inner(g)
                    rhs = f.inner(apply_S_adjoint(F_, g))
                    assert abs(lhs - rhs) < 1e-9, (name, lhs, rhs)


class TestCuntz:
    def test_haar_identities(self):
        entry = catalog.get("haar")
        rep = cuntz_check(entry.H, entry.G, trials=5, seed=3)
        assert rep.passed and rep.max_residual < 1e-9

    def test_journe_identities(self):
        entry = catalog.get("journe")
        rep = cuntz_check(entry.H, entry.G, trials=5, seed=3)
        assert rep.passed and rep.max_residual < 1e-9

    def test_scaled_filter_fails_by_three(self):
        entry = catalog.get("haar")
        doubled = FilterMatrix.scalar(entry.H.entry(0, 0) * 2.0, entry.m, entry.e)
        rep = cuntz_check(doubled, entry.G, trials=0, seed=0)
        assert not rep.passed
        assert abs(rep.identities["SH*SH=I"] - 3.0) < 1e-9

    def test_default_applies_no_operator(self, monkeypatch):
        # the bounds come from the folds alone: no section is lifted or folded back
        def refuse(*args):
            raise AssertionError("cuntz_check applied an operator to a section")

        monkeypatch.setattr(ruelle, "apply_S", refuse)
        monkeypatch.setattr(ruelle, "apply_S_adjoint", refuse)
        entry = catalog.get("journe")
        rep = cuntz_check(entry.H, entry.G)
        assert list(rep.identities) == ["SH*SH=I", "SG*SG=I", "SH*SG=0", "SHSH*+SGSG*=I"]
        assert rep.passed and rep.max_residual < 1e-14

    def test_trials_add_the_probe_keys(self):
        entry = catalog.get("cantor3")
        rep = cuntz_check(entry.H, entry.G, trials=2, seed=7)
        bounds = cuntz_check(entry.H, entry.G).identities
        assert {k: v for k, v in rep.identities.items() if not k.startswith("probe ")} == bounds
        for key, bound in bounds.items():
            assert rep.identities[f"probe {key}"] <= bound + ruelle.PROBE_SLACK
        assert rep.passed and not rep.violations

    def test_probe_above_its_bound_is_a_violation(self, monkeypatch):
        # with every fold read as exact, the bounds are 0 while the doubled filter is off by 3;
        # a fresh G keeps the zero tables off the catalog's objects
        entry = catalog.get("haar")
        doubled = FilterMatrix.scalar(entry.H.entry(0, 0) * 2.0, entry.m, entry.e)
        G = FilterMatrix.scalar(entry.G.entry(0, 0), entry.m, entry.e, "mtilde")
        monkeypatch.setattr(filters, "fold_residuals", lambda N, jobs: [0.0] * len(jobs))
        rep = cuntz_check(doubled, G, trials=1, seed=0)
        assert rep.identities["SH*SH=I"] == 0.0
        assert abs(rep.identities["probe SH*SH=I"] - 3.0) < 1e-9
        assert any(v.startswith("probe SH*SH=I") for v in rep.violations)
        assert not rep.passed

    @pytest.mark.parametrize("theta", [0.3, -1.1, math.pi / 2])
    def test_rotated_complement_reads_its_cross_term(self, theta):
        # G' = cos(t) G + sin(t) H: S_H* S_G' is multiplication by sin(t), of norm |sin(t)|
        entry = catalog.get("haar")
        h, g = entry.H.entry(0, 0), entry.G.entry(0, 0)
        rotated = g * math.cos(theta) + h * math.sin(theta)
        G = FilterMatrix.scalar(rotated, entry.m, entry.e, "mtilde")
        rep = cuntz_check(entry.H, G, trials=2, seed=1)
        assert abs(rep.identities["SH*SG=0"] - abs(math.sin(theta))) < 1e-12
        assert rep.identities["SG*SG=I"] < 1e-12
        assert rep.identities["probe SH*SG=0"] <= rep.identities["SH*SG=0"] + 1e-12
        assert rep.identities["probe SHSH*+SGSG*=I"] <= rep.identities["SHSH*+SGSG*=I"] + 1e-12
        assert not rep.violations and not rep.passed

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_mixed_rows_count_the_off_diagonal_twice(self, t):
        # journe row 1 += t * row 2: S_H* S_H - I is [[t^2, t], [t, 0]] on sigma_2, whose
        # Frobenius norm sqrt(t^4 + 2 t^2) is the bound and bounds the spectral norm
        entry = catalog.get("journe")
        (a, b), (c, d) = entry.H.entries
        H = FilterMatrix.from_rows([[a + c * t, b + d * t], [c, d]], entry.m, entry.e)
        rep = cuntz_check(H, entry.G, trials=3, seed=2)
        assert abs(rep.identities["SH*SH=I"] - math.sqrt(t**4 + 2 * t**2)) < 1e-12
        assert rep.identities["SH*SH=I"] >= (t * t + math.sqrt(t**4 + 4 * t**2)) / 2
        assert not rep.violations

    @pytest.mark.parametrize(
        "name, slot",
        [("cantor3", "G"), ("haar", "H")],
        ids=["dilations-differ", "low-pass-in-the-G-slot"],
    )
    def test_pair_outside_one_context_is_rejected(self, name, slot):
        H, G = catalog.get("haar").H, getattr(catalog.get(name), slot)
        with pytest.raises(ContextMismatch):
            cuntz_check(H, G)
        with pytest.raises(ContextMismatch):
            verify_complementary(G, H)

    def test_G_entry_outside_its_block_is_a_violation(self):
        # a 1e-14 leak moves no bound past the tolerance; the structure check alone fails it
        entry = catalog.get("journe")
        leak = TrigPoly.from_pieces([(F(1, 2), F(5, 8), [(F(0), 1e-14)])])
        (g0, g1), = entry.G.entries
        G = FilterMatrix.from_rows([[g0, g1 + leak]], entry.m, entry.e, "mtilde")
        rep = cuntz_check(entry.H, G)
        assert rep.max_residual < 1e-9
        assert any("entry (1,2) leaks outside column support" in v for v in rep.violations)
        assert not rep.passed

    def test_isometry_norm_preservation(self):
        rng = random.Random(23)
        for name in ("haar", "journe", "haar3_2wavelet"):
            H = catalog.get(name).H
            for _ in range(3):
                f = random_section(tuple(H.row_sets), rng, degree=5)
                assert abs(apply_S(H, f).norm() - f.norm()) < 1e-9


def rotated_low_pass(theta):
    """cos(t) h + sin(t) g of haar as a low-pass filter: its cross folds with G are not 0."""
    entry = catalog.get("haar")
    h, g = entry.H.entry(0, 0), entry.G.entry(0, 0)
    return FilterMatrix.scalar(h * math.cos(theta) + g * math.sin(theta), entry.m, entry.e)


class TestFoldTablesShared:
    @pytest.mark.parametrize("partner", ["haar_negated", "rotated"])
    def test_partners_stay_apart(self, partner):
        haar = catalog.get("haar")
        H, G = reparsed(haar.H), reparsed(haar.G)
        H2 = rotated_low_pass(0.3) if partner == "rotated" else reparsed(catalog.get(partner).H)
        assert verify_complementary(G, H) == verify_complementary(reparsed(G), reparsed(H))
        rep = cuntz_check(H2, G)
        assert rep == cuntz_check(reparsed(H2), reparsed(G))
        assert rep == cuntz_check(H2, G)
        assert cuntz_check(H, G) == cuntz_check(reparsed(H), reparsed(G))
        if partner == "rotated":
            assert abs(rep.identities["SH*SG=0"] - math.sin(0.3)) < 1e-12
            assert verify_complementary(G, H2) != verify_complementary(G, H)

    def test_mismatched_pair_raises_after_the_tables_fill(self):
        haar = catalog.get("haar")
        H, G = reparsed(haar.H), reparsed(haar.G)
        assert verify_complementary(G, H).passed and cuntz_check(H, G).passed
        other = reparsed(catalog.get("cantor3").G)
        verify_filter(other)
        for pair in ((G, H), (H, other)):  # roles swapped; dilations differ
            with pytest.raises(ContextMismatch):
                cuntz_check(*pair)
            with pytest.raises(ContextMismatch):
                verify_complementary(pair[1], pair[0])

    def test_cuntz_check_folds_nothing_after_the_verifies(self, monkeypatch):
        entry = catalog.get("journe")
        H, G = reparsed(entry.H), reparsed(entry.G)
        calls = []

        def counted(*args):
            calls.append(args)
            return real_sweep(*args)

        real_sweep = filters.fold_residuals
        monkeypatch.setattr(filters, "fold_residuals", counted)
        verify_filter(H)
        verify_complementary(G, H)
        folded = len(calls)
        rep = cuntz_check(H, G)
        assert folded > 0 and len(calls) == folded
        assert rep == cuntz_check(reparsed(H), reparsed(G)) and len(calls) > folded

    def test_a_long_lived_filter_lets_its_partners_go(self):
        entry = catalog.get("haar")
        G, rng = entry.G, random.Random(5)
        before = len(G._cross)
        for _ in range(50):
            H, _ = conjugated(entry, 2, rng)
            assert verify_complementary(G, H) == verify_complementary(G, reparsed(H))
        last = weakref.ref(H)
        del H, _
        gc.collect()
        assert last() is None and len(G._cross) == before

    def test_nothing_outlives_its_filter(self):
        entry = catalog.get("journe")
        H, G = reparsed(entry.H), reparsed(entry.G)
        assert verify_filter(H).passed and verify_complementary(G, H).passed
        assert cuntz_check(H, G).passed
        refs = weakref.ref(H), weakref.ref(G)
        del H, G
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestNorms:
    def test_canonical_norm_one(self):
        sets = (TorusSet.full(),)
        assert abs(SectionVector.canonical(sets, 0).norm() - 1.0) < 1e-12

    def test_exponential_norm_one(self):
        v = SectionVector.from_components(
            (TrigPoly.exponential(5),), (TorusSet.full(),)
        )
        assert abs(v.norm() - 1.0) < 1e-12

    def test_scaled_indicator(self):
        s = TorusSet.from_intervals([(F(-1, 4), F(1, 4))])
        v = SectionVector.from_components(
            (TrigPoly.indicator(s, SQRT2),), (TorusSet.full(),)
        )
        assert abs(v.norm() - 1.0) < 1e-12


PAIRED = [name for name in catalog.names() if catalog.get(name).G is not None]


@st.composite
def piecewise_monomials(draw):
    """A unimodular phase * e(k w) on each arc between breakpoints j/12, |k| <= 3."""
    cuts = sorted(draw(st.sets(st.integers(1, 11), max_size=3)))
    bounds = [F(0)] + [F(j, 12) for j in cuts] + [F(1)]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        turn = draw(st.floats(0, 1, exclude_max=True))
        k = draw(st.integers(-3, 3))
        phase = complex(math.cos(math.tau * turn), math.sin(math.tau * turn))
        pieces.append((lo, hi, [(F(k), phase)]))
    return TrigPoly.from_pieces(pieces)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PAIRED),
    st.one_of(st.none(), piecewise_monomials()),
    st.sampled_from([1.0, 0.5, 1.25]),
    st.sampled_from([1.0, 0.75, 1.5]),
    st.sampled_from([0.0, 0.4]),
    st.integers(0, 2**32),
)
def test_bounds_dominate_every_probed_residual(name, a, c, d, theta, seed):
    """||(S* S - I) f|| <= (bound + 1e-12) ||f|| on canonical and random sections.

    The pair is a catalog system, optionally conjugated by a unimodular
    multiplier a: H through conjugate_filter with a on every m-level set, and
    G entrywise as a(N w) G(w) conj(a(w)), since G's rows follow mtilde.  H
    and G are then scaled by c and d and, where H and G have one shape and
    one row structure, G is turned to cos(theta) G + sin(theta) H, so the
    bounds are not all at rounding level.  The residuals come from apply_S
    and apply_S_adjoint, not from cuntz_check.
    """
    entry = catalog.get(name)
    H, G = entry.H, entry.G
    if a is not None:
        size = max(len(sigma_sets(entry.m)), 1)
        rows = [[TrigPoly.zero()] * size for _ in range(size)]
        for i, s in enumerate(sigma_sets(entry.m)):
            rows[i][i] = a.restrict(s)
        H = conjugate_filter(H, FilterMatrix.from_rows(rows, entry.m, entry.e))
        a_up = compose_endomorphism(a, entry.e)
        G = FilterMatrix.from_rows(
            [[a_up * g * a.conj() for g in row] for row in G.entries], G.m, G.e, "mtilde"
        )
    H = FilterMatrix.from_rows([[h * c for h in row] for row in H.entries], H.m, H.e)
    G = FilterMatrix.from_rows([[g * d for g in row] for row in G.entries], G.m, G.e, "mtilde")
    if H.row_sets != G.row_sets or (H.rows, H.cols) != (G.rows, G.cols):
        theta = 0.0
    if theta:
        rows = [
            [g * math.cos(theta) + h * math.sin(theta) for g, h in zip(g_row, h_row)]
            for g_row, h_row in zip(G.entries, H.entries)
        ]
        G = FilterMatrix.from_rows(rows, G.m, G.e, "mtilde")
    rep = cuntz_check(H, G)
    assert not rep.violations
    assert rep.passed == (c == d == 1.0 and not theta)
    bound = rep.identities
    rng = random.Random(seed)

    def within(key, residual, f):
        assert residual.norm() <= (bound[key] + 1e-12) * f.norm(), (key, residual.norm(), f.norm())

    for f in canonical_vectors(H.row_sets) + [random_section(H.row_sets, rng, degree=3)]:
        within("SH*SH=I", apply_S_adjoint(H, apply_S(H, f)) - f, f)
        total = apply_S(H, apply_S_adjoint(H, f)) + apply_S(G, apply_S_adjoint(G, f))
        within("SHSH*+SGSG*=I", total - f, f)
    for u in canonical_vectors(G.row_sets) + [random_section(G.row_sets, rng, degree=3)]:
        lifted = apply_S(G, u)
        within("SG*SG=I", apply_S_adjoint(G, lifted) - u, u)
        within("SH*SG=0", apply_S_adjoint(H, lifted), u)


class ZeroAt(random.Random):
    """A seeded stream whose draws at the given call numbers read 0.0 instead."""

    def __init__(self, seed, zero_at):
        super().__init__(seed)
        self.calls, self.zero_at = 0, zero_at

    def random(self):
        x = super().random()
        self.calls += 1
        return 0.0 if self.calls - 1 in self.zero_at else x


def swept_section(sets, rng, degree):
    """The section drawn term by term, built over the circle by from_spans and restricted to
    each set by the gated sweep."""
    comps = []
    for s in sets:
        terms = []
        for n in range(-degree, degree + 1):
            r = math.sqrt(rng.random())
            theta = rng.random() * math.tau
            terms.append((n, complex(r * math.cos(theta), r * math.sin(theta))))
        comps.append(gated_sum((TrigPoly.from_spans(1, 1, [(0, 1, terms)]),), s))
    return comps


@settings(max_examples=80, deadline=None)
@given(st.lists(circle_sets(), max_size=4), st.integers(0, 4), st.integers(0, 2**32 - 1),
       st.sets(st.integers(0, 40), max_size=6))
def test_random_section_is_the_swept_construction(sets, degree, seed, zeros):
    """Laid straight onto its sets, a section is the swept one, term zeroed by a draw r = 0
    included, and leaves the stream where the swept draw does."""
    zero_at = {2 * t for t in zeros}  # the first draw of term t is its radius
    rng, ref_rng = ZeroAt(seed, zero_at), ZeroAt(seed, zero_at)
    section = random_section(tuple(sets), rng, degree)
    assert list(section.components) == swept_section(sets, ref_rng, degree)
    assert rng.getstate() == ref_rng.getstate() and rng.calls == ref_rng.calls


def test_random_section_all_zero_terms():
    sets = (TorusSet.interval(F(1, 4), F(3, 4)), TorusSet.full())
    section = random_section(sets, ZeroAt(1, {0, 2, 4}), 1)
    assert section.components[0] == TrigPoly.zero()
    assert not section.components[1].is_zero()


def test_random_section_negative_degree_refused():
    with pytest.raises(ValueError):
        random_section((TorusSet.full(),), random.Random(1), degree=-1)
