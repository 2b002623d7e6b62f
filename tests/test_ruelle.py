import math
import random
from fractions import Fraction

import pytest

from gmra import catalog
from gmra.errors import ContextMismatch
from gmra.filters import FilterMatrix
from gmra.multiplicity import MultiplicityFunction
from gmra.ruelle import (
    SectionVector,
    apply_S,
    apply_S_adjoint,
    cuntz_check,
    random_section,
)
from gmra.torus import TorusEndomorphism, TorusSet
from gmra.trigpoly import TrigPoly

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

    def test_isometry_norm_preservation(self):
        rng = random.Random(23)
        for name in ("haar", "journe", "haar3_2wavelet"):
            H = catalog.get(name).H
            for _ in range(3):
                f = random_section(tuple(H.row_sets), rng, degree=5)
                assert abs(apply_S(H, f).norm() - f.norm()) < 1e-9


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
