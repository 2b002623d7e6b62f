import cmath
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    circle_sets, coalesce_pieces, compressed_branch, dilated_branch, merge_fraction_terms,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import catalog
from gmra.torus import TorusEndomorphism, TorusSet, mod1
from gmra.trigpoly import (
    TrigPoly,
    _turn,
    compose_endomorphism,
    fold,
    gated_sum,
    inner,
    integrate,
    norm,
    unit_phase,
)

F = Fraction
SQRT2 = math.sqrt(2.0)
N2 = TorusEndomorphism(2)
N3 = TorusEndomorphism(3)


def ts(*pairs):
    return TorusSet.from_intervals([(F(a), F(b)) for a, b in pairs])


def poly(*terms):
    return TrigPoly.from_pieces([(0, 1, [(F(n), c) for n, c in terms])])


def haar():
    return poly((0, 1 / SQRT2), (-1, 1 / SQRT2))


def shannon():
    return TrigPoly.indicator(ts(("-1/4", "1/4")), SQRT2)


def pointwise_fold(e, f, g, x):
    # independent oracle: literal branch sum at one point
    return sum(
        f.evaluate(z) * g.evaluate(z).conjugate() for z in e.preimages(x)
    )


small_polys = st.lists(
    st.tuples(
        st.integers(-4, 4),
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    ),
    max_size=4,
).map(lambda terms: poly(*terms))


class TestAlgebra:
    def test_haar_at_zero(self):
        assert abs(haar().evaluate(0) - SQRT2) < 1e-12

    def test_conjugate_of_exponential(self):
        assert TrigPoly.exponential(1).conj() == TrigPoly.exponential(-1)

    def test_indicator_product(self):
        a = TrigPoly.indicator(ts(("-1/4", "1/4")), SQRT2)
        b = TrigPoly.indicator(ts((0, "1/2")), SQRT2)
        prod = a * b
        assert prod.support() == ts((0, "1/4"))
        assert abs(prod.evaluate(F(1, 8)) - 2.0) < 1e-12

    def test_add_then_subtract(self):
        f, g = haar(), shannon()
        assert ((f + g) - g).deviation_from(f) < 1e-12

    def test_restrict(self):
        f = poly((0, 1.0)).restrict(ts(("1/4", "3/4")))
        assert f.support() == ts(("1/4", "3/4"))
        assert f.evaluate(F(1, 8)) == 0
        assert f.evaluate(F(1, 2)) == 1

    def test_half_open_evaluation(self):
        f = TrigPoly.indicator(ts((0, "1/4")))
        assert f.evaluate(F(1, 4)) == 0
        assert f.evaluate(0) == 1

    def test_shift_frequencies(self):
        f = haar().shift_frequencies(3)
        assert f.frequencies() == {F(3), F(2)}

    def test_unit_phase_quarter_turns(self):
        assert unit_phase(F(1, 2)) == -1
        assert unit_phase(F(1, 4)) == 1j
        assert unit_phase(F(3, 4)) == -1j
        assert unit_phase(F(7)) == 1
        assert abs(unit_phase(F(1, 3)) - cmath.exp(2j * cmath.pi / 3)) < 1e-15


class TestFold:
    def test_haar_folds_to_two(self):
        assert fold(N2, haar(), haar()).deviation_from(TrigPoly.constant(2.0)) < 1e-12

    def test_shannon_folds_to_two(self):
        assert fold(N2, shannon(), shannon()).deviation_from(TrigPoly.constant(2.0)) < 1e-12

    def test_unnormalized_haar_folds_to_four(self):
        h = poly((0, 1.0), (-1, 1.0))
        assert fold(N2, h, h).deviation_from(TrigPoly.constant(4.0)) < 1e-12

    def test_matches_pointwise_oracle(self):
        rng = random.Random(5)
        for e in (N2, N3):
            for _ in range(5):
                f = poly(*[(rng.randint(-3, 3), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(3)])
                g = shannon() if rng.random() < 0.5 else haar()
                result = fold(e, f, g)
                for k in range(7):
                    x = F(k, 7)
                    assert abs(result.evaluate(x) - pointwise_fold(e, f, g, x)) < 1e-10

    @given(small_polys, small_polys)
    def test_conjugate_symmetry(self, f, g):
        lhs = fold(N2, f, g)
        rhs = fold(N2, g, f).conj()
        assert lhs.deviation_from(rhs) < 1e-9

    def test_linear_in_first_argument(self):
        f1, f2, g = haar(), shannon(), poly((1, 0.5), (-2, 1j))
        combined = fold(N2, f1 + f2 * 2.0, g)
        split = fold(N2, f1, g) + fold(N2, f2, g) * 2.0
        assert combined.deviation_from(split) < 1e-12


class TestBranchMaps:
    def test_dilate_then_compress_roundtrip(self):
        f = haar()
        for k in range(2):
            block = f.restrict(ts((F(k, 2), F(k + 1, 2))))
            back = compressed_branch(dilated_branch(block, N2, k), N2, k)
            assert back.deviation_from(block) < 1e-12

    def test_compose_endomorphism_pointwise(self):
        f = poly((1, 1.0), (2, 0.25j))
        g = compose_endomorphism(f, N3)
        for k in range(11):
            x = F(k, 11)
            assert abs(g.evaluate(x) - f.evaluate(N3.image(x))) < 1e-12


class TestIntegration:
    def test_exponential_integrates_to_zero(self):
        assert abs(integrate(TrigPoly.exponential(5))) < 1e-15

    def test_norms(self):
        assert abs(norm(TrigPoly.constant(1.0)) - 1.0) < 1e-12
        assert abs(norm(TrigPoly.exponential(5)) - 1.0) < 1e-12
        assert abs(norm(shannon()) - 1.0) < 1e-12

    def test_integral_against_riemann_oracle(self):
        f = haar() * haar().conj() + TrigPoly.indicator(ts(("1/3", "2/3")), 0.5j)
        # midpoint rule per piece, so the only oracle error is the smooth O(h^2)
        riemann = 0j
        for lo, hi, _ in f.pieces:
            width = float(hi - lo)
            xs = float(lo) + (np.arange(4000) + 0.5) / 4000 * width
            riemann += f.sample(xs).mean() * width
        assert abs(integrate(f) - riemann) < 1e-7

    def test_inner_hermitian(self):
        f, g = haar(), poly((2, 1.0), (0, -0.5))
        assert abs(inner(f, g) - inner(g, f).conjugate()) < 1e-12


# ---- phases and inner products against the Fraction formulas ---------------


def fraction_phase(q) -> complex:
    """e^(2*pi*i*q) by the Fraction formula: reduce mod 1, quarter turns exact."""
    q = mod1(Fraction(q))
    if q.denominator == 1:
        return complex(1.0)
    if q.denominator == 2:
        return complex(-1.0)
    if q.denominator == 4:
        return 1j if q == F(1, 4) else -1j
    t = math.tau * float(q)
    return complex(math.cos(t), math.sin(t))


def fraction_integrate(f: TrigPoly) -> complex:
    """Per-term closed-form integral with Fraction phases."""
    total = 0j
    for lo, hi, terms in f.pieces:
        for nu, c in terms:
            if nu == 0:
                total += c * (float(hi) - float(lo))
            else:
                total += c * (fraction_phase(nu * hi) - fraction_phase(nu * lo)) / (
                    2j * math.pi * float(nu)
                )
    return total


def product_inner(f, g) -> complex:
    """The inner product through the product poly f * conj(g)."""
    return fraction_integrate(f * g.conj())


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


big_ints = st.integers(-(2**80), 2**80)
denominators = st.one_of(st.integers(1, 16), st.integers(1, 2**80))


@st.composite
def rational_polys(draw):
    """Multi-piece polys: breakpoints j/d with d <= 12, frequencies with d <= 5, zero pieces."""
    cuts = draw(
        st.sets(
            st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda x: 0 < x < 1),
            max_size=4,
        )
    )
    bounds = [F(0)] + sorted(cuts) + [F(1)]
    terms = st.lists(
        st.tuples(
            st.fractions(min_value=-6, max_value=6, max_denominator=5),
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        ),
        max_size=3,
    )
    return TrigPoly.from_pieces((lo, hi, draw(terms)) for lo, hi in zip(bounds, bounds[1:]))


class TestPhases:
    @given(big_ints, denominators)
    def test_turn_is_the_fraction_formula(self, n, d):
        assert bits(_turn(n, d)) == bits(fraction_phase(F(n, d)))
        assert bits(unit_phase(F(n, d))) == bits(fraction_phase(F(n, d)))

    @given(big_ints, st.integers(1, 2**70), st.integers(0, 3))
    def test_quarter_turns_exact(self, k, scale, quarter):
        # num/den = k + quarter/4 with den = 4*scale, unreduced
        n, d = (4 * k + quarter) * scale, 4 * scale
        assert bits(_turn(n, d)) == bits((1 + 0j, 1j, -1 + 0j, -1j)[quarter])
        assert bits(_turn(n, d)) == bits(fraction_phase(F(n, d)))

    @given(big_ints)
    def test_unit_phase_of_an_int(self, n):
        assert bits(unit_phase(n)) == bits(complex(1.0))


class TestInnerKernel:
    @given(rational_polys(), rational_polys())
    def test_matches_product_oracle_and_is_hermitian(self, f, g):
        scale = 1 + math.sqrt(product_inner(f, f).real * product_inner(g, g).real)
        assert abs(inner(f, g) - product_inner(f, g)) <= 1e-12 * scale
        assert abs(inner(g, f) - inner(f, g).conjugate()) <= 1e-12 * scale

    @given(rational_polys())
    def test_self_path_and_integral(self, f):
        copy = TrigPoly.from_pieces(f.pieces)
        assert copy == f and copy is not f
        assert abs(inner(f, f) - inner(f, copy)) <= 1e-12 * (1 + norm(f) ** 2)
        assert abs(integrate(f) - fraction_integrate(f)) <= 1e-12 * (1 + f.sup_bound())


def merged_map(p: TrigPoly, term) -> TrigPoly:
    """Reference: term(nu, c) on every term of the Fraction pieces, each piece re-merged
    and re-sorted."""
    return TrigPoly.from_pieces(
        coalesce_pieces(
            (lo, hi, merge_fraction_terms(term(nu, c) for nu, c in terms))
            for lo, hi, terms in p.pieces
        )
    )


class TestTermMaps:
    """Scalar ``*``, ``conj`` and ``shift_frequencies`` map terms in order, with no re-merge;
    each equals the re-merging map it replaces."""

    @given(
        rational_polys(),
        st.one_of(
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
            st.sampled_from([0, 0.0, -1, 1 / SQRT2, 1e-320]),
        ),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    def test_maps_equal_the_remerging_maps(self, f, c, gamma):
        scaled = merged_map(f, lambda nu, co: (nu, co * complex(c)))
        assert f * c == scaled
        assert c * f == scaled
        assert f.conj() == merged_map(f, lambda nu, co: (-nu, co.conjugate()))
        assert f.conj().conj() == f
        assert f.shift_frequencies(gamma) == merged_map(f, lambda nu, co: (nu + gamma, co))


# ---- the integer form: numerators over one reduced den and fden ---------------

# distinct primes below 2^32, the largest denominator jsonio accepts
BIG_PRIMES = (4294967291, 4294967279, 4294967231, 4294967197, 4294967189, 4294967161)
big_fractions = st.tuples(st.integers(1, 2**32 - 1), st.sampled_from(BIG_PRIMES)).map(
    lambda t: F(t[0] % t[1] or 1, t[1])
)


def is_reduced(p: TrigPoly) -> bool:
    """den and fden are the lcm of the Fraction view's denominators, gcd 1 with the numerators."""
    cuts = [x for lo, hi, _ in p.pieces for x in (lo, hi)]
    freqs = [nu for _, _, terms in p.pieces for nu, _ in terms]
    return (
        p.den == math.lcm(*(x.denominator for x in cuts))
        and p.fden == math.lcm(*(nu.denominator for nu in freqs))
        and math.gcd(p.den, *(lo for lo, _, _ in p.cells)) == 1
        and math.gcd(p.fden, *(n for _, _, terms in p.cells for n, _ in terms)) == 1
    )


class TestIntegerForm:
    @given(rational_polys(), big_fractions, big_fractions)
    def test_one_function_over_other_denominators_is_one_poly(self, f, x, nu):
        """Split at a point x, with zero terms at frequency nu: the same function."""
        split = []
        for lo, hi, terms in f.pieces:
            padded = list(terms) + [(nu, 0.0)]
            cuts = [lo, x, hi] if lo < x < hi else [lo, hi]
            split.extend((a, b, padded) for a, b in zip(cuts, cuts[1:]))
        g = TrigPoly.from_pieces(split)
        assert g == f and hash(g) == hash(f)
        gated = f.restrict(TorusSet.interval(x, x + 1))
        assert gated == f and hash(gated) == hash(f)
        shifted = f.shift_frequencies(nu).shift_frequencies(-nu)
        assert shifted == f and hash(shifted) == hash(f)

    @given(rational_polys(), rational_polys(), st.sampled_from([N2, N3]))
    def test_pieces_round_trip_with_reduced_denominators(self, f, g, e):
        for p in (f, f * g, f - f, fold(e, f, g), compose_endomorphism(g, e), f.conj() * 0):
            assert TrigPoly.from_pieces(p.pieces) == p
            assert is_reduced(p)

    @settings(deadline=None)
    @given(
        st.lists(st.tuples(big_fractions, st.complex_numbers(max_magnitude=3, allow_nan=False,
                                                             allow_infinity=False)),
                 min_size=1, max_size=3),
        st.sampled_from([64, 1000, 2**30 + 7]),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=8),
    )
    def test_grid_sampling_past_2_53_matches_evaluate(self, terms, den, ps):
        """Frequency denominators near 2^32 put the unreduced period fden * den, and at the
        larger grids the reduced one too, past 2^53."""
        f = TrigPoly.from_pieces([(0, F(1, 3), terms), (F(1, 3), 1, terms[:1])])
        values = f.sample(np.array(ps), den)
        for p, value in zip(ps, values):
            assert abs(value - f.evaluate(F(p, den))) <= 1e-12 * (1 + f.sup_bound())

    @pytest.mark.parametrize("name", catalog.names())
    def test_float_sample_just_below_zero_is_the_last_cell(self, name):
        """-1e-20 % 1.0 rounds up to 1.0 in floats; the point falls in the last cell."""
        for h in (h for row in catalog.get(name).H.entries for h in row):
            _, _, terms = h.cells[-1]
            want = sum((c * np.exp(2j * math.pi * (n / h.fden)) for n, c in terms), 0j)
            assert abs(h.sample(np.array([-1e-20]))[0] - want) <= 1e-12

    def test_float_sample_keeps_the_shape_of_its_points(self):
        h = catalog.get("haar").H.entry(0, 0)
        grid = np.array([[0.1, 0.7], [0.2, 0.9]])
        assert h.sample(0.3).shape == ()
        assert h.sample(0.3) == h.sample(np.array([0.3]))[0]
        assert np.array_equal(h.sample(grid), h.sample(grid.ravel()).reshape(2, 2))

    def test_sup_bound_keeps_nan(self):
        """inf - inf on one piece is NaN there: no tolerance test may pass on it."""
        p = TrigPoly.from_pieces([(0, F(1, 2), [(0, 1.0)]), (F(1, 2), 1, [(0, 1e200)])])
        r = p * p - p * p
        assert math.isnan(r.sup_bound())
        assert not r.deviation_from(TrigPoly.zero()) <= 1e-9
        assert not r.is_zero()


def float_sample_by_definition(f: TrigPoly, xs) -> np.ndarray:
    """The float path as defined: each point x reduced by numpy's ``% 1.0``, its cell found
    by ``searchsorted`` over lo/den, its value sum c * exp(2j*pi*(n/fden)*x) added in term
    order from +0."""
    x = np.asarray(xs, dtype=float) % 1.0
    where = np.searchsorted([lo / f.den for lo, _, _ in f.cells], x, "right") - 1
    out = np.zeros(x.shape, dtype=complex)
    for index, (_, _, terms) in enumerate(f.cells):
        here = where == index
        for n, c in terms:
            out[here] += c * np.exp(2j * np.pi * (n / f.fden) * x[here])
    return out


SPECIAL_POINTS = [-0.0, 0.0, -1e-20, -1e-300, 5e-324, -5e-324, 1.0, -1.0, 2.0, -3.0, 7.0,
                  1 - 2**-53, -(1 - 2**-53), 0.5, -0.5, 2.0**53, -(2.0**53)]
float_coefs = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False) | \
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -1.0),
                     complex(-1.0, -0.0)])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda den: st.tuples(
        st.just(den), st.sets(st.integers(1, den - 1), max_size=den - 1) if den > 1
        else st.just(set()))),
    st.lists(st.lists(st.tuples(st.integers(-9, 9), st.sampled_from([1, 2, 3, 5]), float_coefs),
                      max_size=4), min_size=12, max_size=12),
    st.lists(st.floats(-4, 4, allow_nan=False, allow_subnormal=True), max_size=40),
    st.booleans(),
)
def test_float_sample_is_the_definition_bit_for_bit(cuts, raw, points, two_d):
    """Reduction by x - floor(x), phases by cos and sin, and n = 0 terms added as c give the
    bits of the one-line definition: at signed zeros, -1e-20 (which reduces to 1.0, the
    last cell), integers, 1 - 2^-53, every breakpoint lo/den, on empty cells and in 2-D."""
    den, inner_cuts = cuts
    bounds = [0, *sorted(inner_cuts), den]
    f = TrigPoly.from_pieces([(F(lo, den), F(hi, den), [(F(n, d), c) for n, d, c in terms])
                              for (lo, hi), terms in zip(zip(bounds, bounds[1:]), raw)])
    xs = np.array(SPECIAL_POINTS + [lo / f.den for lo, _, _ in f.cells]
                  + [lo / f.den - 1 for lo, _, _ in f.cells] + points)
    if two_d and len(xs) % 2 == 0:
        xs = xs.reshape(2, -1)
    got = f.sample(xs)
    assert got.shape == xs.shape
    assert got.tobytes() == float_sample_by_definition(f, xs).tobytes()


@settings(max_examples=60, deadline=None)
@given(circle_sets(), st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]),
                                         st.complex_numbers(max_magnitude=2)), max_size=4))
def test_one_cell_restrict_is_the_gated_sweep(s, raw):
    """A poly of one cell is laid onto the set's spans: the gated sweep's poly, with rational
    frequencies, and the indicator goes the same way."""
    f = TrigPoly.from_pieces([(0, 1, [(F(n, d), c) for n, d, c in raw])])
    assert f.restrict(s) == gated_sum((f,), s)
    assert TrigPoly.indicator(s, 0.5j) == gated_sum((TrigPoly.constant(0.5j),), s)
