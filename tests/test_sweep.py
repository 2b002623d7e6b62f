"""Properties of the one overlay sweep behind every piecewise sum on the circle.

``TrigPoly.sum``, ``+``, ``fold`` and ``folded_sum`` are held against literal
pointwise sums at cell midpoints, at breakpoints and at their preimages and
images under w -> N*w, for N = 2, 3, 5.  Coefficients are held bit for bit
to an independent left fold, so the order in which the sweep adds its
payloads is pinned too.
"""

from fractions import Fraction
from functools import reduce
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from gmra.multiplicity import MultiplicityFunction, folded_sum
from gmra.torus import TorusEndomorphism, overlay
from gmra.trigpoly import TrigPoly, dilate_branch, fold

F = Fraction
dilations = st.sampled_from([TorusEndomorphism(2), TorusEndomorphism(3), TorusEndomorphism(5)])
# lattice values a/7 + i b/3 round in every sum and cancel exactly in some, so the
# order of summation and the drop of a cancelled term both show in the bits
coefficients = st.one_of(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.tuples(st.integers(-20, 20), st.integers(-9, 9)).map(lambda t: complex(t[0] / 7, t[1] / 3)),
)


@st.composite
def breakpoints(draw, max_cuts=4):
    """0, some rationals j/d in (0, 1) with small d, and 1."""
    cuts = draw(
        st.sets(
            st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda x: 0 < x < 1),
            max_size=max_cuts,
        )
    )
    return [F(0)] + sorted(cuts) + [F(1)]


@st.composite
def polys(draw):
    """A multi-piece poly: rational breakpoints, rational frequencies, some zero pieces."""
    bounds = draw(breakpoints())
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        terms = draw(
            st.lists(
                st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=3), coefficients),
                max_size=3,
            )
        )
        pieces.append((lo, hi, terms))
    return TrigPoly.from_pieces(pieces)


def cuts_of(*polys):
    return {x for p in polys for lo, hi, _ in p.pieces for x in (lo, hi)}


def probe_points(e, cuts):
    """Breakpoints, cell midpoints, and the preimages and images of both."""
    cuts = sorted(set(cuts) | {F(0), F(1)})
    base = set(cuts[:-1]) | {(a + b) / 2 for a, b in zip(cuts, cuts[1:])}
    points = set(base)
    for x in base:
        points.update(e.preimages(x))
        points.add(e.image(x))
    return sorted(points)


def assert_canonical(p: TrigPoly):
    assert p.pieces[0][0] == 0 and p.pieces[-1][1] == 1
    for (lo, hi, terms), nxt in zip(p.pieces, p.pieces[1:] + (None,)):
        assert lo < hi
        assert all(c != 0 for _, c in terms)
        assert [nu for nu, _ in terms] == sorted({nu for nu, _ in terms})
        if nxt is not None:
            assert nxt[0] == hi
            assert nxt[2] != terms


def left_fold_terms(term_tuples):
    """Independent reference for the sweep's sums: add the tuples one by one,
    dropping a frequency as soon as it cancels, as repeated ``+`` does."""
    acc: dict = {}
    for terms in term_tuples:
        for nu, c in terms:
            acc[nu] = acc[nu] + c if nu in acc else c
        acc = {nu: c for nu, c in acc.items() if c != 0}
    return tuple(sorted(acc.items()))


def terms_at(p: TrigPoly, x):
    return next(terms for lo, hi, terms in p.pieces if lo <= x < hi)


@settings(max_examples=60, deadline=None)
@given(dilations, st.lists(polys(), min_size=1, max_size=5))
def test_sum_matches_pointwise_sums(e, ps):
    total = TrigPoly.sum(ps)
    assert_canonical(total)
    for x in probe_points(e, cuts_of(*ps)):
        want = sum((p.evaluate(x) for p in ps), 0j)
        assert abs(total.evaluate(x) - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(polys(), min_size=3, max_size=5))
def test_sum_adds_in_input_order_bit_for_bit(ps):
    total = TrigPoly.sum(ps)
    cuts = sorted(cuts_of(*ps))
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        assert terms_at(total, mid) == left_fold_terms(terms_at(p, mid) for p in ps)


@settings(max_examples=60, deadline=None)
@given(dilations, polys(), polys())
def test_add_matches_pointwise_sum(e, f, g):
    total = f + g
    assert_canonical(total)
    assert total == TrigPoly.sum([f, g])
    for x in probe_points(e, cuts_of(f, g)):
        assert abs(total.evaluate(x) - (f.evaluate(x) + g.evaluate(x))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dilations, polys(), polys())
def test_fold_matches_branch_sum(e, f, g):
    folded = fold(e, f, g)
    assert_canonical(folded)
    for x in probe_points(e, cuts_of(f, g)):
        want = sum((f.evaluate(z) * g.evaluate(z).conjugate() for z in e.preimages(x)), 0j)
        assert abs(folded.evaluate(x) - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dilations, polys(), polys())
def test_fold_adds_branches_in_order_bit_for_bit(e, f, g):
    p = f * g.conj()
    branches = [dilate_branch(p, e, k) for k in range(e.N)]
    assert fold(e, f, g) == reduce(add, branches, TrigPoly.zero())


@st.composite
def multiplicities(draw):
    bounds = draw(breakpoints(max_cuts=6))
    values = draw(st.lists(st.integers(0, 3), min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    return MultiplicityFunction.from_pieces(
        (lo, hi, v) for (lo, hi), v in zip(zip(bounds, bounds[1:]), values)
    )


@settings(max_examples=100, deadline=None)
@given(dilations, multiplicities())
def test_folded_sum_is_the_preimage_sum_exactly(e, m):
    folded = folded_sum(m, e)
    cuts = {x for lo, hi, _ in m.pieces + folded.pieces for x in (lo, hi)}
    for x in probe_points(e, cuts):
        assert folded.value_at(x) == sum(m.value_at(z) for z in e.preimages(x))


def test_overlay_lists_covers_in_input_order():
    pieces = [(F(0), F(1, 2), "a"), (F(1, 4), F(1), "b"), (F(1, 4), F(1, 2), "c")]
    cells = [(lo, hi, list(ps)) for lo, hi, ps in overlay(pieces)]
    assert cells == [
        (F(0), F(1, 4), ["a"]),
        (F(1, 4), F(1, 2), ["a", "b", "c"]),
        (F(1, 2), F(1), ["b"]),
    ]
    assert [ps for _, _, ps in overlay([(F(1, 3), F(2, 3), 1)])] == [[], [1], []]
