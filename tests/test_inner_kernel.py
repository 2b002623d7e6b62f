"""The batched inner-product kernel against the pair loop it replaces, bit for bit."""

import math
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import builder, catalog, trigpoly
from gmra.errors import ContextMismatch
from gmra.ruelle import SectionVector, random_section
from gmra.torus import TorusSet
from gmra.trigpoly import TrigPoly, _cells_inner, _inners, _turn, _turns, inner

TWO_PI_I = 2j * math.pi
# primes near 2^32: their products pass int64 and the exact float range
PRIMES = (4294967291, 4294967279, 4294967311, 4294967357)


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def loop_cell(ta, tb, lo, hi, den, fden) -> complex:
    """The closed form pair by pair in Python complex arithmetic, summed in (j, k) order."""
    width = (hi - lo) / den
    period = fden * den

    def phased(terms):
        return [(n, c, _turn(n * lo, period), _turn(n * hi, period)) for n, c in terms]

    left = phased(ta)
    right = [(n, d.conjugate(), qa.conjugate(), qb.conjugate())
             for n, d, qa, qb in (left if tb is ta else phased(tb))]
    total = 0j
    for n1, c, pa, pb in left:
        for n2, d, qa, qb in right:
            lam = n1 - n2
            w = c * d
            if lam == 0:
                total += w * width
            else:
                delta = pb * qb - pa * qa
                total += w * delta / (TWO_PI_I * (lam / fden))
    return total


coefficients = st.builds(
    complex,
    st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
)
denominators = st.integers(1, 360) | st.sampled_from(PRIMES)


@st.composite
def term_tuples(draw, max_terms=40):
    top = draw(st.sampled_from([8, 200, 2**40]))
    ns = draw(st.lists(st.integers(-top, top), max_size=max_terms, unique=True))
    return tuple((n, draw(coefficients)) for n in sorted(ns))


@st.composite
def cells(draw):
    den, fden = draw(denominators), draw(denominators)
    lo = draw(st.integers(0, den - 1))
    hi = draw(st.integers(lo + 1, den))
    ta = draw(term_tuples())
    tb = ta if draw(st.booleans()) else draw(term_tuples())
    return lo, hi, den, fden, ta, tb


def assert_loop_bits(batch):
    got = _cells_inner(batch)
    want = [loop_cell(ta, tb, lo, hi, den, fden) for lo, hi, den, fden, ta, tb in batch]
    assert [bits(z) for z in got] == [bits(z) for z in want]


@settings(max_examples=100, deadline=None)
@given(st.lists(cells(), min_size=1, max_size=6))
def test_mixed_batch_is_the_pair_loop_bit_for_bit(batch):
    assert_loop_bits(batch)


@settings(max_examples=40, deadline=None)
@given(st.lists(cells(), min_size=1, max_size=6), st.integers(1, 40))
def test_cells_and_groups_over_several_blocks_keep_their_bits(batch, block):
    with mock.patch.object(trigpoly, "INNER_BLOCK", block):
        assert_loop_bits(batch)


def test_a_cell_wider_than_a_block_is_summed_in_order():
    rng = random.Random(7)
    terms = tuple((n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in range(-60, 61))
    other = tuple((n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in range(-70, 50))
    assert len(terms) ** 2 > trigpoly.INNER_BLOCK
    assert_loop_bits([(1, 5, 7, 3, terms, terms), (0, 2, 3, 2, terms, other),
                      (2, 3, 5, 1, terms[:3], other[:2]), (0, 1, 1, 1, (), other)])


def test_empty_batches_and_cells_without_pairs():
    assert _cells_inner([]) == []
    assert _inners([]) == []
    assert bits(_cells_inner([(0, 1, 1, 1, (), ())])[0]) == bits(0j)
    assert inner(TrigPoly.zero(), TrigPoly.constant(2.0)) == 0j


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**70, 2**70), st.integers(1, 2**66)), max_size=30),
       st.booleans())
def test_turns_are_turn_elementwise(pairs, int64):
    if int64:
        pairs = [(n % 2**40, d % 2**40 + 1) for n, d in pairs]
    num = np.array([n for n, _ in pairs], dtype=np.int64 if int64 else object)
    period = np.array([d for _, d in pairs], dtype=np.int64 if int64 else object)
    got = _turns(num, period)
    assert [bits(z) for z in got.tolist()] == [bits(_turn(n, d)) for n, d in pairs]


def poly_pairs():
    rng = random.Random(11)
    journe, haar = catalog.get("journe"), catalog.get("haar")
    sets = tuple(journe.H.row_sets) + tuple(haar.H.row_sets)
    for degree in (0, 1, 3, 8):
        x = random_section(sets, rng, degree).components
        y = random_section(sets, rng, degree).components
        yield from zip(x, y)
        yield from ((f, f) for f in x)


def test_inners_is_inner_per_pair():
    pairs = list(poly_pairs())
    assert [bits(z) for z in _inners(pairs)] == [bits(inner(f, g)) for f, g in pairs]


@pytest.mark.parametrize("name", ["haar", "journe", "cantor3", "haar3_2wavelet"])
def test_section_inner_and_norm_are_the_component_loop(name):
    H = catalog.get(name).H
    rng = random.Random(5)
    x, y = (random_section(tuple(H.row_sets), rng, 6) for _ in range(2))
    loop = sum((inner(a, b) for a, b in zip(x.components, y.components)), 0j)
    assert bits(x.inner(y)) == bits(loop)
    own = sum((inner(a, a) for a in x.components), 0j)
    assert x.norm() == math.sqrt(max(own.real, 0.0))


@pytest.mark.parametrize("name, depth", [("haar", 5), ("cantor3", 3), ("journe", 3)])
def test_ledger_norm_is_the_component_loop(name, depth):
    entry = catalog.get(name)
    g = builder.build(entry.m, entry.H, entry.G, entry.e, depth=depth)
    v = builder.random_ledger_vector(g, random.Random(depth), degree=3)
    total = 0.0
    for comp in list(v.v0) + [c for level in v.w for c in level]:
        total += max(inner(comp, comp).real, 0.0)
    assert builder.ledger_norm(g, v) == math.sqrt(total)


def test_section_inner_refuses_vectors_over_other_sets():
    rng = random.Random(3)
    x = random_section(tuple(catalog.get("journe").H.row_sets), rng, 2)
    y = random_section(tuple(catalog.get("haar").H.row_sets), rng, 2)
    with pytest.raises(ContextMismatch):
        x - y
    with pytest.raises(ContextMismatch):
        x.inner(y)
    with pytest.raises(ContextMismatch):
        y.inner(x)
    half = TorusSet.from_spans(2, [(0, 1)])
    z = SectionVector((TrigPoly.indicator(half),), (half,))
    with pytest.raises(ContextMismatch):
        z.inner(SectionVector((TrigPoly.constant(1.0),), (TorusSet.full(),)))
