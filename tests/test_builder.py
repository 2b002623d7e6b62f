import functools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from conftest import circle_sets, compressed_branch, conjugated, dilated_branch
from hypothesis import given, settings
from hypothesis import strategies as st

from gmra import catalog
from gmra.builder import (
    CONVERGENT_NONZERO,
    DEGENERATES_TO_ZERO,
    FilterSystem,
    LedgerVector,
    SpaceSlot,
    TensorGMRA,
    apply_T,
    apply_T_inverse,
    apply_translation,
    build,
    cascade_diagnostic,
    dilate_slots,
    ledger_norm,
    negative_supports,
    random_ledger_vector,
    tensor,
)
from gmra.errors import ContextMismatch, DepthExceeded, FilterInvalid, NotPureIsometry
from gmra.filters import FilterMatrix
from gmra.multiplicity import MultiplicityFunction, folded_sum
from gmra.ruelle import SectionVector, apply_S, random_section
from gmra.torus import TorusEndomorphism, TorusSet
from gmra.trigpoly import (
    TrigPoly,
    compose_endomorphism,
    fold,
    gated_compress,
    inner,
    unit_phase,
)

F = Fraction
N2 = TorusEndomorphism(2)


def ts(*pairs):
    return TorusSet.from_intervals([(F(a), F(b)) for a, b in pairs])


def built(name, depth=3):
    entry = catalog.get(name)
    return build(entry.m, entry.H, entry.G, entry.e, depth=depth)


def vector_distance(g, a, b):
    total = 0.0
    for x, y in zip(a.v0, b.v0):
        d = x - y
        total += max(inner(d, d).real, 0.0)
    for la, lb in zip(a.w, b.w):
        for x, y in zip(la, lb):
            d = x - y
            total += max(inner(d, d).real, 0.0)
    return math.sqrt(total)


PURE_SYSTEMS = [
    name
    for name in catalog.names()
    if any(x.key == "purity" and x.value == "pure" for x in catalog.get(name).expected)
]


def chain_S(F, comps):
    """S_F as a sum sweep and then a restrict sweep per column."""
    lifted = [TrigPoly.sum(compressed_branch(f, F.e, k) for k in range(F.e.N)) for f in comps]
    out = []
    for j, sj in enumerate(F.column_sets):
        products = [
            F.entry(i, j) * lifted[i]
            for i in range(min(F.rows, len(lifted)))
            if not (F.entry(i, j).is_zero() or lifted[i].is_zero())
        ]
        out.append(TrigPoly.sum(products).restrict(sj))
    return out


def chain_S_adjoint(F, comps):
    """S_F* as a sum sweep, a scale sweep and a restrict sweep per row."""
    out = []
    for i, si in enumerate(F.row_sets):
        folds = [
            fold(F.e, comps[j], F.entry(i, j))
            for j in range(min(F.cols, len(comps)))
            if not (F.entry(i, j).is_zero() or comps[j].is_zero())
        ]
        out.append((TrigPoly.sum(folds) * (1.0 / F.e.N)).restrict(si))
    return out


def branch_k(zeta, e):
    """The branch k recorded by the kernel element (N - k)/N of a dilation step."""
    return (e.N - int(zeta * e.N)) % e.N


def restricted(comps, slots):
    return [f.restrict(s.base) for f, s in zip(comps, slots)]


class SlotVector(NamedTuple):
    """A ledger vector in slot coordinates: one component per slot of every level."""

    v0: tuple
    w: tuple


def parents_of(g, n):
    """(parent's position in g.w_levels[n], branch k) for each slot of g.w_levels[n + 1]."""
    position = {(s.index, s.branch): p for p, s in enumerate(g.w_levels[n])}
    return [
        (position[(c.index, c.branch[:-1])], branch_k(c.branch[-1], g.e))
        for c in g.w_levels[n + 1]
    ]


def sections(g, v):
    core = SectionVector.from_components(v.v0, tuple(s.base for s in g.v0_slots))
    detail = SectionVector.from_components(v.w[0], tuple(s.base for s in g.w_levels[0]))
    return core, detail


def slot_T(g, v):
    """The ledger shift in slot coordinates: one gated_compress per parent slot."""
    core, detail = sections(g, v)
    new_w = []
    for n, level in enumerate(g.w_levels[:-1]):
        parts = [[] for _ in level]
        for f, (p, k) in zip(v.w[n + 1], parents_of(g, n)):
            parts[p].append((f, k))
        new_w.append(tuple(
            gated_compress(parts[p], g.e, s.base, math.sqrt(g.e.N)) for p, s in enumerate(level)
        ))
    new_w.append(tuple(TrigPoly.zero() for _ in g.w_levels[-1]))
    return SlotVector(tuple((apply_S(g.H, core) + apply_S(g.G, detail)).components), tuple(new_w))


def slot_translation(g, gamma, v):
    return SlotVector(
        tuple(c.shift_frequencies(gamma) for c in v.v0),
        tuple(tuple(c.shift_frequencies(gamma) for c in level) for level in v.w),
    )


def slot_random_vector(g, rng, degree, top_level=None):
    """One seeded component per slot, drawn level by level over the slot bases."""
    if top_level is None:
        top_level = len(g.w_levels) - 2
    v0 = random_section(tuple(s.base for s in g.v0_slots), rng, degree)
    levels = []
    for n, slots in enumerate(g.w_levels):
        if n <= top_level:
            levels.append(random_section(tuple(s.base for s in slots), rng, degree).components)
        else:
            levels.append(tuple(TrigPoly.zero() for _ in slots))
    return SlotVector(tuple(v0.components), tuple(levels))


def to_w0(g, v):
    """A slot-coordinate vector in W0 coordinates, slot by slot: each level-n component is
    pulled down its branch path one compress step at a time, and the results are summed
    per W0 slot."""
    levels = [tuple(v.w[0])]
    for n in range(1, len(g.w_levels)):
        parts = [[] for _ in g.w_levels[0]]
        for slot, f in zip(g.w_levels[n], v.w[n]):
            for zeta in reversed(slot.branch):
                f = compressed_branch(f, g.e, branch_k(zeta, g.e)) * math.sqrt(g.e.N)
            parts[slot.index].append(f)
        levels.append(
            tuple(TrigPoly.sum(p).restrict(s.base) for p, s in zip(parts, g.w_levels[0]))
        )
    return LedgerVector(tuple(v.v0), tuple(levels))


def chain_T(g, v):
    """The ledger shift with every branch map, scale, sum and restrict a sweep of its own."""
    v0 = chain_S(g.H, restricted(v.v0, g.v0_slots))
    w0 = chain_S(g.G, restricted(v.w[0], g.w_levels[0]))
    new_w = []
    for n, parents in enumerate(g.w_levels):
        parts = {(s.index, s.branch): [] for s in parents}
        if n + 1 < len(g.w_levels):
            for child, f in zip(g.w_levels[n + 1], v.w[n + 1]):
                k = branch_k(child.branch[-1], g.e)
                parts[(child.index, child.branch[:-1])].append(
                    compressed_branch(f, g.e, k) * math.sqrt(g.e.N)
                )
        new_w.append(
            tuple(TrigPoly.sum(parts[(s.index, s.branch)]).restrict(s.base) for s in parents)
        )
    return SlotVector(tuple(a + b for a, b in zip(v0, w0)), tuple(new_w))


def chain_T_inverse(g, v):
    """The inverse shift with every branch map, scale, sum and restrict a sweep of its own."""
    v0 = restricted(v.v0, g.v0_slots)
    new_w = [tuple(chain_S_adjoint(g.G, v0))]
    for n in range(len(g.w_levels) - 1):
        parent_of = {(s.index, s.branch): f for s, f in zip(g.w_levels[n], v.w[n])}
        new_w.append(
            tuple(
                (
                    dilated_branch(parent_of[(c.index, c.branch[:-1])], g.e,
                                   branch_k(c.branch[-1], g.e))
                    * (1.0 / math.sqrt(g.e.N))
                ).restrict(c.base)
                for c in g.w_levels[n + 1]
            )
        )
    return SlotVector(tuple(chain_S_adjoint(g.H, v0)), tuple(new_w))


def slot_norm(v):
    comps = list(v.v0) + [c for level in v.w for c in level]
    return math.sqrt(sum(max(inner(c, c).real, 0.0) for c in comps))


@pytest.mark.parametrize("name", PURE_SYSTEMS)
def test_shift_equals_the_chain_of_sweeps(name):
    """The slot-path shift T builds each component in one gated sweep, with the coefficients
    of the chain of separate sweeps.  The W0 path agrees with the slot path, converted slot
    by slot: T bit for bit (its relabelled levels are the same chain of compress steps),
    T^-1 on V0 and W0 bit for bit and on the dilated levels to rounding (dilate then
    compress)."""
    g = built(name, depth=4)
    vs = slot_random_vector(g, random.Random(name), degree=3)
    shifted = slot_T(g, vs)
    assert shifted == chain_T(g, vs)
    v = to_w0(g, vs)
    assert apply_T(g, v) == to_w0(g, shifted)
    for ours, ref in ((apply_T_inverse(g, apply_T(g, v)), to_w0(g, chain_T_inverse(g, shifted))),
                      (apply_T_inverse(g, v), to_w0(g, chain_T_inverse(g, vs)))):
        assert ours.v0 == ref.v0 and ours.w[0] == ref.w[0]
        assert vector_distance(g, ours, ref) <= 1e-13 * slot_norm(ref)


@pytest.mark.parametrize("name", PURE_SYSTEMS)
def test_translation_and_norm_agree_with_the_slot_path(name):
    g = built(name, depth=4)
    vs = slot_random_vector(g, random.Random(name), degree=3)
    v = to_w0(g, vs)
    assert abs(ledger_norm(g, v) - slot_norm(vs)) <= 1e-13 * slot_norm(vs)
    for gamma in (1, g.e.N, 3):
        assert apply_translation(g, gamma, v) == to_w0(g, slot_translation(g, gamma, vs))


@pytest.mark.parametrize("name, depth, top_level", [
    ("haar", 5, None), ("journe", 4, 2), ("cantor3", 3, None), ("haar3_2wavelet", 2, 0),
])
def test_random_vector_draws_per_slot(name, depth, top_level):
    """random_ledger_vector draws what the per-slot draw does, from the same stream, and
    converts it: level 0 as drawn, the others to rounding."""
    g = built(name, depth=depth)
    ours_rng, slot_rng = random.Random(name), random.Random(name)
    v = random_ledger_vector(g, ours_rng, degree=3, top_level=top_level)
    ref = to_w0(g, slot_random_vector(g, slot_rng, degree=3, top_level=top_level))
    assert ours_rng.random() == slot_rng.random()
    assert v.v0 == ref.v0 and v.w[0] == ref.w[0]
    assert vector_distance(g, v, ref) <= 1e-13 * slot_norm(ref)


def dft_haar_system(N):
    """h = N^-1/2 sum_k e(-k w), with the other N - 1 DFT rows as G."""
    e, m = TorusEndomorphism(N), MultiplicityFunction.constant(1)

    def row(r):
        terms = [(F(-k), unit_phase(F(r * k, N)) / math.sqrt(N)) for k in range(N)]
        return (TrigPoly.from_pieces([(0, 1, terms)]),)

    G = FilterMatrix(tuple(row(r) for r in range(1, N)), m, e, "mtilde")
    return m, FilterMatrix((row(0),), m, e), G, e


# N = 2, 2, 3, 3 and 4
LEDGER_SYSTEMS = ("journe", "shannon_reversed", "cantor3", "haar3_2wavelet", "dft_haar4")


@functools.lru_cache(maxsize=None)
def ledger_of(name, depth):
    if name == "dft_haar4":
        return build(*dft_haar_system(4), depth=depth)
    return built(name, depth=depth)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LEDGER_SYSTEMS), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_shift_properties(name, depth, seed):
    """T^-1 T v = v, T keeps the norm, and T tau_1 T^-1 = tau_N, for N = 2..4 and depths 0..6."""
    g = ledger_of(name, depth)
    v = random_ledger_vector(g, random.Random(seed), degree=2)
    size = ledger_norm(g, v)
    shifted = apply_T(g, v)
    assert abs(ledger_norm(g, shifted) - size) <= 1e-12 * size
    assert vector_distance(g, apply_T_inverse(g, shifted), v) <= 1e-12 * size
    lhs = apply_T(g, apply_translation(g, 1, apply_T_inverse(g, v)))
    assert vector_distance(g, lhs, apply_translation(g, g.e.N, v)) <= 1e-12 * size


class TestBuild:
    def test_haar_ledger_shape(self):
        g = built("haar", depth=3)
        groups = g.scaled_ledger()
        assert [grp["space"] for grp in groups] == ["V0", "W0", "W1", "W2", "W3"]
        assert [grp["weight"] for grp in groups] == [1, 1, 2, 4, 8]
        assert groups[0]["components"] == [TorusSet.full()]
        # every detail slot dilates the full circle onto itself
        for grp, count in zip(groups[1:], [1, 2, 4, 8]):
            assert grp["slot_count"] == count
            assert grp["components"] == [F(grp["weight"])]
            for bases in grp["bases"]:
                assert all(base == TorusSet.full() for base in bases)

    def test_journe_core_and_first_detail(self):
        g = built("journe", depth=1)
        assert [s.base for s in g.v0_slots] == [
            ts(("-1/2", "-3/7"), ("-2/7", "2/7"), ("3/7", "1/2")),
            ts(("-1/7", "1/7")),
        ]
        assert [s.base for s in g.w_levels[0]] == [TorusSet.full()]

    def test_eigenfilter_refused(self):
        entry = catalog.get("eigenfilter_constant")
        with pytest.raises(NotPureIsometry) as info:
            build(entry.m, entry.H, entry.G, entry.e)
        assert info.value.verdict.eigenvalue is not None

    def test_negative_depth_refused(self):
        entry = catalog.get("haar")
        with pytest.raises(ValueError):
            build(entry.m, entry.H, entry.G, entry.e, depth=-2)
        g = build(entry.m, entry.H, entry.G, entry.e, depth=0)
        assert g.depth == 0 and len(g.w_levels) == 1

    @pytest.mark.parametrize("depth", [2.0, F(2), "2"])
    def test_non_integer_depth_refused(self, depth):
        entry = catalog.get("haar")
        with pytest.raises(ValueError):
            build(entry.m, entry.H, entry.G, entry.e, depth=depth)

    def test_numpy_integer_depth(self):
        entry = catalog.get("haar")
        g = build(entry.m, entry.H, entry.G, entry.e, depth=np.int64(2))
        assert type(g.depth) is int and g == built("haar", depth=2)

    def test_bad_filter_refused(self):
        entry = catalog.get("haar_unnormalized")
        good = catalog.get("haar")
        with pytest.raises(FilterInvalid):
            build(entry.m, entry.H, good.G, entry.e)


class TestDilation:
    def test_full_circle_splits_into_two_branches(self):
        slot = SpaceSlot("W", 0, 0, (), TorusSet.full(), 1)
        children = dilate_slots([slot], N2)
        assert len(children) == 2
        assert all(c.base == TorusSet.full() for c in children)
        assert all(c.weight == 2 for c in children)
        assert {c.branch[-1] for c in children} == {F(0), F(1, 2)}

    def test_empty_base_gives_nothing(self):
        slot = SpaceSlot("W", 0, 0, (), TorusSet.empty(), 1)
        assert dilate_slots([slot], N2) == []

    def test_single_branch_half(self):
        slot = SpaceSlot("W", 0, 0, (), ts((0, "1/2")), 1)
        children = dilate_slots([slot], N2)
        assert len(children) == 1
        assert children[0].base == TorusSet.full()
        assert children[0].weight == 2

    def test_weighted_measure_preserved(self):
        slot = SpaceSlot("W", 0, 0, (), ts(("1/8", "3/4")), 1)
        children = dilate_slots([slot], N2)
        total = sum((c.base.measure() for c in children), F(0))
        assert total == 2 * slot.base.measure()


def per_slot_dilate_slots(slots, e):
    """The dilation step split slot by slot: a tau_partition and an image_set per slot."""
    return [
        SpaceSlot(s.kind, s.index, s.level + 1, s.branch + (zeta,), e.image_set(part),
                  s.weight * e.N)
        for s in slots
        for zeta, part in e.tau_partition(s.base)
    ]


def per_slot_levels(w0, e, depth):
    levels = [tuple(w0)]
    for _ in range(depth):
        levels.append(tuple(per_slot_dilate_slots(levels[-1], e)))
    return tuple(levels)


@pytest.mark.parametrize("name", PURE_SYSTEMS)
def test_layout_is_the_per_slot_split(name):
    """Each distinct base split once gives the per-slot layout, on the system and on its
    conjugates by 2 and 3 arcs (same m, so the same layout), at every depth up to 6."""
    entry, rng = catalog.get(name), random.Random(name)
    systems = [(entry.H, entry.G)] + [conjugated(entry, pieces, rng) for pieces in (2, 3)]
    for H, G in systems:
        g = build(entry.m, H, G, entry.e, depth=6)
        assert g.w_levels == per_slot_levels(g.w_levels[0], entry.e, 6)


@settings(max_examples=60, deadline=None)
@given(st.lists(circle_sets(), min_size=1, max_size=3), st.integers(2, 5),
       st.lists(st.integers(0, 2), max_size=8))
def test_dilate_slots_is_the_per_slot_split(bases, N, picks):
    """On slots over random bases (repeats included), one and two steps match the per-slot
    split, slots and order alike, and slots over equal bases get the same child sets."""
    e = TorusEndomorphism(N)
    slots = [SpaceSlot("W", i, 0, (), bases[k % len(bases)], 1) for i, k in enumerate(picks)]
    once = dilate_slots(slots, e)
    assert once == per_slot_dilate_slots(slots, e)
    assert dilate_slots(once, e) == per_slot_dilate_slots(once, e)
    shared = {}
    for s in slots:
        children = [id(c.base) for c in once if c.index == s.index]
        assert shared.setdefault(s.base, children) == children


class TestUnitarity:
    def test_canonical_vector_maps_to_filter(self):
        g = built("haar", depth=2)
        v = LedgerVector(
            (TrigPoly.indicator(g.v0_slots[0].base),), LedgerVector.zero(g).w
        )
        out = apply_T(g, v)
        assert out.v0[0].deviation_from(g.H.entry(0, 0)) < 1e-12

    def test_inverse_roundtrip(self):
        g = built("haar", depth=3)
        rng = random.Random(2)
        v = random_ledger_vector(g, rng, degree=3, top_level=1)
        assert vector_distance(g, apply_T(g, apply_T_inverse(g, v)), v) < 1e-9
        assert vector_distance(g, apply_T_inverse(g, apply_T(g, v)), v) < 1e-9

    def test_norm_preserved(self):
        for name in ("haar", "journe"):
            g = built(name, depth=3)
            rng = random.Random(3)
            for _ in range(3):
                v = random_ledger_vector(g, rng, degree=3, top_level=1)
                assert abs(ledger_norm(g, apply_T(g, v)) - ledger_norm(g, v)) < 1e-9

    def test_top_level_above_the_depth_refused(self):
        g = built("haar", depth=3)
        with pytest.raises(ValueError):
            random_ledger_vector(g, random.Random(4), degree=2, top_level=10)
        with pytest.raises(ValueError):
            random_ledger_vector(g, random.Random(4), degree=2, top_level=1.0)
        top = random_ledger_vector(g, random.Random(4), degree=2, top_level=np.int64(3))
        assert top == random_ledger_vector(g, random.Random(4), degree=2, top_level=3)
        assert not all(c.is_zero() for c in top.w[3])

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError):
            random_ledger_vector(built("haar", depth=2), random.Random(4), degree=-1)

    def test_depth_exceeded(self):
        g = built("haar", depth=1)
        rng = random.Random(4)
        v = random_ledger_vector(g, rng, degree=2, top_level=1)
        with pytest.raises(DepthExceeded):
            apply_T_inverse(g, v)

    def test_inverse_shift_preserves_norms(self):
        # S_H* and S_G* on V0 plus the relabelling of the detail levels; the
        # branch dilation isometry is checked through pull_back_level against
        # to_w0 (test_random_vector_draws_per_slot and
        # test_translation_and_norm_agree_with_the_slot_path)
        for name in ("haar", "journe"):
            g = built(name, depth=3)
            rng = random.Random(8)
            v = random_ledger_vector(g, rng, degree=3, top_level=1)
            assert abs(
                ledger_norm(g, apply_T_inverse(g, v)) - ledger_norm(g, v)
            ) < 1e-9


class TestTranslation:
    def test_gamma_zero_is_identity(self):
        g = built("haar", depth=2)
        rng = random.Random(5)
        v = random_ledger_vector(g, rng, degree=3, top_level=1)
        assert vector_distance(g, apply_translation(g, 0, v), v) == 0

    @pytest.mark.parametrize("gamma", [F(1, 2), F(2), 0.5, 1.0])
    def test_non_integer_refused(self, gamma):
        g = built("haar", depth=2)
        v = random_ledger_vector(g, random.Random(5), degree=3, top_level=1)
        with pytest.raises(ValueError):
            apply_translation(g, gamma, v)

    def test_numpy_integer_is_the_int(self):
        g = built("haar", depth=3)
        v = random_ledger_vector(g, random.Random(5), degree=3)
        assert apply_translation(g, np.int64(2), v) == apply_translation(g, 2, v)
        # gamma * N^n would wrap in int64 past level 0
        big = 2**62
        assert apply_translation(g, np.int64(big), v) == apply_translation(g, big, v)
        assert apply_translation(g, big, v).w[2][0].frequencies() <= {
            F(big * 4 + n, 1) for n in range(-24, 25)
        }

    def test_norm_preserved_exactly(self):
        g = built("journe", depth=2)
        rng = random.Random(6)
        v = random_ledger_vector(g, rng, degree=3, top_level=1)
        assert abs(
            ledger_norm(g, apply_translation(g, 3, v)) - ledger_norm(g, v)
        ) < 1e-12

    def test_covariance(self):
        for name in ("haar", "journe"):
            g = built(name, depth=4)
            rng = random.Random(7)
            v = random_ledger_vector(g, rng, degree=3, top_level=1)
            lhs = apply_T(g, apply_translation(g, 1, apply_T_inverse(g, v)))
            rhs = apply_translation(g, g.e.N, v)
            assert vector_distance(g, lhs, rhs) < 1e-9


class TestNegativeSupports:
    def test_journe_standard(self):
        g = built("journe", depth=1)
        lvl = negative_supports(g, 1)[0]
        assert list(lvl.v_supports) == [
            ts(("-1/7", "1/7"), ("1/4", "2/7"), ("-2/7", "-1/4"),
               ("3/7", "1/2"), ("-1/2", "-3/7")),
            TorusSet.empty(),
        ]

    def test_journe_rank2(self):
        g = built("journe_rank2", depth=1)
        lvl = negative_supports(g, 1)[0]
        assert list(lvl.v_supports) == [
            ts(("-1/7", "1/7"), ("1/4", "2/7"), ("-2/7", "-1/4")),
            ts(("-1/14", "1/14")),
        ]

    def test_reversed_shannon_chain(self):
        # V_{-1} = +-[1/4,1/2); iterating the dilation once more gives
        # V_{-2} = supp(h) n preimage(V_{-1}) = +-[1/4,3/8) and
        # W_{-2} = supp(h) n preimage(supp(g)) = +-[3/8,1/2).
        g = built("shannon_reversed", depth=1)
        levels = negative_supports(g, 2)
        assert list(levels[0].v_supports) == [ts(("1/4", "1/2"), ("-1/2", "-1/4"))]
        assert list(levels[1].v_supports) == [ts(("1/4", "3/8"), ("-3/8", "-1/4"))]
        assert list(levels[1].w_supports) == [ts(("3/8", "1/2"), ("-1/2", "-3/8"))]

    def test_reversed_shannon_w_chain_start(self):
        g = built("shannon_reversed", depth=1)
        lvl = negative_supports(g, 1)[0]
        assert list(lvl.w_supports) == [ts(("-1/4", "1/4"))]

    def test_nesting(self):
        for name in ("journe", "journe_rank2", "shannon_reversed", "haar"):
            g = built(name, depth=1)
            levels = negative_supports(g, 3)
            prev = [s.base for s in g.v0_slots]
            for lvl in levels:
                for inner_set, outer_set in zip(lvl.v_supports, prev):
                    assert inner_set.is_subset(outer_set)
                prev = list(lvl.v_supports)

    def test_multiplicity_recovery(self):
        # the ledger's core slots read back the input multiplicity
        for name in ("haar", "journe"):
            entry = catalog.get(name)
            g = built(name, depth=1)
            recovered = _sum_indicator_layers(
                [slot.base for slot in g.v0_slots]
            )
            assert recovered == entry.m


def _sum_indicator_layers(sets):
    points = sorted({p for s in sets for lo, hi in s.intervals for p in (lo, hi)} | {F(0)})
    points = points + [F(1)]
    pieces = []
    for a, b in zip(points, points[1:]):
        if a >= b:
            continue
        value = sum(1 for s in sets if TorusSet.interval(a, b).is_subset(s))
        if value:
            pieces.append((a, b, value))
    return MultiplicityFunction.from_pieces(pieces)


def per_level_cascade(h, e, iters, samples):
    """The partial products of ``cascade_diagnostic`` with one ``sample`` call per level:
    the last product, the sup increments and the peak moduli."""
    xs = np.linspace(-0.5, 0.5, samples)
    scale = 1.0 / math.sqrt(e.N)
    prod = np.ones(samples, dtype=complex)
    diffs, peaks = [], []
    for j in range(1, iters + 1):
        prev = prod.copy()
        prod = prod * h.sample(xs / float(e.N**j)) * scale
        diffs.append(float(np.abs(prod - prev).max()))
        peaks.append(float(np.abs(prod).max()))
    return prod, diffs, peaks


class TestCascade:
    def test_haar_matches_sinc(self):
        entry = catalog.get("haar")
        res = cascade_diagnostic(entry.H, entry.e, iters=30, samples=1024)
        oracle = np.abs(np.sinc(res.omegas))
        assert np.abs(np.abs(res.values) - oracle).max() < 1e-6

    def test_haar_converges_with_enough_iterations(self):
        entry = catalog.get("haar")
        res = cascade_diagnostic(entry.H, entry.e, iters=40, samples=256)
        assert res.verdict == CONVERGENT_NONZERO

    def test_cantor_degenerates(self):
        entry = catalog.get("cantor3")
        res = cascade_diagnostic(entry.H, entry.e, iters=80, samples=128)
        assert res.verdict == DEGENERATES_TO_ZERO
        mid = int(np.argmin(np.abs(res.omegas)))
        assert abs(res.values[mid]) <= 1e-6

    @pytest.mark.parametrize("name", ["haar3_2wavelet", "cantor3"])
    def test_modulus_is_even(self, name):
        """For N = 3 the points w/3^j just below 0 reduce mod 1 to 1.0 in floats from about
        j = 28; they must take the last cell's value, not 0."""
        entry = catalog.get(name)
        res = cascade_diagnostic(entry.H, entry.e, iters=30, samples=1024)
        assert np.abs(res.omegas + res.omegas[::-1]).max() <= 1e-15
        modulus = np.abs(res.values)
        assert np.abs(modulus - modulus[::-1]).max() <= 1e-12

    @pytest.mark.parametrize("iters, samples", [(40, 512), (40, 1024), (30, 1000)])
    @pytest.mark.parametrize("name", [n for n in catalog.names() if catalog.get(n).H.is_scalar()])
    def test_levels_sampled_at_once_are_those_of_one_call_per_level(self, name, iters, samples):
        entry = catalog.get(name)
        res = cascade_diagnostic(entry.H, entry.e, iters=iters, samples=samples)
        values, diffs, peaks = per_level_cascade(entry.H.entry(0, 0), entry.e, iters, samples)
        assert res.values.tobytes() == values.tobytes()
        assert res.diagnostics["last_increments"] == diffs[-5:]
        assert res.diagnostics["max_modulus"] == peaks[-1]

    def test_negated_haar_never_converges(self):
        entry = catalog.get("haar_negated")
        res = cascade_diagnostic(entry.H, entry.e, iters=40, samples=256)
        assert res.verdict != CONVERGENT_NONZERO


class TestTensor:
    def _system(self, name):
        entry = catalog.get(name)
        return (entry.m, entry.H, entry.G, entry.e)

    def test_haar_squared(self):
        prod = tensor(self._system("haar"), self._system("haar"))
        assert prod.N == 4
        assert prod.m_constant() == 1
        # mtilde at (0, 0) is the product of the factors' folded m minus their m: 2 * 2 - 1
        folded = math.prod(folded_sum(f.m, f.e).value_at(F(0)) for f in prod.factors)
        assert folded - math.prod(f.m.value_at(F(0)) for f in prod.factors) == 3
        assert prod.verify(grid=10).passed

    def test_haar_times_shannon(self):
        prod = tensor(self._system("haar"), self._system("shannon"))
        rep = prod.verify(grid=10)
        assert rep.passed and rep.max_residual < 1e-9

    def test_verify_matches_the_per_point_loop(self):
        # diag(haar, shannon) with m = 2: a factor with 2x2 blocks
        haar, shannon = catalog.get("haar"), catalog.get("shannon")
        two = MultiplicityFunction.constant(2)
        zero = TrigPoly.zero()
        diag = FilterMatrix(
            ((haar.H.entry(0, 0), zero), (zero, shannon.H.entry(0, 0))), two, haar.e
        )
        diag_system = FilterSystem(two, diag, None, haar.e)
        products = [
            tensor(self._system("haar"), self._system("haar")),
            tensor(self._system("haar"), self._system("shannon")),
            TensorGMRA((FilterSystem(*self._system("haar_unnormalized")),
                        FilterSystem(*self._system("cohen")))),
            TensorGMRA((diag_system, FilterSystem(*self._system("haar3_2wavelet")))),
        ]
        for prod in products:
            for grid in (7, 10):
                rep = prod.verify(grid=grid)
                assert abs(rep.max_residual - kron_fold_loop(prod, grid)) < 1e-12
        assert products[2].verify(grid=10).max_residual > 1

    def test_refuses_eigenfilter_factor(self):
        with pytest.raises(NotPureIsometry):
            tensor(self._system("haar"), self._system("eigenfilter_constant"))


class TestOwnContext:
    """An m or e passed beside a filter must be the one the filter carries."""

    def test_build_refuses_another_multiplicity(self):
        haar, journe = catalog.get("haar"), catalog.get("journe")
        with pytest.raises(ContextMismatch):
            build(journe.m, haar.H, haar.G, haar.e)

    def test_build_refuses_another_dilation(self):
        haar = catalog.get("haar")
        with pytest.raises(ContextMismatch):
            build(haar.m, haar.H, haar.G, TorusEndomorphism(3))

    def test_tensor_refuses_another_multiplicity_or_dilation(self):
        haar = catalog.get("haar")
        system = (haar.m, haar.H, haar.G, haar.e)
        with pytest.raises(ContextMismatch):
            tensor((MultiplicityFunction.constant(2), haar.H, haar.G, haar.e), system)
        with pytest.raises(ContextMismatch):
            tensor(system, FilterSystem(haar.m, haar.H, haar.G, TorusEndomorphism(3)))

    def test_cascade_refuses_another_dilation(self):
        haar = catalog.get("haar")
        with pytest.raises(ContextMismatch):
            cascade_diagnostic(haar.H, TorusEndomorphism(3))
        # a bare poly carries no dilation, so any e is taken
        h = haar.H.entry(0, 0)
        assert cascade_diagnostic(h, haar.e).verdict == CONVERGENT_NONZERO


def kron_fold_loop(prod, grid):
    """Worst deviation of the Kronecker fold from N*I, point by point with value_at."""
    c = prod.m_constant()
    f1, f2 = prod.factors
    r1, r2 = f1.m.max_value(), f2.m.max_value()
    devs = []
    for s in range(grid):
        for t in range(grid):
            acc = np.zeros((c, c), dtype=complex)
            for z1 in f1.e.preimages(F(s, grid)):
                for z2 in f2.e.preimages(F(t, grid)):
                    val = np.kron(f1.H.value_at(z1)[:r1, :r1], f2.H.value_at(z2)[:r2, :r2])
                    acc += val @ val.conj().T
            devs.append(float(np.abs(acc - prod.N * np.eye(c)).max()))
    return max(devs)
