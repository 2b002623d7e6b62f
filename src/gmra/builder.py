"""Construction of the canonical GMRA as a symbolic space ledger.

The core space is the direct sum of L2 over the multiplicity level sets;
the zero-th detail space W0 sits over the complementary level sets, and
each higher detail space is the dilation of the previous one, laid out as
slots by splitting every base set into its injective dilation branches.
A slot's split depends only on its base, and level n of a W0 base B is
N^n (B n [J/N^n, (J+1)/N^n)) - J, the full circle for every J inside a span
of B, so the bases of a level repeat: each distinct base is split once per
step and its slots share the resulting sets.  Ledger vectors take the form
V0 (+) W0 (+) D W0 (+) ..., each level in W0 coordinates, so the unitary
shift is S_H (+) S_G on V0 (+) W0 followed by a relabelling of the levels:
it costs O(depth), not O(slots).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import (
    ContextMismatch,
    DepthExceeded,
    FilterInvalid,
    NotPureIsometry,
    UnsupportedRepresentation,
)
from .equivalence import PURE, PurityVerdict, purity_test
from .filters import (
    DEFAULT_TOL,
    FilterMatrix,
    GridFilterMatrix,
    VerificationReport,
    verify_complementary,
    verify_filter,
    worst_residual,
)
from .multiplicity import (
    MultiplicityFunction,
    check_consistency,
    compute_mtilde,
    sigma_sets,
)
from .ruelle import SectionVector, apply_S, apply_S_adjoint, random_section
from .torus import TorusEndomorphism, TorusSet
from .trigpoly import TrigPoly, _inners, gated_compress


@dataclass(frozen=True)
class SpaceSlot:
    """One component space of the ledger.

    Core slots ("V0", index i) carry the i-th level set at level 0.  Detail
    slots ("W", index k) at level n carry the n-fold dilation of the k-th
    complementary level set along one branch path; ``branch`` records the
    kernel elements chosen at each dilation step and ``weight`` the
    cumulative measure scaling N^level of the scaled presentation.
    """

    kind: str  # "V0" or "W"
    index: int
    level: int
    branch: tuple[Fraction, ...]
    base: TorusSet
    weight: int


def dilate_slots(slots, e: TorusEndomorphism) -> list[SpaceSlot]:
    """One dilation step: split each base into branches, push each forward.

    Per branch the map is injective, the image has N times the branch
    measure, and the total weighted dimension is preserved.  The split of a
    base is the same for every slot over it, so each distinct base is split
    once and its (zeta, image) pairs, ``TorusSet`` objects included, serve
    all of its slots; the children come out slot by slot, branches ascending.
    """
    splits: dict[TorusSet, list[tuple[Fraction, TorusSet]]] = {}
    out = []
    for s in slots:
        split = splits.get(s.base)
        if split is None:
            split = splits[s.base] = [
                (zeta, e.image_set(part)) for zeta, part in e.tau_partition(s.base)
            ]
        level, weight = s.level + 1, s.weight * e.N
        out.extend(
            SpaceSlot(s.kind, s.index, level, s.branch + (zeta,), image, weight)
            for zeta, image in split
        )
    return out


@dataclass(frozen=True)
class CanonicalGMRA:
    """Finite-depth ledger V0 (+) W0 (+) ... (+) W_depth with its filters."""

    m: MultiplicityFunction
    mtilde: MultiplicityFunction
    H: FilterMatrix
    G: FilterMatrix
    e: TorusEndomorphism
    depth: int
    v0_slots: tuple[SpaceSlot, ...]
    w_levels: tuple[tuple[SpaceSlot, ...], ...]
    purity: PurityVerdict = field(compare=False)

    @property
    def slots(self) -> tuple[SpaceSlot, ...]:
        flat = list(self.v0_slots)
        for level in self.w_levels:
            flat.extend(level)
        return tuple(flat)

    def scaled_ledger(self) -> list[dict]:
        """Grouped view: V0 plus one group per detail level.

        For integer translations each level-n group presents as L2 of the
        n-times-dilated circle: weight N^n with total scaled measure equal
        to the sum of branch base measures.
        """
        groups = [
            {
                "space": "V0",
                "weight": 1,
                "components": [slot.base for slot in self.v0_slots],
                "slot_count": len(self.v0_slots),
            }
        ]
        for n, level in enumerate(self.w_levels):
            by_index: dict[int, list[SpaceSlot]] = {}
            for slot in level:
                by_index.setdefault(slot.index, []).append(slot)
            groups.append(
                {
                    "space": f"W{n}",
                    "weight": self.e.N**n,
                    "components": [
                        sum((s.base.measure() for s in by_index[k]), Fraction(0))
                        for k in sorted(by_index)
                    ],
                    "bases": [
                        [s.base for s in by_index[k]] for k in sorted(by_index)
                    ],
                    "slot_count": len(level),
                }
            )
        return groups


def _integer(x, what: str) -> int:
    """x as a Python int, read by ``operator.index``: ValueError for anything else."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def _check_context(m: MultiplicityFunction, H, e: TorusEndomorphism):
    """m and e are the filter's own: H carries the (m, N) it was made for."""
    if H.m != m or H.e != e:
        raise ContextMismatch("m and e must be those the filter H carries")


def build(
    m: MultiplicityFunction,
    H: FilterMatrix,
    G: FilterMatrix,
    e: TorusEndomorphism,
    depth: int = 3,
    tol: float = DEFAULT_TOL,
) -> CanonicalGMRA:
    """Validate the parameters and lay out the ledger to the given depth."""
    _check_context(m, H, e)
    depth = _integer(depth, "ledger depth")
    if depth < 0:
        raise ValueError(f"ledger depth must be >= 0, got {depth}")
    report = check_consistency(m, e)
    if not report.holds:
        raise FilterInvalid(
            f"multiplicity fails consistency on {report.violation}"
        )
    hrep = verify_filter(H, tol)
    if not hrep.passed:
        raise FilterInvalid("H fails the filter conditions", hrep)
    grep = verify_complementary(G, H, tol)
    if not grep.passed:
        raise FilterInvalid("G is not complementary to H", grep)
    verdict = purity_test(H, tol=tol)
    if verdict.kind != PURE:
        raise NotPureIsometry(
            f"cannot build: purity verdict is {verdict.kind}", verdict
        )
    mtilde = compute_mtilde(m, e)
    v0 = tuple(
        SpaceSlot("V0", i, 0, (), base, 1)
        for i, base in enumerate(sigma_sets(m))
    )
    w0 = [
        SpaceSlot("W", k, 0, (), base, 1)
        for k, base in enumerate(sigma_sets(mtilde))
    ]
    levels = [tuple(w0)]
    for _ in range(depth):
        levels.append(tuple(dilate_slots(levels[-1], e)))
    return CanonicalGMRA(
        m=m,
        mtilde=mtilde,
        H=H,
        G=G,
        e=e,
        depth=depth,
        v0_slots=v0,
        w_levels=tuple(levels),
        purity=verdict,
    )


# ---- ledger vectors ---------------------------------------------------------


@dataclass(frozen=True)
class LedgerVector:
    """V0 (+) W0 (+) D W0 (+) ... in W0 coordinates: ``v0`` has one component per core
    slot, and ``w[n]`` the level-n details u_n = D^-n w_n, one component per W0 slot."""

    v0: tuple[TrigPoly, ...]
    w: tuple[tuple[TrigPoly, ...], ...]  # one tuple per level, one component per W0 slot

    @staticmethod
    def zero(g: CanonicalGMRA) -> "LedgerVector":
        return LedgerVector(
            tuple(TrigPoly.zero() for _ in g.v0_slots),
            tuple(_zero_level(g) for _ in g.w_levels),
        )


def _zero_level(g: CanonicalGMRA) -> tuple[TrigPoly, ...]:
    return tuple(TrigPoly.zero() for _ in g.w_levels[0])


def conform(g: CanonicalGMRA, v: LedgerVector):
    if (len(v.v0) != len(g.v0_slots) or len(v.w) != len(g.w_levels)
            or any(len(level) != len(g.w_levels[0]) for level in v.w)):
        raise ContextMismatch("vector does not conform to the ledger")


def ledger_norm(g: CanonicalGMRA, v: LedgerVector) -> float:
    """The ledger norm: D is unitary, so each level's W0 components count as they are."""
    conform(g, v)
    total = 0.0
    for value in _inners((c, c) for c in list(v.v0) + [c for level in v.w for c in level]):
        total += max(value.real, 0.0)
    return math.sqrt(total)


def _section(comps, slots) -> SectionVector:
    return SectionVector.from_components(comps, tuple(s.base for s in slots))


def apply_T(g: CanonicalGMRA, v: LedgerVector) -> LedgerVector:
    """The ledger shift: V0 <- S_H(V0) + S_G(W0), then u_n <- u_{n+1} with a zero top level."""
    conform(g, v)
    core, detail = _section(v.v0, g.v0_slots), _section(v.w[0], g.w_levels[0])
    new_v0 = apply_S(g.H, core) + apply_S(g.G, detail)
    return LedgerVector(tuple(new_v0.components), tuple(v.w[1:]) + (_zero_level(g),))


def apply_T_inverse(g: CanonicalGMRA, v: LedgerVector) -> LedgerVector:
    """V0 <- S_H*(V0), W0 <- S_G*(V0), u_{n+1} <- u_n; DepthExceeded if the top is occupied."""
    conform(g, v)
    if any(not c.is_zero() for c in v.w[-1]):
        raise DepthExceeded("top detail level is occupied; rebuild with a larger depth")
    core = _section(v.v0, g.v0_slots)
    new_w0 = tuple(apply_S_adjoint(g.G, core).components)
    return LedgerVector(tuple(apply_S_adjoint(g.H, core).components), (new_w0,) + tuple(v.w[:-1]))


def apply_translation(g: CanonicalGMRA, gamma: int, v: LedgerVector) -> LedgerVector:
    """Multiply every slot component by e^(2*pi*i*gamma*w) in its own coordinate: on level
    n in W0 coordinates by e^(2*pi*i*gamma*N^n*x), since a slot on branch J has
    w = N^n*x - J and e^(2*pi*i*gamma*J) = 1 for integer gamma.  gamma is read as a Python
    int, so gamma*N^n cannot overflow."""
    gamma = _integer(gamma, "a translation")
    conform(g, v)
    return LedgerVector(
        tuple(c.shift_frequencies(gamma) for c in v.v0),
        tuple(
            tuple(c.shift_frequencies(gamma * g.e.N**n) for c in level)
            for n, level in enumerate(v.w)
        ),
    )


def pull_back_level(g: CanonicalGMRA, n: int, comps) -> tuple[TrigPoly, ...]:
    """u = D^-n w: level-n components, one per slot of ``g.w_levels[n]``, in W0 coordinates.

    A slot on the branch path k_0 .. k_(n-1) pulls back along branch
    J = sum k_i N^(n-1-i) of w -> N^n w with scale sqrt(N)^n, and all slots
    under W0 slot k go into one sweep gated by its base.
    """
    if n == 0:
        return tuple(comps)
    N, parts = g.e.N, [[] for _ in g.w_levels[0]]
    for slot, f in zip(g.w_levels[n], comps):
        J = 0
        for zeta in slot.branch:  # the kernel element (N - k)/N records branch k, in ints
            J = J * N + -zeta.numerator * (N // zeta.denominator) % N
        parts[slot.index].append((f, J))
    e, scale = TorusEndomorphism(N**n), math.sqrt(N) ** n
    return tuple(gated_compress(p, e, s.base, scale) for p, s in zip(parts, g.w_levels[0]))


def random_ledger_vector(
    g: CanonicalGMRA,
    rng: random.Random,
    degree: int = 5,
    top_level: int | None = None,
) -> LedgerVector:
    """Seeded vector with trig-poly components up to ``top_level`` details: each slot draws
    its component over its base, and each level is then pulled back to W0 once.  The
    default ``top_level`` is depth - 1; above the depth it is refused."""
    if top_level is None:
        top_level = g.depth - 1
    top_level = _integer(top_level, "top_level")
    if top_level > g.depth:
        raise ValueError(f"top_level {top_level} exceeds the ledger depth {g.depth}")
    v0 = random_section(tuple(s.base for s in g.v0_slots), rng, degree)
    levels = []
    for n, slots in enumerate(g.w_levels):
        if n <= top_level:
            sec = random_section(tuple(s.base for s in slots), rng, degree)
            levels.append(pull_back_level(g, n, sec.components))
        else:
            levels.append(_zero_level(g))
    return LedgerVector(tuple(v0.components), tuple(levels))


# ---- negative dilates -------------------------------------------------------


def _require_exact(F) -> FilterMatrix:
    if isinstance(F, GridFilterMatrix):
        raise UnsupportedRepresentation(
            "support propagation needs exact piecewise entries"
        )
    return F


def _propagate_supports(F: FilterMatrix, sets: list[TorusSet]) -> list[TorusSet]:
    """Component supports of S_F applied to sections over ``sets``.

    Component j collects the supports of F_ij intersected with the preimage
    of the i-th input support.  Entries are treated as nonvanishing on
    their supports (zeros of a nonzero trig poly are null).
    """
    preimages = [F.e.preimage_set(s) for s in sets[: F.rows]]
    return [
        reduce(
            TorusSet.union,
            (F.entry(i, j).support().intersect(pre) for i, pre in enumerate(preimages)),
            TorusSet.empty(),
        )
        for j in range(len(F.column_sets))
    ]


@dataclass(frozen=True)
class NegativeLevel:
    j: int
    v_supports: tuple[TorusSet, ...]
    w_supports: tuple[TorusSet, ...]


def negative_supports(g: CanonicalGMRA, levels: int) -> list[NegativeLevel]:
    """Exact component supports of the negative dilates, per level.

    V_{-j} iterates the H propagation from the core supports; W_{-j} routes
    the complementary supports through G once and then through H.
    """
    H = _require_exact(g.H)
    G = _require_exact(g.G)
    v_cur = sigma_sets(g.m)
    w_cur = _propagate_supports(G, sigma_sets(g.mtilde))
    out = []
    for j in range(1, levels + 1):
        v_cur = _propagate_supports(H, v_cur)
        if j > 1:
            w_cur = _propagate_supports(H, w_cur)
        out.append(NegativeLevel(j, tuple(v_cur), tuple(w_cur)))
    return out


# ---- cascade diagnostic ------------------------------------------------------

CONVERGENT_NONZERO = "convergent_nonzero"
DEGENERATES_TO_ZERO = "degenerates_to_zero"
INCONCLUSIVE = "inconclusive"
# defaults of cascade_diagnostic; haar's increments halve, so it stabilises from 31 levels
CASCADE_ITERS = 40
CASCADE_SAMPLES = 1024


@dataclass(frozen=True)
class CascadeResult:
    omegas: np.ndarray
    values: np.ndarray
    verdict: str
    diagnostics: dict


def cascade_diagnostic(
    h,
    e: TorusEndomorphism,
    iters: int = CASCADE_ITERS,
    samples: int = CASCADE_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> CascadeResult:
    """Partial products of the refinement symbol on [-1/2, 1/2].

    P_J(w) = prod_{j=1..J} h(w / N^j) / sqrt(N), sampled at ``samples``
    uniform points.  Degenerates when the products die; converges when the
    last five increments stay below 1e-8 in sup norm.
    """
    if isinstance(h, FilterMatrix):
        if not h.is_scalar():
            raise ContextMismatch("cascade diagnostic expects a scalar filter")
        if h.e != e:
            raise ContextMismatch("e must be the dilation the filter carries")
        h = h.entry(0, 0)
    xs = np.linspace(-0.5, 0.5, samples)
    scale = 1.0 / math.sqrt(e.N)
    prod = np.ones(samples, dtype=complex)
    diffs = []
    peaks = []
    # every level's h(w / N^j) in one sampling call, one row per level
    dilations = np.array([float(e.N**j) for j in range(1, iters + 1)])
    for level in h.sample(xs / dilations[:, None]):
        prev = prod
        prod = prod * level * scale
        diffs.append(float(np.abs(prod - prev).max()))
        peaks.append(float(np.abs(prod).max()))
    peak = peaks[-1]
    h0 = h.evaluate(Fraction(0))
    stabilized = len(diffs) >= 5 and max(diffs[-5:]) < 1e-8
    low_pass_gap = abs(abs(h0) - math.sqrt(e.N))
    decaying = len(peaks) >= 2 and peak < 0.5 * peaks[len(peaks) // 2]
    if peak < 1e-6 or (low_pass_gap > tol and decaying):
        verdict = DEGENERATES_TO_ZERO
    elif stabilized and peak >= 1e-6:
        verdict = CONVERGENT_NONZERO
    else:
        verdict = INCONCLUSIVE
    return CascadeResult(
        omegas=xs,
        values=prod,
        verdict=verdict,
        diagnostics={
            "max_modulus": peak,
            "h_at_zero": h0,
            "low_pass_gap": low_pass_gap,
            "last_increments": diffs[-5:],
        },
    )


# ---- tensor combinator -------------------------------------------------------


@dataclass(frozen=True)
class FilterSystem:
    """Raw parameter bundle (m, H, G, N) accepted by build and tensor."""

    m: MultiplicityFunction
    H: FilterMatrix
    G: FilterMatrix
    e: TorusEndomorphism


def _as_system(g) -> FilterSystem:
    if isinstance(g, CanonicalGMRA):
        return FilterSystem(g.m, g.H, g.G, g.e)
    system = g if isinstance(g, FilterSystem) else FilterSystem(*g)
    _check_context(system.m, system.H, system.e)
    return system


@dataclass(frozen=True)
class TensorGMRA:
    """Product of circle systems, kept in pair form.

    The dilation factor multiplies, multiplicities multiply pointwise on
    the product, and the filter is the Kronecker product of the factors;
    the filter identities are re-checked on a product grid.
    """

    factors: tuple[FilterSystem, ...]

    @property
    def N(self) -> int:
        return math.prod(f.e.N for f in self.factors)

    def m_constant(self) -> int | None:
        vals = []
        for f in self.factors:
            c = f.m.max_value()
            if f.m != MultiplicityFunction.constant(c):
                return None
            vals.append(c)
        return math.prod(vals)

    def verify(self, grid: int = 16, tol: float = DEFAULT_TOL) -> VerificationReport:
        """Re-check the product filter identity on a grid of pair points."""
        if len(self.factors) != 2:
            raise ContextMismatch("grid verification implemented for two factors")
        c = self.m_constant()
        if c is None:
            raise ContextMismatch(
                "tensor verification needs constant factor multiplicities"
            )
        # each factor's H, cut to its r rows and columns, at the preimages
        # (s + k*grid)/(n*grid) of the grid points s/grid, indexed [i, j, k, s]
        blocks = []
        for f in self.factors:
            r, n = f.m.max_value(), f.e.N
            blocks.append(f.H.grid_samples(n * grid)[:r, :r].reshape(r, r, n, grid))
        # kron(A, B)[(i, k), (j, l)] = A[i, j] B[k, l] for every branch pair, per pair point
        kron = np.einsum("ijps,klqt->stpqikjl", *blocks).reshape(grid, grid, -1, c, c)
        acc = np.einsum("stbij,stbkj->stik", kron, kron.conj())
        devs = np.abs(acc - self.N * np.eye(c)).max(axis=(2, 3)).ravel()
        return VerificationReport.from_identities({"kronecker_fold": worst_residual(devs)}, tol)


def tensor(a, b, tol: float = DEFAULT_TOL) -> TensorGMRA:
    """Tensor two systems; every factor must verify and be provably pure."""
    systems = []
    for g in (a, b):
        sys_ = _as_system(g)
        rep = verify_filter(sys_.H, tol)
        if not rep.passed:
            raise FilterInvalid("tensor factor fails the filter conditions", rep)
        verdict = purity_test(sys_.H, tol=tol)
        if verdict.kind != PURE:
            raise NotPureIsometry(
                f"tensor factor is not a pure isometry ({verdict.kind})", verdict
            )
        systems.append(sys_)
    return TensorGMRA(tuple(systems))
