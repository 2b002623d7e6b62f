"""The benchmark's workloads: seeded task pools, task pipelines, output checks.

A task is one problem taken through its workload's pipeline, from parsing
its problem JSON to its checked verdict.  ``Workload`` generates a workload's
pool from the seed and parses every input once through ``gmra.jsonio``;
``Workload.run`` takes one task through its pipeline and returns its
failed checks (empty when every output checks out).

Checks fail closed: a residual must be finite and within tolerance on its
own, whatever ``report.passed`` says, and any exception fails the task.
gmra functions are always reached through their module attribute, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import gen
from gmra import builder, catalog, equivalence, filters, jsonio, multiplicity, ruelle, trigpoly

# identities: every base conjugated at each piece count of its dilation N; a
# piece costs about N times as much for larger N, so N = 3, 4, 5 take fewer
# piece counts, and N = 4, 5 smaller ones, to keep a pass near ten seconds
IDENTITY_BASES = (
    "haar", "cohen", "shannon", "journe", "journe_rank2", "cantor3",
    "haar3_2wavelet", "dft_haar4", "dft_haar5",
)
IDENTITY_PIECES = {2: (2, 3, 4, 6, 8, 10, 12, 14, 16), 3: (2, 4, 8, 12, 16), 4: (2, 3, 4, 5, 6), 5: (2, 2, 3, 3, 4)}
IDENTITY_MAX_FREQ = 4

# ledger: pure catalog systems and low-P conjugations at depths 3..8 for N = 2
# (16 to 513 slots) and 3..5 for N = 3 (81 to 729 slots).  An N = 2 system
# and its conjugate take alternate depths, so that one pass over the pool
# stays near ten seconds; the two N = 3 systems and their conjugates take
# every depth, so that the largest ledgers are built from four systems
LEDGER_PIECES = (2, 3)
LEDGER_MAX_FREQ = 2
LEDGER_DEPTHS = {2: (3, 4, 5, 6, 7, 8), 3: (3, 4, 5)}
LEDGER_VECTOR_DEGREE = 2
LEDGER_NEGATIVE_LEVELS = 3

# grid: N = 2 systems at the two small grids, systems with N > 2 and the
# block-diagonal pairs at the smallest, and three seeded N = 2 systems at
# one large grid each
GRID_SCALAR = (
    "haar", "cohen", "shannon", "haar_negated", "haar_reversed", "shannon_reversed",
    "journe", "journe_rank2",
)
GRID_WIDE = ("haar3_2wavelet", "cantor3", "dft_haar4", "dft_haar5")
GRID_CONJUGATES = (("haar", 2), ("cohen", 4), ("shannon", 2), ("journe", 4))
GRID_SMALL = (256, 512)
GRID_LARGE = (1024, 2048, 4096)
GRID_PAIR_FILTERS = ("haar", "cohen", "shannon", "haar_reversed", "shannon_reversed")
# a sign-swapped pair (h, -h) is left out: see sign_swap_probe
GRID_PAIRS = ("swapped", "swapped", "twisted", "twisted")
CASCADE_ITERS = 40
CASCADE_SAMPLES = 512

WITNESS_TOL = 1e-8  # the exact re-check of a grid-found witness, as in decide


@dataclass
class Task:
    label: str
    size: str  # size class, for the input-size mix
    texts: tuple[str, ...]
    params: dict


class Failures(list):
    """Failed output checks of one task, as messages.

    ``wrong`` is set by any check of a value or verdict that contradicts the
    truth.  ``undecided`` records a verdict left at ``unknown`` where an
    equivalence is known to exist: the task fails, yet no output is wrong,
    since ``unknown`` is a sound answer.
    """

    wrong = False

    def check(self, ok, message):
        if not ok:
            self.append(message)
            self.wrong = True

    def undecided(self, ok, message):
        if not ok:
            self.append(f"undecided: {message}")

    def residual(self, label, value, tol):
        value = float(value)
        if not math.isfinite(value):
            self.check(False, f"{label}: residual is not finite ({value})")
        else:
            self.check(value <= tol, f"{label}: residual {value:.3g} exceeds {tol:.3g}")

    def report(self, label, report, tol):
        # every residual on its own: max() over a NaN hides it
        for key, value in report.identities.items():
            self.residual(f"{label} {key}", value, tol)
        self.residual(f"{label} max_residual", report.max_residual, tol)
        self.check(not report.violations, f"{label}: violations {report.violations}")
        self.check(report.passed is True, f"{label}: report did not pass")


def catalog_expectation(name, key):
    entry = catalog.get(name)
    return next((exp.value for exp in entry.expected if exp.key == key), None)


def base_system(name) -> gen.System:
    if name.startswith("dft_haar"):
        return gen.dft_haar(int(name[len("dft_haar"):]))
    return gen.from_catalog(catalog.get(name))


def base_purity(name) -> str:
    # DFT-Haar: |h|^2 is a Fejer kernel, away from 1 on positive measure
    return equivalence.PURE if name.startswith("dft_haar") else catalog_expectation(name, "purity")


def dumps(system) -> str:
    return json.dumps(system.to_problem())


# ---- pools -----------------------------------------------------------------------


def identities_pool(rng: random.Random, smoke: bool) -> tuple[list[Task], dict]:
    tasks = []
    for name in IDENTITY_BASES:
        base = base_system(name)
        base_text = dumps(base)
        for count in IDENTITY_PIECES[base.N][:1 if smoke else None]:
            a = gen.random_multiplier(rng, count, IDENTITY_MAX_FREQ)
            system = gen.conjugate_system(base, a, f"{name}~P{count}")
            tasks.append(Task(
                system.name, f"N={system.N},P={count}", (base_text, dumps(system)),
                # the probe's section degree cycles through 1..6; its coefficients are seeded
                {"purity": base_purity(name), "seed": rng.randrange(2**31), "degree": 1 + len(tasks) % 6},
            ))
    mix = {
        "bases": list(IDENTITY_BASES),
        "pieces_by_N": {f"N={n}": list(p) for n, p in IDENTITY_PIECES.items()},
        "max_freq": IDENTITY_MAX_FREQ, "breakpoint_denominator": gen.BREAK_DENOMINATOR,
        "probe_degree_range": [1, 6],
    }
    return tasks, mix


def ledger_bases() -> list[str]:
    return [
        name for name in catalog.names()
        if catalog.get(name).G is not None
        and catalog_expectation(name, "purity") == equivalence.PURE
    ]


def ledger_pool(rng: random.Random, smoke: bool) -> tuple[list[Task], dict]:
    tasks = []
    for index, name in enumerate(ledger_bases()):
        base = base_system(name)
        count = LEDGER_PIECES[index % len(LEDGER_PIECES)]
        a = gen.random_multiplier(rng, count, LEDGER_MAX_FREQ)
        for k, system in enumerate((base, gen.conjugate_system(base, a, f"{name}~P{count}"))):
            depths = LEDGER_DEPTHS[system.N][k::2] if system.N == 2 else LEDGER_DEPTHS[system.N]
            for depth in depths[:1 if smoke else None]:
                tasks.append(Task(
                    f"{system.name}@{depth}", f"N={system.N},depth={depth}", (dumps(system),),
                    {"base": name, "depth": depth, "seed": rng.randrange(2**31)},
                ))
    mix = {
        "depths": {f"N={n}": list(d) for n, d in LEDGER_DEPTHS.items()},
        "vector_degree": LEDGER_VECTOR_DEGREE, "conjugation_pieces": list(LEDGER_PIECES),
        "bases": ledger_bases(),
    }
    return tasks, mix


def pair_task(kind: str, rng: random.Random):
    """A block-diagonal pair: swapped, sign-swapped (h, -h) or exponentially twisted.

    The twist is e(freq w) alone, with no constant phase: a(w) = e(freq w)
    gives a(2w) h(w) conj(a(w)) = e(freq w) h(w), so the twisted pair is
    equivalent through diag(a, 1).
    """
    first, second = rng.sample(GRID_PAIR_FILTERS, 2)
    h = base_system(first).H[0][0]
    if kind == "sign_swapped":
        second, s = f"-{first}", gen.exponential_twist(h, 0, -1.0)
    else:
        s = base_system(second).H[0][0]
    H = gen.diagonal_system(f"diag({first},{second})", 2, h, s)
    if kind == "twisted":
        freq = rng.choice((-2, -1, 1, 2))
        twisted = gen.exponential_twist(h, freq, 1.0)
        Hp = gen.diagonal_system(f"diag(e{freq}*{first},{second})", 2, twisted, s)
    else:
        Hp = gen.diagonal_system(f"diag({second},{first})", 2, s, h)
    return f"{kind}:{H.name}", (dumps(H), dumps(Hp))


def grid_pool(rng: random.Random, smoke: bool) -> tuple[list[Task], dict]:
    scalar = [(name, (dumps(base_system(name)),)) for name in GRID_SCALAR]
    for name, count in GRID_CONJUGATES:
        a = gen.random_multiplier(rng, count, 2)
        system = gen.conjugate_system(base_system(name), a, f"{name}~P{count}")
        scalar.append((system.name, (dumps(system),)))
    wide = [(name, (dumps(base_system(name)),), "system") for name in GRID_WIDE]
    pairs = [pair_task(kind, rng) + (kind,) for kind in GRID_PAIRS]
    small = GRID_SMALL[:1] if smoke else GRID_SMALL
    entries = [(label, texts, "system", size) for label, texts in scalar for size in small]
    entries += [entry + (GRID_SMALL[0],) for entry in wide + pairs]
    if not smoke:
        large = rng.sample(scalar, len(GRID_LARGE))
        entries += [(label, texts, "system", size) for (label, texts), size in zip(large, GRID_LARGE)]
    tasks = []
    for label, texts, kind, size in entries:
        size = 16 if smoke else size
        params = {"kind": kind, "grid": size, "seed": rng.randrange(2**31), "degree": 2 + len(tasks) % 5}
        if kind == "system" and label in catalog.names():
            params["cascade"] = catalog_expectation(label, "cascade")
            params["cascade_not"] = catalog_expectation(label, "cascade_not")
        tasks.append(Task(label, f"grid={size}", texts, params))
    mix = {
        "N2_systems": list(GRID_SCALAR), "conjugated": [f"{n}~P{c}" for n, c in GRID_CONJUGATES],
        "wide": list(GRID_WIDE), "pairs": list(GRID_PAIRS), "pair_filters": list(GRID_PAIR_FILTERS),
        "small_grids": list(GRID_SMALL), "large_grids_one_N2_system_each": list(GRID_LARGE),
    }
    return tasks, mix


POOLS = {"identities": identities_pool, "ledger": ledger_pool, "grid": grid_pool}


def sign_swap_probe(seed: int) -> dict:
    """decide on one seeded sign-swapped pair diag(h, -h) vs diag(-h, h), outside the pool.

    The swap permutation conjugates one into the other, so the right verdict
    is ``equivalent``; the seed code leaves every such pair at ``unknown``
    (sound, but incomplete; see README).  In the timed pool the pair would
    fail one task of every pass, so it runs once per run instead and its
    verdict goes into the run's record.  ``wrong`` is set for ``inequivalent``.
    """
    label, texts = pair_task("sign_swapped", random.Random(f"sign_swap:{seed}"))
    p, q = (jsonio.parse_problem(json.loads(text)) for text in texts)
    verdict = equivalence.decide(p.H, q.H, tol=p.options["tolerance"])
    return {
        "pair": label, "expected": equivalence.EQUIVALENT, "verdict": verdict.kind,
        "wrong": verdict.kind == equivalence.INEQUIVALENT,
    }


# ---- pipelines ------------------------------------------------------------------


def ledger_distance(a, b) -> float:
    comps_a = list(a.v0) + [c for level in a.w for c in level]
    comps_b = list(b.v0) + [c for level in b.w for c in level]
    return math.sqrt(sum(trigpoly.norm(x - y) ** 2 for x, y in zip(comps_a, comps_b)))


def grid_norm(section, grid: int) -> float:
    """Root of the grid mean of |f|^2: the quadrature S_G preserves exactly."""
    xs = np.arange(grid) / grid
    return math.sqrt(sum(float(np.mean(np.abs(c.sample(xs)) ** 2)) for c in section.components))


class Workload:
    """A generated task pool plus what its checks need."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        self.name = name
        self.bytes_parsed = 0
        self.tasks, self.mix = POOLS[name](random.Random(f"{name}:{seed}"), smoke)
        for text in {text for task in self.tasks for text in task.texts}:
            self.load(text)
        self.references = {}
        if name == "ledger":
            for base in ledger_bases():
                p = self.load(dumps(base_system(base)))
                g = builder.build(p.m, p.H, p.G, p.e, depth=0, tol=p.options["tolerance"])
                self.references[base] = builder.negative_supports(g, LEDGER_NEGATIVE_LEVELS)

    def load(self, text: str):
        self.bytes_parsed += len(text)
        return jsonio.parse_problem(json.loads(text))

    def run(self, task: Task) -> Failures:
        failures = Failures()
        try:
            getattr(self, f"_run_{self.name}")(task, failures)
        except Exception as exc:  # any error fails the task, with its reason
            failures.check(False, f"{type(exc).__name__}: {exc}")
        return failures

    def _run_identities(self, task: Task, f: Failures):
        base = self.load(task.texts[0])
        p = self.load(task.texts[1])
        tol = p.options["tolerance"]
        f.check(multiplicity.check_consistency(p.m, p.e).holds, "consistency fails")
        f.report("verify_filter", filters.verify_filter(p.H, tol), tol)
        f.report("verify_complementary", filters.verify_complementary(p.G, p.H, tol), tol)
        report = ruelle.cuntz_check(p.H, p.G, trials=0, seed=task.params["seed"], tol=tol)
        f.report("cuntz_check", report, tol)
        # cuntz_check fixes its section degree; this seeded section varies it
        rng = random.Random(task.params["seed"])
        section = ruelle.random_section(tuple(p.H.row_sets), rng, task.params["degree"])
        back = ruelle.apply_S_adjoint(p.H, ruelle.apply_S(p.H, section))
        f.residual("S_H* S_H f = f", (back - section).norm(), tol * max(1.0, section.norm()))
        verdict = equivalence.purity_test(p.H, tol=tol)
        f.check(
            verdict.kind == task.params["purity"],
            f"purity {verdict.kind}, base system is {task.params['purity']}",
        )
        decided = equivalence.decide(base.H, p.H, tol=tol)
        f.check(decided.kind != equivalence.INEQUIVALENT, "conjugate declared inequivalent")

    def _run_ledger(self, task: Task, f: Failures):
        p = self.load(task.texts[0])
        tol = p.options["tolerance"]
        g = builder.build(p.m, p.H, p.G, p.e, depth=task.params["depth"], tol=tol)
        # each dilation step keeps sum(measure / weight) of the detail slots
        w0 = sum((s.base.measure() for s in g.w_levels[0]), Fraction(0))
        for n, level in enumerate(g.w_levels):
            total = sum((s.base.measure() / s.weight for s in level), Fraction(0))
            f.check(total == w0, f"level {n} carries measure {total}, W0 carries {w0}")
        rng = random.Random(task.params["seed"])
        v = builder.random_ledger_vector(g, rng, degree=LEDGER_VECTOR_DEGREE)
        before = builder.ledger_norm(g, v)
        shifted = builder.apply_T(g, v)
        after = builder.ledger_norm(g, shifted)
        back = builder.apply_T_inverse(g, shifted)
        scale = tol * max(1.0, before)
        f.residual("norm drift under T", abs(after - before), scale)
        f.residual("T^-1 T v = v", ledger_distance(back, v), scale)
        lhs = builder.apply_T(g, builder.apply_translation(g, 1, builder.apply_T_inverse(g, v)))
        rhs = builder.apply_translation(g, g.e.N, v)
        f.residual("T tau_1 T^-1 = tau_N", ledger_distance(lhs, rhs), scale)
        levels = builder.negative_supports(g, LEDGER_NEGATIVE_LEVELS)
        outer = [s.base for s in g.v0_slots]
        for level in levels:
            for inner, out in zip(level.v_supports, outer):
                f.check(inner.is_subset(out), f"V_-{level.j} is not nested in V_-{level.j - 1}")
            outer = list(level.v_supports)
        # a unimodular conjugation leaves every entry support, so every level, alone
        reference = self.references[task.params["base"]]
        f.check(
            [(lv.v_supports, lv.w_supports) for lv in levels]
            == [(lv.v_supports, lv.w_supports) for lv in reference],
            "negative supports differ from the base system's",
        )

    def _run_grid(self, task: Task, f: Failures):
        p = self.load(task.texts[0])
        tol = p.options["tolerance"]
        grid = task.params["grid"]
        f.report("verify_filter", filters.verify_filter(p.H, tol), tol)
        G, report = filters.complement_numeric(p.H, grid=grid, tol=tol)
        f.report("complement_numeric", report, tol)
        f.report("verify_complementary_grid", filters.verify_complementary_grid(G, p.H, tol), tol)
        sets = tuple(multiplicity.sigma_tilde_sets(p.m, p.e))
        rng = random.Random(task.params["seed"])
        section = ruelle.random_section(sets, rng, task.params["degree"])
        image = ruelle.apply_S_grid(G, section)
        f.check(bool(np.isfinite(image.samples).all()), "apply_S_grid: non-finite samples")
        want = grid_norm(section, grid)
        f.residual("apply_S_grid isometry", abs(image.norm_estimate() - want), tol * max(1.0, want))
        kind = task.params["kind"]
        if p.H.is_scalar():
            diagonal = [p.H.entry(0, 0)]
        elif kind != "system":
            diagonal = [p.H.entry(0, 0), p.H.entry(1, 1)]
        else:
            diagonal = []
        for h in diagonal:
            cascade = builder.cascade_diagnostic(h, p.e, iters=CASCADE_ITERS, samples=CASCADE_SAMPLES)
            f.check(bool(np.isfinite(cascade.values).all()), "cascade: non-finite values")
            want_verdict = task.params.get("cascade")
            f.check(
                want_verdict is None or cascade.verdict == want_verdict,
                f"cascade {cascade.verdict}, expected {want_verdict}",
            )
            f.check(
                cascade.verdict != task.params.get("cascade_not"),
                f"cascade {cascade.verdict}, expected anything else",
            )
        if kind == "system":
            return
        q = self.load(task.texts[1])
        f.report("verify_filter partner", filters.verify_filter(q.H, tol), tol)
        verdict = equivalence.decide(p.H, q.H, tol=tol)
        if kind == "twisted":
            f.check(verdict.kind != equivalence.INEQUIVALENT, "twisted pair declared inequivalent")
            return
        f.check(verdict.kind != equivalence.INEQUIVALENT, "swapped pair declared inequivalent")
        f.undecided(verdict.kind == equivalence.EQUIVALENT, f"swapped pair came out {verdict.kind}")
        if verdict.witness is None:
            return
        lifted = filters.conjugate_filter(p.H, verdict.witness, tol)
        for i in range(q.H.rows):
            for j in range(q.H.cols):
                dev = lifted.entry(i, j).deviation_from(q.H.entry(i, j))
                f.residual(f"witness entry ({i + 1},{j + 1})", dev, WITNESS_TOL)
