"""Per-layer times of the L2 inner products, the fold sweep, the interval walks and the
grid layer, parent against change: prints one JSON document.

Run from the repository root, before the change is committed:

    python3 tools/inner_layers.py > layers.json

The parent is HEAD, exported with ``git archive`` into a temporary directory;
the change is the working tree.  The sides take ``ROUNDS`` turns, the first side
alternating, each turn in a fresh process pinned to CPU ``CPU``.  Each time is
the best of ``REPEATS`` calls in a turn and of all turns, in milliseconds:

- ``inner(f, f)`` on a seeded random section over a 2-piece set, at each
  degree of ``DEGREES`` (2 * degree + 1 terms per piece);
- ``ledger_norm`` on the vector each task of the seed-``SEED`` ``ledger``
  pool draws (``bench/workloads.py``), before the shift T;
- ``SectionVector.norm`` on the two sections each task of the seed-``SEED``
  ``identities`` pool measures: the drawn section f and S_H* S_H f - f;
- the fold tables (``fold_tables``), on filters parsed anew before each call
  so that none is cached: ``H`` is ``H.fold_defects`` and ``G`` is
  ``G.fold_defects`` with ``G.cross_defects(H)``, for ``dft_haar(N)`` and its
  conjugate by a seeded ``FOLD_ARCS``-arc multiplier at each N of
  ``FOLD_NS``, and for the catalog systems of ``FOLD_CATALOG``;
- all three tables of each task of the seed-``SEED`` ``identities`` pool
  (``identities_tables``), and its ``apply_S_adjoint(H, S_H f)`` on the
  drawn section f (``identities_adjoint``);
- the interval walks (``sweep_layers``), per task of the seed-``SEED`` pools:
  ``*``, ``-`` and ``inner`` over the distinct entry pairs (f, g), f not g, of
  the three fold tables of each ``identities`` task, ``restrict`` of each entry
  of its H to each row set, and its ``random_section``; and, per ``ledger``
  task, ``pull_back_level`` of a seeded section of every level of the ledger;
- the grid layer (``grid_layers``), for the systems of ``GRID_SYSTEMS`` at each
  grid of ``GRIDS`` and for each task of the seed-``SEED`` ``grid`` pool at its
  own grid: ``complement_numeric`` on H parsed anew before each call,
  ``verify_complementary_grid`` of the completion against that H (as a pool task
  runs it, after the completion), ``apply_S_grid`` on a seeded section of degree
  ``GRID_DEGREE`` (the pool task's own section in the pool rows), and the exact
  ``TrigPoly.sample`` of every entry of H at the N * grid points of the fine grid;
  and, per ``grid`` pool task that runs a cascade, ``cascade_diagnostic`` of each
  diagonal entry the task cascades, on H parsed anew before each call, at the pool's
  ``CASCADE_ITERS`` levels of ``CASCADE_SAMPLES`` points, and ``float_sample``, the
  float ``TrigPoly.sample`` of the same entries at all those levels' points at once.

The pool rows give the median and the sum over their calls; ``speedup`` is the
parent's time over the change's.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
CPU = 0
REPEATS = 5
ROUNDS = 3
SEED = 1
DEGREES = (2, 8, 32, 128)
SECTION_SPANS = (6, ((0, 2), (3, 6)))  # [0, 1/3) and [1/2, 1)
FOLD_NS = (2, 4, 5, 8, 16)
FOLD_ARCS = 4
FOLD_CATALOG = ("haar", "cohen", "shannon")
POOL_ROWS = ("ledger_norm", "section_norm", "identities_tables", "identities_adjoint")
SWEEP_ROWS = ("mul", "sub", "inner", "restrict", "random_section", "pull_back_level")
GRID_SYSTEMS = ("haar", "journe", "cantor3", "dft_haar5")
GRIDS = (256, 1024, 4096, 16384)
GRID_DEGREE = 4
GRID_LAYERS = ("complement_numeric", "verify_complementary_grid", "apply_S_grid", "sample",
               "cascade_diagnostic", "float_sample")


def best_ms(fn, fresh=None) -> float:
    """The best time of ``REPEATS`` calls of fn(), or of fn(fresh()) with fresh() untimed."""
    times = []
    for _ in range(REPEATS):
        args = () if fresh is None else (fresh(),)
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def h_tables(p) -> None:
    p.H.fold_defects


def g_tables(p) -> None:
    p.G.fold_defects
    p.G.cross_defects(p.H)


def all_tables(p) -> None:
    h_tables(p)
    if p.G is not None:
        g_tables(p)


def entry_pairs(p) -> list:
    """The distinct (f, g) entry pairs, f not g, that the three fold tables of p fold."""
    pairs = []
    for F, K in ((p.H, p.H), (p.G, p.G), (p.G, p.H)) if p.G is not None else ((p.H, p.H),):
        cols = range(min(F.cols, K.cols))
        pairs += [(F.entry(i, j), K.entry(k, j))
                  for i in range(F.rows) for k in range(K.rows) for j in cols]
    return [(f, g) for f, g in pairs if f is not g]


def sweep_times(p, task, ruelle, trigpoly) -> dict:
    """The best time of each walk row but ``pull_back_level`` on the identities problem p."""
    pairs, H = entry_pairs(p), p.H
    sets, seed, degree = tuple(H.row_sets), task.params["seed"], task.params["degree"]
    entries = [h for row in H.entries for h in row]
    return {
        "mul": best_ms(lambda: [f * g for f, g in pairs]),
        "sub": best_ms(lambda: [f - g for f, g in pairs]),
        "inner": best_ms(lambda: [trigpoly.inner(f, g) for f, g in pairs]),
        "restrict": best_ms(lambda: [h.restrict(s) for h in entries for s in sets]),
        "random_section": best_ms(
            lambda: ruelle.random_section(sets, random.Random(seed), degree)),
    }


def grid_times(load, text: str, grid: int, section=None, seed: int = SEED) -> dict:
    """The best time of each of ``GRID_LAYERS`` on the problem ``text`` at ``grid``."""
    import numpy as np
    from gmra import filters, multiplicity, ruelle

    p = load(text)
    G, _ = filters.complement_numeric(p.H, grid=grid)
    if section is None:
        sets = tuple(multiplicity.sigma_tilde_sets(p.m, p.e))
        section = ruelle.random_section(sets, random.Random(seed), GRID_DEGREE)
    fine = p.e.N * grid
    entries = [h for row in p.H.entries for h in row]
    return {
        "complement_numeric": best_ms(lambda q: filters.complement_numeric(q.H, grid=grid),
                                      lambda: load(text)),
        "verify_complementary_grid": best_ms(lambda: filters.verify_complementary_grid(G, p.H)),
        "apply_S_grid": best_ms(lambda: ruelle.apply_S_grid(G, section)),
        "sample": best_ms(lambda: [h.sample(np.arange(fine), fine) for h in entries]),
    }


def cascade_times(load, text: str, kind: str, builder, workloads) -> dict:
    """The best time of ``cascade_diagnostic`` and ``float_sample`` on the diagonal entries
    that a ``grid`` pool task of ``kind`` cascades (none for a matrix system), H parsed
    anew before each call; the grid rows of the systems do not take them."""
    import numpy as np

    p = load(text)
    if p.H.is_scalar():
        cells = (0,)
    elif kind != "system":
        cells = (0, 1)
    else:
        return {}
    iters, samples = workloads.CASCADE_ITERS, workloads.CASCADE_SAMPLES
    dilations = np.array([float(p.e.N**j) for j in range(1, iters + 1)])
    points = np.linspace(-0.5, 0.5, samples) / dilations[:, None]
    diagonal = lambda q: [q.H.entry(i, i) for i in cells]  # noqa: E731
    return {
        "cascade_diagnostic": best_ms(
            lambda q: [builder.cascade_diagnostic(h, q.e, iters=iters, samples=samples)
                       for h in diagonal(q)], lambda: load(text)),
        "float_sample": best_ms(lambda q: [h.sample(points) for h in diagonal(q)],
                                lambda: load(text)),
    }


def measure(tree: str) -> dict:
    """The layer times of the gmra in ``tree``, in this process: one per degree, and
    one per call of each pool row."""
    os.sched_setaffinity(0, {CPU})
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "bench")]
    import gen
    import workloads
    from gmra import builder, catalog, multiplicity, ruelle, trigpoly
    from gmra.torus import TorusSet

    sets = (TorusSet.from_spans(*SECTION_SPANS),)
    degrees = {}
    for degree in DEGREES:
        f = ruelle.random_section(sets, random.Random(SEED), degree).components[0]
        degrees[str(degree)] = best_ms(lambda: trigpoly.inner(f, f))

    pool = workloads.Workload("ledger", SEED)
    ledger, sweeps = [], {row: [] for row in SWEEP_ROWS}
    for task in pool.tasks:
        p = pool.load(task.texts[0])
        g = builder.build(p.m, p.H, p.G, p.e, depth=task.params["depth"],
                          tol=p.options["tolerance"])
        rng = random.Random(task.params["seed"])
        v = builder.random_ledger_vector(g, rng, degree=workloads.LEDGER_VECTOR_DEGREE)
        ledger.append(best_ms(lambda: builder.ledger_norm(g, v)))
        levels = [ruelle.random_section(tuple(s.base for s in slots), rng,
                                        workloads.LEDGER_VECTOR_DEGREE).components
                  for slots in g.w_levels]
        sweeps["pull_back_level"].append(best_ms(
            lambda: [builder.pull_back_level(g, n, comps) for n, comps in enumerate(levels)]))

    pool = workloads.Workload("identities", SEED)
    sections, tables, adjoints = [], [], []
    for task in pool.tasks:
        text = task.texts[1]
        H = pool.load(text).H
        for row, ms in sweep_times(pool.load(text), task, ruelle, trigpoly).items():
            sweeps[row].append(ms)
        section = ruelle.random_section(tuple(H.row_sets), random.Random(task.params["seed"]),
                                        task.params["degree"])
        lifted = ruelle.apply_S(H, section)
        back = ruelle.apply_S_adjoint(H, lifted)
        for vector in (section, back - section):
            sections.append(best_ms(vector.norm))
        tables.append(best_ms(all_tables, lambda: pool.load(text)))
        adjoints.append(best_ms(lambda: ruelle.apply_S_adjoint(H, lifted)))

    folds = {}
    systems = [gen.from_catalog(catalog.get(name)) for name in FOLD_CATALOG]
    for N in FOLD_NS:
        base = gen.dft_haar(N)
        a = gen.random_multiplier(random.Random(SEED), FOLD_ARCS, workloads.IDENTITY_MAX_FREQ)
        systems += [base, gen.conjugate_system(base, a, f"{base.name}~P{FOLD_ARCS}")]
    for system in systems:
        text = workloads.dumps(system)
        for side, tables_of in (("H", h_tables), ("G", g_tables)):
            folds[f"{system.name} {side}"] = best_ms(tables_of, lambda: pool.load(text))

    grids = {}
    for system in [gen.from_catalog(catalog.get(name)) for name in GRID_SYSTEMS[:-1]] + [
            gen.dft_haar(5)]:
        text = workloads.dumps(system)
        for grid in GRIDS:
            grids[f"{system.name} {grid}"] = grid_times(pool.load, text, grid)
    pool = workloads.Workload("grid", SEED)
    grid_pool = {layer: [] for layer in GRID_LAYERS}
    for task in pool.tasks:
        p = pool.load(task.texts[0])
        sets = tuple(multiplicity.sigma_tilde_sets(p.m, p.e))
        section = ruelle.random_section(sets, random.Random(task.params["seed"]),
                                        task.params["degree"])
        for layer, ms in grid_times(pool.load, task.texts[0], task.params["grid"],
                                    section).items():
            grid_pool[layer].append(ms)
        for layer, ms in cascade_times(pool.load, task.texts[0], task.params["kind"], builder,
                                       workloads).items():
            grid_pool[layer].append(ms)
    return {"inner_ms_by_degree": degrees, "fold_tables": folds, "ledger_norm": ledger,
            "section_norm": sections, "identities_tables": tables,
            "identities_adjoint": adjoints, "grid_systems": grids, "grid_pool": grid_pool,
            "sweeps": sweeps}


def pooled(times: list[float]) -> dict:
    return {"calls": len(times), "median_ms": round(median(times), 4),
            "total_ms": round(sum(times), 3)}


def summary(turns: list[dict]) -> dict:
    """The best of the turns per degree, per table, per grid row and per call; the pool
    rows as median and sum."""
    out = {key: {d: round(min(t[key][d] for t in turns), 4) for d in turns[0][key]}
           for key in ("inner_ms_by_degree", "fold_tables")}
    for key in POOL_ROWS:
        out[key] = pooled([min(call) for call in zip(*(t[key] for t in turns))])
    out["sweep_layers"] = {row: pooled([min(call) for call in zip(*(t["sweeps"][row]
                                                                    for t in turns))])
                           for row in SWEEP_ROWS}
    out["grid_layers"] = {
        "systems": {row: {layer: round(min(t["grid_systems"][row][layer] for t in turns), 4)
                          for layer in turns[0]["grid_systems"][row]}
                    for row in turns[0]["grid_systems"]},
        "pool": {layer: pooled([min(call) for call in zip(*(t["grid_pool"][layer]
                                                             for t in turns))])
                 for layer in GRID_LAYERS},
    }
    return out


def speedups(parent: dict, change: dict) -> dict:
    ratio = lambda a, b: round(a / b, 3) if b else None  # noqa: E731
    out = {key: {d: ratio(parent[key][d], t) for d, t in change[key].items()}
           for key in ("inner_ms_by_degree", "fold_tables")}
    for key in POOL_ROWS:
        out[key] = {stat: ratio(parent[key][stat], change[key][stat])
                    for stat in ("median_ms", "total_ms")}
    out["sweep_layers"] = {row: {stat: ratio(parent["sweep_layers"][row][stat], stats[stat])
                                 for stat in ("median_ms", "total_ms")}
                           for row, stats in change["sweep_layers"].items()}
    grids = parent["grid_layers"], change["grid_layers"]
    out["grid_layers"] = {
        "systems": {row: {layer: ratio(grids[0]["systems"][row][layer], t)
                          for layer, t in times.items()}
                    for row, times in grids[1]["systems"].items()},
        "pool": {layer: {stat: ratio(grids[0]["pool"][layer][stat], stats[stat])
                         for stat in ("median_ms", "total_ms")}
                 for layer, stats in grids[1]["pool"].items()},
    }
    return out


def main() -> None:
    context = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as parent_tree:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True)
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive.stdout, check=True)
        trees = {"parent": parent_tree, "change": str(ROOT)}
        turns = {side: [] for side in trees}
        for turn in range(ROUNDS):
            for side in sorted(trees, reverse=turn % 2 == 1):
                with context.Pool(1) as worker:
                    turns[side].append(worker.apply(measure, (trees[side],)))
    sides = {side: summary(turns[side]) for side in trees}
    json.dump({
        "parent_commit": sha, "cpu": CPU, "repeats": REPEATS, "rounds": ROUNDS, "seed": SEED,
        "python": platform.python_version(), "machine": platform.machine(),
        **sides, "speedup": speedups(sides["parent"], sides["change"]),
    }, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
