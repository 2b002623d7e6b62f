"""Per-layer times of the L2 inner products and of the fold sweep, parent against change:
prints one JSON document.

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
  drawn section f (``identities_adjoint``).

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


def measure(tree: str) -> dict:
    """The layer times of the gmra in ``tree``, in this process: one per degree, and
    one per call of each pool row."""
    os.sched_setaffinity(0, {CPU})
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "bench")]
    import gen
    import workloads
    from gmra import builder, catalog, ruelle, trigpoly
    from gmra.torus import TorusSet

    sets = (TorusSet.from_spans(*SECTION_SPANS),)
    degrees = {}
    for degree in DEGREES:
        f = ruelle.random_section(sets, random.Random(SEED), degree).components[0]
        degrees[str(degree)] = best_ms(lambda: trigpoly.inner(f, f))

    pool = workloads.Workload("ledger", SEED)
    ledger = []
    for task in pool.tasks:
        p = pool.load(task.texts[0])
        g = builder.build(p.m, p.H, p.G, p.e, depth=task.params["depth"],
                          tol=p.options["tolerance"])
        v = builder.random_ledger_vector(g, random.Random(task.params["seed"]),
                                         degree=workloads.LEDGER_VECTOR_DEGREE)
        ledger.append(best_ms(lambda: builder.ledger_norm(g, v)))

    pool = workloads.Workload("identities", SEED)
    sections, tables, adjoints = [], [], []
    for task in pool.tasks:
        text = task.texts[1]
        H = pool.load(text).H
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
    return {"inner_ms_by_degree": degrees, "fold_tables": folds, "ledger_norm": ledger,
            "section_norm": sections, "identities_tables": tables,
            "identities_adjoint": adjoints}


def summary(turns: list[dict]) -> dict:
    """The best of the turns per degree, per table and per call; the pool rows as median
    and sum."""
    out = {key: {d: round(min(t[key][d] for t in turns), 4) for d in turns[0][key]}
           for key in ("inner_ms_by_degree", "fold_tables")}
    for key in POOL_ROWS:
        times = [min(call) for call in zip(*(t[key] for t in turns))]
        out[key] = {"calls": len(times), "median_ms": round(median(times), 4),
                    "total_ms": round(sum(times), 3)}
    return out


def speedups(parent: dict, change: dict) -> dict:
    ratio = lambda a, b: round(a / b, 3) if b else None  # noqa: E731
    out = {key: {d: ratio(parent[key][d], t) for d, t in change[key].items()}
           for key in ("inner_ms_by_degree", "fold_tables")}
    for key in POOL_ROWS:
        out[key] = {stat: ratio(parent[key][stat], change[key][stat])
                    for stat in ("median_ms", "total_ms")}
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
