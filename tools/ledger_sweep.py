"""Depth sweep of the ledger operations: prints one JSON document.

Run from the repository root:

    python3 tools/ledger_sweep.py > sweep.json

For haar (N = 2) at depths 3..12 and cantor3 (N = 3) at depths 3..7,
the ledger is built and one seeded vector is drawn per slot over the
slot bases, with every level but the top occupied, as
``random_ledger_vector`` draws it.
Each row gives the slot count and the best of ``REPEATS`` wall times, in
milliseconds, of ``build`` (validation and layout), ``draw``:
``random_section`` over the slot bases of V0 and of every detail level,
``apply_T``, ``apply_T_inverse``, ``apply_translation`` by 1,
``ledger_norm``, and ``convert``: ``pull_back_level`` on every occupied
level, the step that takes the drawn slot components to W0 coordinates.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gmra import builder, catalog  # noqa: E402
from gmra.ruelle import random_section  # noqa: E402

DEGREE = 2
REPEATS = 5
SEED = 1
HAAR_DEPTHS = range(3, 13)
CANTOR_DEPTHS = range(3, 8)


def best_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 4)


def row(name: str, depth: int) -> dict:
    entry = catalog.get(name)

    def build():
        return builder.build(entry.m, entry.H, entry.G, entry.e, depth=depth)

    g = build()

    def draw():  # the top level last, so the levels below it draw what the vector holds
        rng = random.Random(SEED)
        return [random_section(tuple(s.base for s in slots), rng, DEGREE).components
                for slots in (g.v0_slots,) + g.w_levels]

    v0, *drawn, _ = draw()

    def convert():
        return [builder.pull_back_level(g, n, comps) for n, comps in enumerate(drawn)]

    v = builder.LedgerVector(
        tuple(v0), tuple(convert()) + (builder.LedgerVector.zero(g).w[-1],)
    )
    return {
        "system": name,
        "N": g.e.N,
        "depth": depth,
        "slots": len(g.slots),
        "build_ms": best_ms(build),
        "draw_ms": best_ms(draw),
        "apply_T_ms": best_ms(lambda: builder.apply_T(g, v)),
        "apply_T_inverse_ms": best_ms(lambda: builder.apply_T_inverse(g, v)),
        "apply_translation_ms": best_ms(lambda: builder.apply_translation(g, 1, v)),
        "ledger_norm_ms": best_ms(lambda: builder.ledger_norm(g, v)),
        "convert_ms": best_ms(convert),
    }


def main() -> int:
    cases = [("haar", d) for d in HAAR_DEPTHS] + [("cantor3", d) for d in CANTOR_DEPTHS]
    report = {
        "machine": {"python": platform.python_version()},
        "repeats": REPEATS,
        "vector_degree": DEGREE,
        "rows": [row(name, depth) for name, depth in cases],
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
