"""Parent/change benchmark pairs: writes BENCH_<pr>.json.

Run from the repository root, before the change is committed:

    python3 tools/bench_pairs.py --pr <n> --pairs 10

The parent side is HEAD, exported with ``git archive`` into a temporary
directory; the change side is the working tree.  For each workload of
``BENCHMARK.json`` and each pair i, both sides run
``bench/run.py --seed <seed0 + i>`` for the file's ``run_seconds``, one
after the other, the first side alternating from pair to pair.  The file records
each side's runs, medians and quartiles per end-to-end metric, the number
of pairs the change won on each metric (ties count for neither side), a
verdict per workload and metric (see ``verdict``), the failed task counts,
and the lines of ``src/gmra`` on both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def src_lines(tree: Path) -> int:
    modules = sorted((tree / "src" / "gmra").glob("*.py"))
    return sum(len(p.read_text().splitlines()) for p in modules)


def export(into: Path) -> str:
    """Write the tree of HEAD into ``into``; return its full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} in {tree}: exit {proc.returncode}\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


# the share of pairs a change must win to read as better
WIN_SHARE = 0.9


def verdict(parent: dict, change: dict, wins: int, pairs: int, direction: str, bound: float) -> str:
    """One word for a metric on one workload, from each side's median and quartiles.

    ``better``: the change won at least WIN_SHARE of the pairs and its median
    is better than the parent's by more than the parent's interquartile
    range.  ``worse``: its median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median.  ``unresolved``: the
    parent's interquartile range is wider than ``bound`` times its median,
    so a shift within the bound cannot be told apart.  ``same`` otherwise.
    """
    sign = 1 if direction == "higher" else -1
    gap = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    base = abs(parent["median"])
    if wins >= WIN_SHARE * pairs and gap > spread:
        return "better"
    if -gap > bound * base:
        return "worse"
    if spread > bound * base:
        return "unresolved"
    return "same"


def summarize(parent_runs: list[dict], change_runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (BENCHMARK.json's entries): both sides, wins and verdict."""
    out = {}
    for metric in end_to_end:
        name, direction = metric["name"], metric["better"]
        sides = {}
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = quantiles(values, n=4, method="inclusive")
            sides[side] = {"median": median(values), "q1": q1, "q3": q3, "runs": values}
        sign = 1 if direction == "higher" else -1
        wins = sum(
            1 for p, c in zip(parent_runs, change_runs)
            if sign * (c["metrics"][name] - p["metrics"][name]) > 0
        )
        out[name] = {
            "better": direction,
            "bound": metric["bound"],
            **sides,
            "change_wins": wins,
            "verdict": verdict(
                sides["parent"], sides["change"], wins, len(parent_runs), direction, metric["bound"]
            ),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    report = {
        "pr": args.pr,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "seconds": seconds,
        "pairs": args.pairs,
        "order": "pair i runs the parent first for even i, the change first for odd i",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        report["parent"] = export(parent)
        report["src_gmra_lines"] = {"parent": src_lines(parent), "change": src_lines(ROOT)}
        report["src_gmra_lines"]["net"] = (
            report["src_gmra_lines"]["change"] - report["src_gmra_lines"]["parent"]
        )
        for name in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = [("parent", parent), ("change", ROOT)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run_once(tree, name, seed, seconds))
                print(f"{name} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            report["workloads"][name] = {
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
                "metrics": summarize(runs["parent"], runs["change"], spec["end_to_end"]),
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
