"""Fingerprints of the CLI's ``--json`` output on the catalog, for diffing two trees.

Run from the repository root:

    python3 tools/json_parity.py > tree.txt
    python3 tools/json_parity.py --src /path/to/other/src > other.txt
    diff other.txt tree.txt

Every subcommand runs in process on each catalog problem (written once as
problem JSON), in both interval conventions, and ``cuntz`` once more with
``--trials 3``; ``equiv`` runs on every ordered
pair of problems that share the dilation N, the pair of a problem with itself
included, and ``catalog list`` once.  Each run prints one line: the
convention, the command, its exit code and the SHA-256 of its stdout.
``--names`` restricts the problems (and so the pairs) to the names given.

``--pool WORKLOAD:SEED ...`` adds the benchmark's generated problems, whose
mixed denominators and many-piece conjugates the catalog lacks: ``bench/``
builds the pool of each workload and seed as ``bench/run.py`` would (read
only), and ``check-filter``, ``complement``, ``purity``, ``mtilde``,
``sigma``, ``construct --depth 3 --down 3`` and ``cascade`` run on each
distinct problem text, and ``equiv`` on each task's pair of texts (a base and
its conjugate, or a block-diagonal pair) both ways, the second run labelled
``reversed``, in the unit convention.
``complement`` prints the completed G's grid samples, built from H's exact
grid samples; ``mtilde``, ``sigma`` and ``construct`` print the generated sets
and multiplicities on the pools' mixed denominators, and ``cascade`` the
float sampler's values on N = 2..5 (it exits 4 on matrix filters).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each subcommand that takes one problem file, with its flags, in the order it runs;
# `cuntz --trials 3` keeps a fingerprint of the seeded probe beside the bound-only run
ONE_FILE = ("validate", "mtilde", "sigma", "check-filter", "complement", "purity",
            "construct", "cascade", "cuntz", "cuntz --trials 3")
# each run on a pool problem text, in order: its label and the argv before the file
POOL_RUNS = (("check-filter", ["check-filter"]), ("complement", ["complement"]),
             ("purity", ["purity"]), ("mtilde", ["mtilde"]), ("sigma", ["sigma"]),
             ("construct", ["construct", "--depth", "3", "--down", "3"]), ("cascade", ["cascade"]))


def fingerprint(cli, argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout SHA-256 of ``gmra <argv>``; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def runs(names: list[str], paths: dict[str, str], dilation: dict[str, int]):
    """Yield (label, argv) for every run, in a fixed order."""
    yield "catalog list", ["--json", "catalog", "list"]
    for conv in ("centered", "unit"):
        flags = ["--json", "--convention", conv]
        for name in names:
            yield f"{conv} catalog show {name}", flags + ["catalog", "show", name]
            for command in ONE_FILE:
                yield f"{conv} {command} {name}", flags + [*command.split(), paths[name]]
        for a in names:
            for b in names:
                if dilation[a] == dilation[b]:
                    yield f"{conv} equiv {a} {b}", flags + ["equiv", paths[a], paths[b]]


def pool_runs(specs: list[str], tmp: str, smoke: bool):
    """Yield (label, argv) for the problems of each WORKLOAD:SEED pool, in a fixed order."""
    if not specs:
        return
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for spec in specs:
        workload, seed = spec.split(":")
        files: dict[str, str] = {}
        for task in workloads.Workload(workload, int(seed), smoke).tasks:
            for i, text in enumerate(task.texts):
                if text in files:
                    continue
                path = files[text] = str(Path(tmp) / f"{workload}-{seed}-{len(files)}.json")
                Path(path).write_text(text)
                for label, command in POOL_RUNS:
                    yield f"pool {spec} {label} {task.label}/{i}", ["--json", *command, path]
            if len(task.texts) == 2:
                first, second = (files[text] for text in task.texts)
                yield f"pool {spec} equiv {task.label}", ["--json", "equiv", first, second]
                argv = ["--json", "equiv", second, first]
                yield f"pool {spec} equiv {task.label} reversed", argv


def main(argv=None, smoke: bool = False) -> int:
    """Print the fingerprints; ``smoke`` builds each pool as ``bench/run.py --smoke`` does."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the gmra package to run (default: this tree's)")
    parser.add_argument("--names", nargs="+", help="catalog problems to run (default: all)")
    parser.add_argument("--pool", nargs="+", default=[], metavar="WORKLOAD:SEED",
                        help="also run the benchmark pool of each workload and seed")
    args = parser.parse_args(argv)
    for spec in args.pool:
        workload, _, seed = spec.partition(":")
        if workload not in ("identities", "ledger", "grid") or not seed.isdigit():
            parser.error(f"--pool expects WORKLOAD:SEED, got {spec!r}")
    src = args.src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gmra
    from gmra import catalog, cli
    from gmra.jsonio import dump_json, problem_to_json

    if not Path(gmra.__file__).resolve().is_relative_to(src):
        parser.error(f"gmra is already imported from {gmra.__file__}, not from {src}")
    names = args.names or catalog.names()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in names:
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(dump_json(problem_to_json(catalog.get(name))))
        dilation = {name: catalog.get(name).e.N for name in names}
        all_runs = chain(runs(names, paths, dilation), pool_runs(args.pool, tmp, smoke))
        for label, run_argv in all_runs:
            code, digest = fingerprint(cli, run_argv)
            print(f"{label}\t{code}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
