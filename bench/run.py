"""Benchmark for gmra: three closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload identities --seed 1 --seconds 30 --trace 0

One client in one process with one thread runs the workload's seeded task
pool back to back for ``--seconds`` and checks every output.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the metrics are the per-layer
ones plus ``trace.overhead_ratio``.  The line before it is a record of the
run: machine, input-size mix, tail percentile, lines of code in ``src/``.
Timings are scaled to a reference machine speed, measured by a fixed
calibration loop timed after every task (see ``calibration``).
``--smoke`` runs a minimal pool for a second.  Workloads, metrics and the
layer each metric should move are described in ``bench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is imported here or in a child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
MIN_PASSES = 2  # every pool task runs at least this often in a timed loop
# timings are scaled to a machine on which calibration() takes this long
CALIBRATION_REF_S = 1e-3
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
}


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("identities", "ledger", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal pool, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_cpu():
    """Keep this process and its children on one CPU for the whole run.

    On small shared machines the CPUs can differ in speed from minute to
    minute; a run that migrates between them mixes both speeds.  This acts
    on the benchmark's own process only.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def require_source():
    if not (SRC / "gmra" / "__init__.py").is_file():
        fail(f"no gmra sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]


# ---- measurement --------------------------------------------------------------------


class Loop:
    """Latencies and failures of one closed-loop run over the pool."""

    def __init__(self, pool: int):
        self.latencies: list[float] = []
        self.by_task: list[list[float]] = [[] for _ in range(pool)]  # scaled latencies
        self.failed = 0
        self.wrong = 0  # failed tasks with a wrong output, not only an undecided verdict
        self.messages: list[str] = []
        self.sizes: dict[str, int] = {}
        self.probes: list[float] = []  # scaled set-up times
        self.raw_probes: list[float] = []
        self.calibrations: list[float] = []
        self.elapsed = 0.0

    def typical(self) -> list[float]:
        """Each pool task's median scaled latency over its runs."""
        return [median(runs) for runs in self.by_task]


def calibration() -> float:
    """The fastest of three runs of a fixed loop, in seconds: the machine's speed now.

    The loop does the kinds of work gmra does (Fraction arithmetic, an
    interpreted integer loop, small numpy operations) but runs none of its code.
    """
    import numpy as np  # here, so that a set-up probe's time includes numpy's import

    best = math.inf
    for _ in range(3):
        start = perf_counter()
        total = Fraction(0)
        for k in range(1, 120):
            total += Fraction(k, k + 7) * Fraction(3, k + 1)
        x = 0
        for k in range(6000):
            x += k * k % 7
        a = np.arange(64.0)
        for _ in range(40):
            a = np.sqrt(a * a + 1.0)
        best = min(best, perf_counter() - start)
    return best


def closed_loop(workload, seconds: float, passes: int = MIN_PASSES, tracer=None, probe=None) -> Loop:
    """Run tasks back to back until the time is up and the pool was run `passes` times.

    After each task the calibration loop runs, and the task's latency is
    scaled by CALIBRATION_REF_S over the mean of the calibrations on either
    side of it.  `probe`, if given, measures set-up time SETUP_PROBES times,
    spread evenly over the loop and scaled the same way.  The loop's time
    leaves calibrations and probes out.
    """
    tasks = workload.tasks
    loop = Loop(len(tasks))
    speed = calibration()
    paused = 0.0

    def scaled(seconds_taken: float) -> float:
        nonlocal speed
        after = calibration()
        loop.calibrations.append(after)
        factor = 2 * CALIBRATION_REF_S / (speed + after)
        speed = after
        return seconds_taken * factor

    def run_probe():
        nonlocal paused
        t0 = perf_counter()
        loop.raw_probes.append(probe())
        loop.probes.append(scaled(loop.raw_probes[-1]))
        paused += perf_counter() - t0

    start = perf_counter()
    i = 0
    while i < passes * len(tasks) or perf_counter() - paused < start + seconds:
        if probe and len(loop.probes) < SETUP_PROBES and (
            perf_counter() - paused - start >= len(loop.probes) * seconds / SETUP_PROBES
        ):
            run_probe()
        task = tasks[i % len(tasks)]
        if tracer is not None:
            tracer.task = i
        t0 = perf_counter()
        failures = workload.run(task)
        t1 = perf_counter()
        loop.latencies.append(t1 - t0)
        loop.by_task[i % len(tasks)].append(scaled(t1 - t0))
        paused += perf_counter() - t1
        loop.sizes[task.size] = loop.sizes.get(task.size, 0) + 1
        if failures:
            loop.failed += 1
            loop.wrong += failures.wrong
            if len(loop.messages) < 20:
                loop.messages.append(f"{task.label}: {'; '.join(failures[:3])}")
        i += 1
    loop.elapsed = perf_counter() - paused - start
    while probe and len(loop.probes) < SETUP_PROBES:
        run_probe()
    return loop


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values) -> dict:
    """The highest sample with at least TAIL_BEYOND samples above it, and its percentile.

    With too few samples for that, the median.
    """
    n = len(values)
    rank = max(n - 1 - TAIL_BEYOND, n // 2)
    return {
        "percentile": 100 * rank / (n - 1) if n > 1 else 50.0, "samples": n,
        "beyond": n - 1 - rank, "value_s": sorted(values)[rank],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_probe(args) -> float:
    """Set-up time in a fresh process: import, catalog, generate and parse inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("set-up probe timed out", 3)
    if done.returncode != 0:
        fail(f"set-up probe failed: {done.stderr.strip()[-500:]}", 3)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---- the run record --------------------------------------------------------------------


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_lines() -> dict:
    """Lines per module of src/gmra, and their total."""
    counts = {
        path.stem: len(path.read_text().splitlines())
        for path in sorted((SRC / "gmra").glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def emit(record: dict, correct: bool, attempted: int, failed: int, metrics: dict, units: dict):
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


# ---- modes ----------------------------------------------------------------------------


def run_probe(args):
    start = perf_counter()
    import workloads  # imports gmra and builds its catalog

    workloads.Workload(args.workload, args.seed, args.smoke)
    print(json.dumps({"setup_s": perf_counter() - start}))


def run_end_to_end(args):
    import workloads

    workload = workloads.Workload(args.workload, args.seed, args.smoke)
    loop = closed_loop(workload, args.seconds, probe=lambda: setup_probe(args))
    n = len(loop.latencies)
    typical = loop.typical()
    unscaled = [[] for _ in typical]
    for i, latency in enumerate(loop.latencies):
        unscaled[i % len(typical)].append(latency)
    unscaled = [median(runs) for runs in unscaled]
    tail_info = tail(typical)
    metrics = {
        "tasks_per_s": len(typical) / sum(typical),
        "task_p50_ms": percentile(typical, 50) * 1e3,
        "task_tail_ms": tail_info["value_s"] * 1e3,
        "setup_s": median(loop.probes),
        "peak_rss_mb": peak_rss_mb(),
        "passed_frac": (n - loop.failed) / n,
    }
    record = base_record(args, workload)
    record.update({
        "end_to_end": {
            **{name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()},
            "failed_frac": {"value": loop.failed / n, "unit": "fraction"},
        },
        "tail": tail_info,
        "setup_probes_s": loop.probes,
        "tasks_done_by_size": loop.sizes,
        "elapsed_s": loop.elapsed,
        "closed_loop_tasks_per_s": n / loop.elapsed,
        "calibration_ms": [1e3 * min(loop.calibrations), 1e3 * median(loop.calibrations),
                           1e3 * max(loop.calibrations)],
        "unscaled": {
            "tasks_per_s": len(unscaled) / sum(unscaled),
            "task_p50_ms": percentile(unscaled, 50) * 1e3,
            "setup_s": median(loop.raw_probes),
        },
        "runs_per_task": [min(map(len, loop.by_task)), max(map(len, loop.by_task))],
        "wrong_tasks": loop.wrong,
        "failures": loop.messages,
    })
    gaps = record["known_gaps"] = known_gaps(args)
    correct = loop.wrong == 0 and not any(gap["wrong"] for gap in gaps.values())
    emit(record, correct, n, loop.failed, metrics, END_TO_END_UNITS)


def run_traced(args):
    import tracer as tracing
    import workloads

    workload = workloads.Workload(args.workload, args.seed, args.smoke)
    plain = closed_loop(workload, args.seconds / 2, passes=1)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    before = tracer.snapshot()
    traced_setup = workloads.Workload(args.workload, args.seed, args.smoke)
    setup_json_s = tracer.totals["jsonio.self_s"] - before.get("jsonio.self_s", 0.0)
    before = tracer.snapshot()
    traced = closed_loop(workload, args.seconds / 2, passes=1, tracer=tracer)
    tracer.enabled = False
    metrics, calls = tracer.metrics(before, len(traced.latencies))
    metrics["jsonio.self_s"] = setup_json_s
    metrics["jsonio.bytes"] = traced_setup.bytes_parsed
    # each pool task at its median run, traced against untraced
    metrics["trace.overhead_ratio"] = sum(traced.typical()) / sum(plain.typical())
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.npz"
    tracer.write(spans_path)
    record = base_record(args, workload)
    record.update({
        "traced_tasks": len(traced.latencies),
        "untraced_tasks": len(plain.latencies),
        "spans_recorded": tracer.recorded,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "calls": calls,
        "wrong_tasks": plain.wrong + traced.wrong,
        "failures": plain.messages + traced.messages,
    })
    gaps = record["known_gaps"] = known_gaps(args)
    correct = plain.wrong + traced.wrong == 0 and not any(gap["wrong"] for gap in gaps.values())
    failed = plain.failed + traced.failed
    emit(record, correct, len(plain.latencies) + len(traced.latencies), failed, metrics, tracing.PER_LAYER)


def known_gaps(args) -> dict:
    """Verdicts on inputs the seed code is known to leave undecided, run once, untimed.

    They stay out of the timed pool, where they would fail a task on every
    pass, and are recorded here instead; an inequivalent verdict on them
    still makes the run incorrect.
    """
    import workloads

    return {"sign_swapped_pair": workloads.sign_swap_probe(args.seed)} if args.workload == "grid" else {}


def base_record(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "clients": 1,
        "loop": "closed",
        "pool_tasks": len(workload.tasks),
        "mix": workload.mix,
        "machine": machine(),
        "src_lines": source_lines(),
    }


def main(argv=None):
    args = parse_args(argv)
    require_source()
    pin_cpu()
    if args.setup_probe:
        run_probe(args)
    elif args.trace:
        run_traced(args)
    else:
        run_end_to_end(args)


if __name__ == "__main__":
    main()
