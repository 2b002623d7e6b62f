"""Command-line front end.

Thin adapters only: every subcommand parses inputs, dispatches to the
library, and prints either a human summary or deterministic JSON.

Exit codes: 0 pass/decided, 2 verification failure or inequivalence,
3 undecided, 4 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import builder, catalog, equivalence
from .errors import ContextMismatch, GmraError, ProblemFileError, UnknownName
from .filters import (
    DEFAULT_TOL, _check_dims, complement_numeric, verify_complementary, verify_filter,
)
from .jsonio import (
    CENTERED,
    UNIT,
    check_setting,
    dump_json,
    filter_to_json,
    grid_filter_to_json,
    multiplicity_to_json,
    parse_problem,
    problem_to_json,
    torus_set_to_json,
)
from .multiplicity import check_consistency, compute_mtilde, sigma_sets, sigma_tilde_sets
from .ruelle import cuntz_check
from .torus import TorusSet

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_UNKNOWN = 3
EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_problem(args, path: str):
    """Parse a problem file; each option flag ``args`` leaves unset takes the file's option.

    A flag (tolerance: --tol, else GMRA_TOL) wins over the file, the file over the default.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(path, f"cannot read: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise ProblemFileError(path, f"invalid JSON: {exc}") from None
    problem = parse_problem(data, path)
    for key in problem.options:
        flag = "tol" if key == "tolerance" else key
        if getattr(args, flag, 0) is None:
            setattr(args, flag, problem.options[key])
    return problem


def _setting(key: str):
    """argparse type: an int (for ``tolerance`` a float) that passes ``check_setting``."""

    def parse(text):
        try:
            return check_setting(key, float(text) if key == "tolerance" else int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(dump_json(payload))
    else:
        print(human)


def _report_json(report) -> dict:
    return {
        "passed": report.passed,
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
        "identities": report.identities,
        "violations": list(report.violations),
    }


def _sets_json(sets, conv) -> list:
    return [torus_set_to_json(s, conv) for s in sets]


def _fmt_set(ts, conv) -> str:
    pairs = torus_set_to_json(ts, conv)
    if not pairs:
        return "{}"
    return " u ".join(f"[{lo},{hi})" for lo, hi in pairs)


def _require_filters(problem, need_g=False):
    """The filters a subcommand needs are present and as large as the multiplicities ask."""
    if problem.H is None:
        raise ProblemFileError("filters.H", "missing filter")
    if need_g and problem.G is None:
        raise ProblemFileError("filters.G", "missing complementary filter")
    for F in (problem.H, problem.G):
        if F is not None:
            _check_dims(F)


def _filter_reports(args, problem, payload: dict) -> bool:
    """Verify H, and G against it when present, into ``payload``; True if all pass."""
    rep = verify_filter(problem.H, args.tol)
    payload["filter"] = _report_json(rep)
    ok = rep.passed
    if problem.G is not None:
        grep = verify_complementary(problem.G, problem.H, args.tol)
        payload["complementary"] = _report_json(grep)
        ok = ok and grep.passed
    return ok


def _cmd_validate(args) -> int:
    problem = _load_problem(args, args.problem)
    conv = args.convention
    consistency = check_consistency(problem.m, problem.e)
    payload = {
        "consistency": {
            "holds": consistency.holds,
            "violation": torus_set_to_json(consistency.violation, conv),
        }
    }
    ok = consistency.holds
    if problem.H is not None:
        ok = _filter_reports(args, problem, payload) and ok
    payload["passed"] = ok
    _emit(args, payload, "valid" if ok else "INVALID: see --json for details")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_mtilde(args) -> int:
    problem = _load_problem(args, args.problem)
    mt = compute_mtilde(problem.m, problem.e)
    payload = {"mtilde": multiplicity_to_json(mt, args.convention)}
    _emit(args, payload, f"mtilde: {mt}")
    return EXIT_OK


def _cmd_sigma(args) -> int:
    problem = _load_problem(args, args.problem)
    conv = args.convention
    sigma, sigma_tilde = sigma_sets(problem.m), sigma_tilde_sets(problem.m, problem.e)
    payload = {"sigma": _sets_json(sigma, conv), "sigma_tilde": _sets_json(sigma_tilde, conv)}
    human = "\n".join(
        [f"sigma_{i + 1} = {_fmt_set(s, conv)}" for i, s in enumerate(sigma)]
        + [f"sigma~_{k + 1} = {_fmt_set(s, conv)}" for k, s in enumerate(sigma_tilde)]
    )
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_check_filter(args) -> int:
    problem = _load_problem(args, args.problem)
    _require_filters(problem)
    payload = {}
    ok = _filter_reports(args, problem, payload)
    worst = payload["filter"]["max_residual"]
    _emit(
        args,
        payload,
        "filter conditions hold" if ok else f"filter conditions FAIL (max residual {worst:.3g})",
    )
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_complement(args) -> int:
    problem = _load_problem(args, args.problem)
    _require_filters(problem)
    rep = verify_filter(problem.H, args.tol)
    if not rep.passed:
        _emit(args, {"filter": _report_json(rep)}, "H fails the filter conditions")
        return EXIT_FAIL
    G, report = complement_numeric(problem.H, grid=args.grid, tol=args.tol)
    payload = {"report": _report_json(report), "G": grid_filter_to_json(G)}
    _emit(
        args,
        payload,
        f"complement on {args.grid} quotient points: max residual {report.max_residual:.3g}",
    )
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_purity(args) -> int:
    problem = _load_problem(args, args.problem)
    _require_filters(problem)
    verdict = equivalence.purity_test(problem.H, tol=args.tol)
    payload = {
        "purity": verdict.kind,
        "certificate": torus_set_to_json(verdict.certificate, args.convention)
        if verdict.certificate
        else None,
        "eigenvalue": verdict.eigenvalue,
        "diagnostics": verdict.diagnostics,
    }
    _emit(args, payload, f"purity: {verdict.kind}")
    if verdict.kind == equivalence.UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK


def _obstruction_json(obs, conv) -> dict | None:
    if obs is None:
        return None
    detail = {
        key: torus_set_to_json(value, conv) if isinstance(value, TorusSet) else value
        for key, value in obs.detail.items()
    }
    return {"kind": obs.kind, "detail": detail}


def _cmd_equiv(args) -> int:
    left = _load_problem(args, args.problem_a)
    right = _load_problem(args, args.problem_b)
    _require_filters(left)
    _require_filters(right)
    verdict = equivalence.decide(
        left.H, right.H, degree=args.degree, tol=args.tol
    )
    payload = {
        "verdict": verdict.kind,
        "obstruction": _obstruction_json(verdict.obstruction, args.convention),
        "searched_degree": verdict.searched_degree,
        "diagnostics": verdict.diagnostics,
    }
    if verdict.witness is not None:
        payload["witness"] = filter_to_json(verdict.witness, args.convention)
    human = f"verdict: {verdict.kind}"
    if verdict.obstruction is not None:
        human += f" ({verdict.obstruction.kind})"
    _emit(args, payload, human)
    if verdict.kind == equivalence.EQUIVALENT:
        return EXIT_OK
    if verdict.kind == equivalence.INEQUIVALENT:
        return EXIT_FAIL
    return EXIT_UNKNOWN


def _cmd_construct(args) -> int:
    problem = _load_problem(args, args.problem)
    _require_filters(problem, need_g=True)
    conv = args.convention
    try:
        g = builder.build(
            problem.m, problem.H, problem.G, problem.e, depth=args.depth, tol=args.tol
        )
    except GmraError as exc:
        _emit(args, {"error": type(exc).__name__, "message": str(exc)}, str(exc))
        return EXIT_FAIL
    payload = {
        "V0": _sets_json([s.base for s in g.v0_slots], conv),
        "W": [
            {
                "n": n,
                "weight": g.e.N**n,
                "components": _sets_json([s.base for s in level], conv),
            }
            for n, level in enumerate(g.w_levels)
        ],
    }
    if args.down:
        payload["negative"] = [
            {
                "j": lvl.j,
                "V": _sets_json(lvl.v_supports, conv),
                "W": _sets_json(lvl.w_supports, conv),
            }
            for lvl in builder.negative_supports(g, args.down)
        ]
    human_lines = [f"V0: {len(g.v0_slots)} component(s)"]
    for n, level in enumerate(g.w_levels):
        human_lines.append(f"W{n}: {len(level)} slot(s), weight {g.e.N ** n}")
    _emit(args, payload, "\n".join(human_lines))
    return EXIT_OK


def _cmd_cascade(args) -> int:
    problem = _load_problem(args, args.problem)
    _require_filters(problem)
    res = builder.cascade_diagnostic(
        problem.H, problem.e, iters=args.iters, samples=args.samples, tol=args.tol
    )
    payload = {
        "verdict": res.verdict,
        "max_modulus": res.diagnostics["max_modulus"],
        "omega": [float(x) for x in res.omegas],
        "re": [float(v.real) for v in res.values],
        "im": [float(v.imag) for v in res.values],
    }
    if args.dump:
        try:
            with open(args.dump, "w") as fh:
                fh.write("omega,re,im,abs\n")
                for x, v in zip(res.omegas, res.values):
                    fh.write(f"{float(x):.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}\n")
        except OSError as exc:
            print(f"input error: --dump {args.dump}: cannot write: {exc}", file=sys.stderr)
            return EXIT_INPUT
    _emit(args, payload, f"cascade verdict: {res.verdict}")
    return EXIT_OK if res.verdict != builder.INCONCLUSIVE else EXIT_UNKNOWN


def _cmd_cuntz(args) -> int:
    problem = _load_problem(args, args.problem)
    _require_filters(problem, need_g=True)
    rep = cuntz_check(
        problem.H, problem.G, trials=args.trials, seed=args.seed, tol=args.tol
    )
    payload = {"cuntz": _report_json(rep)}
    _emit(
        args,
        payload,
        f"isometry identities max residual {rep.max_residual:.3g}"
        + ("" if rep.passed else " (FAIL)"),
    )
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.json:
            print(dump_json({"names": catalog.names()}))
        else:
            for name in catalog.names():
                print(name)
        return EXIT_OK
    entry = catalog.get(args.name)
    if args.json:
        print(dump_json(problem_to_json(entry)))
    else:
        print(f"{entry.name}: {entry.summary}")
        print(f"  N = {entry.e.N}")
        print(f"  m = {entry.m}")
        print(f"  H: {entry.H.rows}x{entry.H.cols}")
        if entry.G is not None:
            print(f"  G: {entry.G.rows}x{entry.G.cols}")
        for exp in entry.expected:
            print(f"  expect {exp.key} = {exp.value!r}  [{exp.provenance}]")
    return EXIT_OK


def _add_global_options(parser, suppress: bool):
    # registered on the root and again on every subcommand so the flags
    # may appear on either side; SUPPRESS keeps subparsers from clobbering
    # values already parsed by the root
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--json", action="store_true", default=dflt(False),
        help="emit JSON reports",
    )
    parser.add_argument(
        "--tol", type=_setting("tolerance"), default=dflt(None),
        help=f"residual tolerance (default {DEFAULT_TOL})",
    )
    parser.add_argument(
        "--seed", type=_setting("seed"), default=dflt(None), help="seed for random vectors"
    )
    parser.add_argument(
        "--convention", choices=[CENTERED, UNIT], default=dflt(UNIT),
        help="interval display convention",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="gmra", description=__doc__)
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        _add_global_options(p, suppress=True)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check consistency and filter conditions")
    p.add_argument("problem")
    p = add("mtilde", _cmd_mtilde, "complementary multiplicity")
    p.add_argument("problem")
    p = add("sigma", _cmd_sigma, "multiplicity level sets")
    p.add_argument("problem")
    p = add("check-filter", _cmd_check_filter, "verify the filter conditions")
    p.add_argument("problem")
    p = add("complement", _cmd_complement, "numeric complementary filter")
    p.add_argument("problem")
    p.add_argument("--grid", type=_setting("grid"), default=None, help="quotient grid size")
    p = add("purity", _cmd_purity, "purity verdict for the low-pass operator")
    p.add_argument("problem")
    p = add("equiv", _cmd_equiv, "decide equivalence of two filter systems")
    p.add_argument("problem_a")
    p.add_argument("problem_b")
    p.add_argument("--degree", type=_setting("degree"), help="multiplier degree bound")
    p = add("construct", _cmd_construct, "lay out the canonical space ledger")
    p.add_argument("problem")
    p.add_argument("--depth", type=_setting("depth"), help="detail levels upward")
    p.add_argument("--down", type=_setting("down"), default=0, help="negative dilate levels")
    p = add("cascade", _cmd_cascade, "refinement partial-product diagnostic")
    p.add_argument("problem")
    p.add_argument("--iters", type=_setting("iters"), default=builder.CASCADE_ITERS)
    p.add_argument("--samples", type=_setting("samples"), default=builder.CASCADE_SAMPLES)
    p.add_argument("--dump", default=None, help="write omega,re,im,abs CSV here")
    p = add("cuntz", _cmd_cuntz, "isometry identity suite for an (H, G) pair")
    p.add_argument("problem")
    p.add_argument("--trials", type=_setting("trials"), default=0,
                   help="seeded random sections probed against the bounds")
    p = add("catalog", _cmd_catalog, "list or show built-in examples")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    env = os.environ.get("GMRA_TOL")
    if args.tol is None and env:
        try:
            args.tol = check_setting("tolerance", float(env))
        except ValueError as exc:
            print(f"input error: GMRA_TOL: {exc} ({env!r})", file=sys.stderr)
            return EXIT_INPUT
    if args.command == "catalog" and args.action == "show" and not args.name:
        print("input error: catalog show requires a name", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ProblemFileError, ContextMismatch, UnknownName) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GmraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
