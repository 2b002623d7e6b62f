"""Built-in example systems with their expected properties.

Each entry carries exactly encoded multiplicity and filter data plus a list
of expected values tagged by provenance: "published" for values taken from
the literature, "derived" for values computed by an independent route, and
"trivial" for immediate consequences.  ``run_expectations`` re-derives every
expectation through the owning module and reports pass/fail per item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import builder, equivalence
from .errors import UnknownName
from .filters import (
    DEFAULT_TOL,
    FilterMatrix,
    verify_complementary,
    verify_filter,
)
from .multiplicity import MultiplicityFunction, compute_mtilde, sigma_sets
from .torus import TorusEndomorphism, TorusSet
from .trigpoly import TrigPoly

PUBLISHED = "published"
DERIVED = "derived"
TRIVIAL = "trivial"

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)
_INV_SQRT6 = 1.0 / math.sqrt(6.0)


def _ts(*pairs) -> TorusSet:
    return TorusSet.from_intervals(pairs)


def _poly(*terms) -> TrigPoly:
    return TrigPoly.from_pieces([(0, 1, [(Fraction(n), c) for n, c in terms])])


def _ind(ts: TorusSet, coef=_SQRT2) -> TrigPoly:
    return TrigPoly.indicator(ts, coef)


@dataclass(frozen=True)
class Expectation:
    key: str
    value: object
    provenance: str
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    e: TorusEndomorphism
    m: MultiplicityFunction
    H: FilterMatrix
    G: FilterMatrix | None
    expected: tuple[Expectation, ...] = ()


def _entry(name, summary, N, m, h_rows, g_rows, expected) -> CatalogEntry:
    e = TorusEndomorphism(N)
    H = FilterMatrix.from_rows(h_rows, m, e, "m")
    G = FilterMatrix.from_rows(g_rows, m, e, "mtilde") if g_rows else None
    return CatalogEntry(name, summary, e, m, H, G, tuple(expected))


def _build_catalog() -> dict[str, CatalogEntry]:
    entries = []
    m1 = MultiplicityFunction.constant(1)
    full = TorusSet.full()

    shannon_h = _ind(_ts(("-1/4", "1/4")))
    shannon_g = _ind(_ts(("1/4", "1/2"), ("-1/2", "-1/4")))
    entries.append(
        _entry(
            "shannon",
            "band-limited scaling filter: sqrt(2) on [-1/4,1/4)",
            2,
            m1,
            [[shannon_h]],
            [[shannon_g]],
            [
                Expectation("mtilde_constant", 1, TRIVIAL),
                Expectation("filter_ok", True, DERIVED, "fold residual"),
                Expectation("complement_ok", True, DERIVED),
                Expectation("purity", equivalence.PURE, DERIVED,
                            "modulus never equals 1"),
                Expectation("cascade", builder.CONVERGENT_NONZERO, DERIVED),
            ],
        )
    )

    haar_h = _poly((0, _INV_SQRT2), (-1, _INV_SQRT2))
    haar_g = _poly((-1, _INV_SQRT2), (0, -_INV_SQRT2))
    entries.append(
        _entry(
            "haar",
            "two-tap averaging filter (1 + e_{-1})/sqrt(2)",
            2,
            m1,
            [[haar_h]],
            [[haar_g]],
            [
                Expectation("mtilde_constant", 1, TRIVIAL),
                Expectation("filter_ok", True, PUBLISHED, "reference filter"),
                Expectation("complement_ok", True, PUBLISHED),
                Expectation("purity", equivalence.PURE, DERIVED),
                Expectation("cascade", builder.CONVERGENT_NONZERO, DERIVED,
                            "matches the sinc modulus"),
                Expectation("inequivalent_to", ("cohen", equivalence.MODULI_MISMATCH),
                            PUBLISHED, "moduli differ on positive measure"),
                Expectation("inequivalent_to",
                            ("haar_negated", equivalence.CONSTANT_RATIO),
                            PUBLISHED, "no unimodular multiplier exists"),
            ],
        )
    )

    entries.append(
        _entry(
            "haar_negated",
            "the sign-flipped averaging filter; same moduli, new class",
            2,
            m1,
            [[haar_h * -1.0]],
            [[haar_g]],
            [
                Expectation("filter_ok", True, TRIVIAL, "sign drops out of folds"),
                Expectation("complement_ok", True, DERIVED),
                Expectation("purity", equivalence.PURE, DERIVED),
                Expectation("cascade_not", builder.CONVERGENT_NONZERO, PUBLISHED,
                            "iterating the refinement forces the zero function"),
                Expectation("inequivalent_to",
                            ("haar", equivalence.CONSTANT_RATIO), PUBLISHED),
            ],
        )
    )

    cohen_h = _poly((0, _INV_SQRT2), (-3, _INV_SQRT2))
    cohen_g = _poly((0, _INV_SQRT2), (-3, -_INV_SQRT2))
    entries.append(
        _entry(
            "cohen",
            "stretched two-tap filter (1 + e_{-3})/sqrt(2)",
            2,
            m1,
            [[cohen_h]],
            [[cohen_g]],
            [
                Expectation("mtilde_constant", 1, TRIVIAL),
                Expectation("filter_ok", True, PUBLISHED),
                Expectation("complement_ok", True, DERIVED),
                Expectation("purity", equivalence.PURE, DERIVED),
                Expectation("inequivalent_to",
                            ("haar", equivalence.MODULI_MISMATCH), PUBLISHED),
            ],
        )
    )

    entries.append(
        _entry(
            "shannon_reversed",
            "band-limited pair with low- and high-pass roles switched",
            2,
            m1,
            [[shannon_g]],
            [[shannon_h]],
            [
                Expectation("filter_ok", True, DERIVED),
                Expectation("complement_ok", True, DERIVED),
                Expectation("purity", equivalence.PURE, PUBLISHED,
                            "the switched system is still a pure isometry"),
                Expectation("v_neg1",
                            [_ts(("1/4", "1/2"), ("-1/2", "-1/4"))], PUBLISHED),
            ],
        )
    )

    entries.append(
        _entry(
            "haar_reversed",
            "two-tap pair with low- and high-pass roles switched",
            2,
            m1,
            [[haar_g]],
            [[haar_h]],
            [
                Expectation("filter_ok", True, DERIVED),
                Expectation("complement_ok", True, DERIVED),
                Expectation("purity", equivalence.PURE, PUBLISHED),
            ],
        )
    )

    journe_m = MultiplicityFunction.from_pieces(
        [
            (Fraction(-1, 7), Fraction(1, 7), 2),
            (Fraction(1, 7), Fraction(2, 7), 1),
            (Fraction(-2, 7), Fraction(-1, 7), 1),
            (Fraction(3, 7), Fraction(1, 2), 1),
            (Fraction(-1, 2), Fraction(-3, 7), 1),
        ]
    )
    zero = TrigPoly.zero()
    journe_h11 = _ind(_ts(("-2/7", "-1/4"), ("-1/7", "1/7"), ("1/4", "2/7")))
    journe_h21 = _ind(_ts(("3/7", "1/2"), ("-1/2", "-3/7")))
    journe_g11 = _ind(_ts(("-1/4", "-1/7"), ("1/7", "1/4")))
    journe_g12 = _ind(_ts(("-1/7", "1/7")))
    journe_sigma1 = _ts(("-1/2", "-3/7"), ("-2/7", "2/7"), ("3/7", "1/2"))
    journe_sigma2 = _ts(("-1/7", "1/7"))
    entries.append(
        _entry(
            "journe",
            "multiplicity-two system behind the classical non-MRA wavelet",
            2,
            journe_m,
            [[journe_h11, zero], [journe_h21, zero]],
            [[journe_g11, journe_g12]],
            [
                Expectation("mtilde_constant", 1, PUBLISHED,
                            "single wavelet: complementary multiplicity 1"),
                Expectation("sigma_sets", [journe_sigma1, journe_sigma2], PUBLISHED),
                Expectation("filter_ok", True, PUBLISHED),
                Expectation("complement_ok", True, PUBLISHED),
                Expectation("purity", equivalence.PURE, DERIVED,
                            "active block vanishes on (1/7,1/4)"),
                Expectation(
                    "v_neg1",
                    [
                        _ts(("-1/7", "1/7"), ("1/4", "2/7"), ("-2/7", "-1/4"),
                            ("3/7", "1/2"), ("-1/2", "-3/7")),
                        TorusSet.empty(),
                    ],
                    PUBLISHED,
                ),
                Expectation("inequivalent_to",
                            ("haar", equivalence.MULTIPLICITY_MISMATCH), TRIVIAL),
                Expectation("inequivalent_to",
                            ("journe_rank2", equivalence.SINGULAR_VALUE_MISMATCH),
                            DERIVED,
                            "active blocks have different ranks near 0"),
            ],
        )
    )

    rank2_h22 = _ind(_ts(("-1/14", "1/14")))
    rank2_g11 = _ind(
        _ts(("-1/2", "-3/7"), ("-1/4", "-1/7"), ("1/7", "1/4"), ("3/7", "1/2"))
    )
    rank2_g12 = _ind(_ts(("-1/7", "-1/14"), ("1/14", "1/7")))
    entries.append(
        _entry(
            "journe_rank2",
            "same multiplicity, rank-two low-pass variant",
            2,
            journe_m,
            [[journe_h11, zero], [zero, rank2_h22]],
            [[rank2_g11, rank2_g12]],
            [
                Expectation("filter_ok", True, PUBLISHED),
                Expectation("complement_ok", True, PUBLISHED),
                Expectation("purity", equivalence.PURE, PUBLISHED,
                            "construction applies although no scaling function exists"),
                Expectation(
                    "v_neg1",
                    [
                        _ts(("-1/7", "1/7"), ("1/4", "2/7"), ("-2/7", "-1/4")),
                        _ts(("-1/14", "1/14")),
                    ],
                    PUBLISHED,
                ),
            ],
        )
    )

    haar3_h = _poly((0, _INV_SQRT3), (1, _INV_SQRT3), (2, _INV_SQRT3))
    haar3_g1 = _poly((1, _INV_SQRT2), (2, -_INV_SQRT2))
    haar3_g2 = _poly((0, -2 * _INV_SQRT6), (1, _INV_SQRT6), (2, _INV_SQRT6))
    entries.append(
        _entry(
            "haar3_2wavelet",
            "dilation-3 averaging filter with its two detail filters",
            3,
            m1,
            [[haar3_h]],
            [[haar3_g1], [haar3_g2]],
            [
                Expectation("mtilde_constant", 2, TRIVIAL, "3*1 - 1"),
                Expectation("filter_ok", True, PUBLISHED),
                Expectation("complement_ok", True, PUBLISHED),
                Expectation("purity", equivalence.PURE, DERIVED),
                Expectation("cascade", builder.CONVERGENT_NONZERO, DERIVED),
            ],
        )
    )

    cantor_h = _poly((0, _INV_SQRT2), (2, _INV_SQRT2))
    cantor_g1 = _poly((1, 1.0))
    cantor_g2 = _poly((0, _INV_SQRT2), (2, -_INV_SQRT2))
    entries.append(
        _entry(
            "cantor3",
            "dilation-3 fractal filter (1 + e_2)/sqrt(2)",
            3,
            m1,
            [[cantor_h]],
            [[cantor_g1], [cantor_g2]],
            [
                Expectation("mtilde_constant", 2, TRIVIAL),
                Expectation("filter_ok", True, PUBLISHED),
                Expectation("complement_ok", True, PUBLISHED),
                Expectation("purity", equivalence.PURE, DERIVED),
                Expectation("cascade", builder.DEGENERATES_TO_ZERO, PUBLISHED,
                            "value sqrt(2) at 0 falls short of sqrt(3)"),
                Expectation("inequivalent_to",
                            ("haar3_2wavelet", equivalence.MODULI_MISMATCH),
                            PUBLISHED),
            ],
        )
    )

    entries.append(
        _entry(
            "eigenfilter_constant",
            "constant filter [1]: the canonical non-pure fixture",
            2,
            m1,
            [[_poly((0, 1.0))]],
            [[_poly((1, 1.0))]],
            [
                Expectation("filter_ok", True, TRIVIAL, "1 + 1 = 2"),
                Expectation("complement_ok", True, DERIVED),
                Expectation("purity", equivalence.NOT_PURE, TRIVIAL,
                            "constant eigenvector, eigenvalue 1"),
                Expectation("eigenvalue", 1.0, TRIVIAL),
                Expectation("build_refuses", True, TRIVIAL),
            ],
        )
    )

    entries.append(
        _entry(
            "haar_unnormalized",
            "negative fixture: 1 + e_{-1} without the 1/sqrt(2)",
            2,
            m1,
            [[_poly((0, 1.0), (-1, 1.0))]],
            None,
            [
                Expectation("filter_fails_at_least", 1.0, DERIVED,
                            "fold gives 4 instead of 2"),
            ],
        )
    )

    return {entry.name: entry for entry in entries}


_CATALOG = _build_catalog()


def names() -> list[str]:
    return sorted(_CATALOG)


def get(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownName(f"no catalog entry named {name!r}") from None


@dataclass
class ExpectationResult:
    key: str
    passed: bool
    detail: str = ""


@dataclass
class CatalogReport:
    name: str
    passed: bool
    results: list[ExpectationResult] = field(default_factory=list)


def _check(entry: CatalogEntry, exp: Expectation, tol: float) -> ExpectationResult:
    key, want = exp.key, exp.value
    if key == "mtilde_constant":
        got = compute_mtilde(entry.m, entry.e)
        ok = got == MultiplicityFunction.constant(want)
        return ExpectationResult(key, ok, str(got))
    if key == "sigma_sets":
        got = sigma_sets(entry.m)
        return ExpectationResult(key, got == list(want), fmt_sets(got))
    if key == "filter_ok":
        rep = verify_filter(entry.H, tol)
        return ExpectationResult(key, rep.passed, f"residual={rep.max_residual:.3g}")
    if key == "filter_fails_at_least":
        rep = verify_filter(entry.H, tol)
        ok = (not rep.passed) and rep.max_residual >= want
        return ExpectationResult(key, ok, f"residual={rep.max_residual:.3g}")
    if key == "complement_ok":
        rep = verify_complementary(entry.G, entry.H, tol)
        return ExpectationResult(key, rep.passed, f"residual={rep.max_residual:.3g}")
    if key == "purity":
        verdict = equivalence.purity_test(entry.H, tol=tol)
        return ExpectationResult(key, verdict.kind == want, verdict.kind)
    if key == "eigenvalue":
        verdict = equivalence.purity_test(entry.H, tol=tol)
        ok = verdict.eigenvalue is not None and abs(verdict.eigenvalue - want) <= tol
        return ExpectationResult(key, ok, str(verdict.eigenvalue))
    if key == "v_neg1":
        g = builder.build(entry.m, entry.H, entry.G, entry.e, depth=1, tol=tol)
        levels = builder.negative_supports(g, 1)
        got = list(levels[0].v_supports)
        return ExpectationResult(key, got == list(want), fmt_sets(got))
    if key == "cascade":
        res = builder.cascade_diagnostic(entry.H, entry.e)
        return ExpectationResult(key, res.verdict == want, res.verdict)
    if key == "cascade_not":
        res = builder.cascade_diagnostic(entry.H, entry.e)
        return ExpectationResult(key, res.verdict != want, res.verdict)
    if key == "inequivalent_to":
        other_name, obstruction_kind = want
        other = get(other_name)
        if other.e != entry.e:
            return ExpectationResult(key, False, "different dilation factors")
        verdict = equivalence.decide(entry.H, other.H, tol=tol)
        ok = (
            verdict.kind == equivalence.INEQUIVALENT
            and verdict.obstruction is not None
            and verdict.obstruction.kind == obstruction_kind
        )
        got = verdict.obstruction.kind if verdict.obstruction else verdict.kind
        return ExpectationResult(key, ok, f"{other_name}: {got}")
    if key == "build_refuses":
        try:
            builder.build(entry.m, entry.H, entry.G, entry.e, depth=1, tol=tol)
        except Exception as exc:  # NotPureIsometry expected
            return ExpectationResult(key, True, type(exc).__name__)
        return ExpectationResult(key, False, "build succeeded")
    return ExpectationResult(key, False, "unknown expectation key")


def fmt_sets(sets) -> str:
    return "; ".join(str(s) for s in sets)


def run_expectations(name: str, tol: float = DEFAULT_TOL) -> CatalogReport:
    """Evaluate every expected property of an entry through its owning module."""
    entry = get(name)
    results = [_check(entry, exp, tol) for exp in entry.expected]
    return CatalogReport(
        name=name,
        passed=all(r.passed for r in results),
        results=results,
    )
