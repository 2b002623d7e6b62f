"""JSON schemas shared by the CLI: rationals, sets, filters, problem files.

Rationals travel as strings "p/q" (bare "p" when the denominator is 1).
Interval sets are lists of ["lo", "hi"] pairs; a display convention flag
chooses between the internal [0, 1) coordinates and the centered
[-1/2, 1/2) presentation.  Floats are printed with 17 significant digits
and key order is fixed, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from .errors import ProblemFileError
from .filters import DEFAULT_TOL, FilterMatrix, GridFilterMatrix
from .multiplicity import MultiplicityFunction
from .torus import TorusEndomorphism, TorusSet, wrap
from .trigpoly import TrigPoly

UNIT = "unit"
CENTERED = "centered"


def rat_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# the forms rat_str writes; matched first, so no exponent such as "1e-999999999"
# asks Fraction for a power of ten of unbounded size
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def _parse_ratio(text, path) -> tuple[int, int]:
    """The reduced (numerator, denominator) of "p/q" or "p" text, the denominator within
    ``INT_BOUNDS``."""
    try:
        if not _RATIONAL.fullmatch(str(text)):
            raise ValueError('expected "p/q" or "p"')
        num, _, den = str(text).partition("/")
        num, den = int(num), int(den or 1)
        if den == 0:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFileError(path, f"not a rational: {text!r} ({exc})") from None
    g = math.gcd(num, den)
    try:
        check_setting("denominator", den // g)
    except ValueError as exc:
        raise ProblemFileError(path, f"denominator of {text!r}: {exc}") from None
    return num // g, den // g


def parse_rat(text, path="value") -> Fraction:
    """A rational from "p/q" or "p" text, its denominator within ``INT_BOUNDS``."""
    return Fraction(*_parse_ratio(text, path))


def torus_set_to_json(ts: TorusSet, convention: str = UNIT) -> list:
    """The ["lo", "hi"] pairs of ts in the convention: its intervals in [0, 1], or in
    [-1/2, 1/2] the canonical form of ts turned by 1/2, turned back."""
    pairs = ts.intervals
    if convention != UNIT:
        half = Fraction(1, 2)
        turned = TorusSet.from_intervals((lo + half, hi + half) for lo, hi in pairs)
        pairs = [(lo - half, hi - half) for lo, hi in turned.intervals]
    return [[rat_str(lo), rat_str(hi)] for lo, hi in pairs]


def _parse_interval(data, path, read=parse_rat) -> tuple:
    """The rationals of a ["lo", "hi"] pair, each as ``read`` returns it."""
    if not isinstance(data, list) or len(data) != 2:
        raise ProblemFileError(path, "expected [lo, hi]")
    return read(data[0], f"{path}[0]"), read(data[1], f"{path}[1]")


def parse_torus_set(data, path="set") -> TorusSet:
    if not isinstance(data, list):
        raise ProblemFileError(path, "expected a list of [lo, hi] pairs")
    return TorusSet.from_intervals(
        _parse_interval(pair, f"{path}[{idx}]") for idx, pair in enumerate(data)
    )


def multiplicity_to_json(m: MultiplicityFunction, convention: str = UNIT) -> list:
    out = []
    for lo, hi, value in m.pieces:
        for pair in torus_set_to_json(TorusSet.interval(lo, hi), convention):
            out.append({"interval": pair, "value": value})
    return out


def parse_multiplicity(data, path="multiplicity") -> MultiplicityFunction:
    if not isinstance(data, list):
        raise ProblemFileError(path, "expected a list of pieces")
    pieces = []
    for idx, item in enumerate(data):
        here = f"{path}[{idx}]"
        if not isinstance(item, dict) or "interval" not in item or "value" not in item:
            raise ProblemFileError(here, "expected {interval: [lo, hi], value: int}")
        lo, hi = _parse_interval(item["interval"], f"{here}.interval")
        try:
            pieces.append((lo, hi, check_setting("multiplicity", item["value"])))
        except ValueError as exc:
            raise ProblemFileError(f"{here}.value", str(exc)) from None
    try:
        return MultiplicityFunction.from_pieces(pieces)
    except ValueError as exc:
        raise ProblemFileError(path, str(exc)) from None


def trigpoly_to_json(f: TrigPoly, convention: str = UNIT) -> dict:
    pieces = []
    for lo, hi, terms in f.pieces:
        for pair in torus_set_to_json(TorusSet.interval(lo, hi), convention):
            pieces.append(
                {
                    "interval": pair,
                    "terms": [
                        {"freq": rat_str(nu), "re": c.real, "im": c.imag}
                        for nu, c in terms
                    ],
                }
            )
    return {"pieces": pieces}


def parse_trigpoly(data, path="entry") -> TrigPoly:
    if not isinstance(data, dict) or not isinstance(data.get("pieces"), list):
        raise ProblemFileError(path, "expected {pieces: [...]}")
    raw = []  # ((lo, q), (hi, q'), [((n, d), c)]) per declared piece, all ints
    for idx, piece in enumerate(data["pieces"]):
        here = f"{path}.pieces[{idx}]"
        if not (isinstance(piece, dict) and "interval" in piece
                and isinstance(piece.get("terms", []), list)):
            raise ProblemFileError(here, "expected {interval, terms: [...]}")
        lo, hi = _parse_interval(piece["interval"], f"{here}.interval", _parse_ratio)
        terms = []
        for tdx, term in enumerate(piece.get("terms", [])):
            there = f"{here}.terms[{tdx}]"
            if not isinstance(term, dict) or "freq" not in term:
                raise ProblemFileError(there, "expected {freq, re, im}")
            freq = _parse_ratio(term["freq"], f"{there}.freq")
            try:
                coef = complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
            except (TypeError, ValueError):
                raise ProblemFileError(there, "re/im must be numbers") from None
            if not (math.isfinite(coef.real) and math.isfinite(coef.imag)):
                raise ProblemFileError(there, f"re/im must be finite, got {coef}")
            terms.append((freq, coef))
        raw.append((lo, hi, terms))
    den = math.lcm(*(q for lo, hi, _ in raw for _, q in (lo, hi)))
    fden = math.lcm(*(d for _, _, terms in raw for (_, d), _ in terms))
    pieces = (  # each declared interval read mod 1 into [0, den] segments, same terms on each
        (lo, hi, [(n * (fden // d), c) for (n, d), c in terms])
        for (a, p), (b, q), terms in raw for lo, hi in wrap(a * (den // p), b * (den // q), den)
    )
    try:
        return TrigPoly.from_spans(den, fden, pieces)
    except ValueError as exc:
        raise ProblemFileError(path, str(exc)) from None


def filter_to_json(F: FilterMatrix, convention: str = UNIT) -> list:
    return [
        [trigpoly_to_json(entry, convention) for entry in row] for row in F.entries
    ]


def parse_filter(data, m, e, rows_follow, path="filter") -> FilterMatrix:
    if not isinstance(data, list) or not data:
        raise ProblemFileError(path, "expected a non-empty nested list of entries")
    rows = []
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise ProblemFileError(f"{path}[{i}]", "expected a list of entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProblemFileError(f"{path}[{i}]", "ragged matrix")
        rows.append(
            tuple(
                parse_trigpoly(cell, f"{path}[{i}][{j}]") for j, cell in enumerate(row)
            )
        )
    return FilterMatrix(tuple(rows), m, e, rows_follow)


def grid_filter_to_json(G: GridFilterMatrix) -> dict:
    return {
        "grid": G.grid,
        "samples": [
            [
                [[float(v.real), float(v.imag)] for v in G.samples[i, j]]
                for j in range(G.cols)
            ]
            for i in range(G.rows)
        ],
    }


# ---- problem files -----------------------------------------------------------


class ProblemInput:
    """Parsed problem file: dilation, multiplicity, optional filters, options."""

    def __init__(self, e, m, H, G, options):
        self.e = e
        self.m = m
        self.H = H
        self.G = G
        self.options = options


_DEFAULT_OPTIONS = {
    "tolerance": DEFAULT_TOL,
    "grid": 256,
    "degree": 16,
    "depth": 3,
    "seed": 0,
}

# integer settings and their inclusive ranges, for problem options and the
# CLI flags of the same names alike; the upper bounds keep an input from
# asking for an allocation or a run of unbounded size
INT_BOUNDS = {
    "grid": (1, 2**16),
    "degree": (0, 256),
    "depth": (0, 16),
    "seed": (0, 2**63 - 1),
    "iters": (1, 256),
    "samples": (1, 2**16),
    "trials": (0, 1000),
    "down": (0, 16),
    # not options: the dilation factor, every input denominator and multiplicity value
    "N": (2, 2**10),
    "denominator": (1, 2**32),
    "multiplicity": (0, 2**10),
}


def check_setting(key: str, value):
    """``value`` if it is a valid ``tolerance`` or integer setting ``key``; else ValueError."""
    if key == "tolerance":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"expected a finite number > 0, got {value!r}")
        return float(value)
    lo, hi = INT_BOUNDS[key]
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ValueError(f"expected an integer in [{lo}, {hi}], got {value!r}")
    return value


def parse_problem(data, path="problem") -> ProblemInput:
    if not isinstance(data, dict):
        raise ProblemFileError(path, "expected a JSON object")
    endo = data.get("endomorphism")
    if not isinstance(endo, dict) or "N" not in endo:
        raise ProblemFileError(f"{path}.endomorphism", "expected {N: int >= 2}")
    try:
        e = TorusEndomorphism(check_setting("N", endo["N"]))
    except ValueError as exc:
        raise ProblemFileError(f"{path}.endomorphism.N", str(exc)) from None
    if "multiplicity" not in data:
        raise ProblemFileError(f"{path}.multiplicity", "missing")
    m = parse_multiplicity(data["multiplicity"], f"{path}.multiplicity")
    H = G = None
    filters = data.get("filters") or {}
    if filters:
        if not isinstance(filters, dict):
            raise ProblemFileError(f"{path}.filters", "expected an object")
        if filters.get("H") is not None:
            H = parse_filter(filters["H"], m, e, "m", f"{path}.filters.H")
        if filters.get("G") is not None:
            G = parse_filter(filters["G"], m, e, "mtilde", f"{path}.filters.G")
    options = dict(_DEFAULT_OPTIONS)
    raw_options = data.get("options") or {}
    if not isinstance(raw_options, dict):
        raise ProblemFileError(f"{path}.options", "expected an object")
    for key, value in raw_options.items():
        if key not in options:
            raise ProblemFileError(f"{path}.options.{key}", "unknown option")
        try:
            options[key] = check_setting(key, value)
        except ValueError as exc:
            raise ProblemFileError(f"{path}.options.{key}", str(exc)) from None
    return ProblemInput(e, m, H, G, options)


def problem_to_json(entry) -> dict:
    """Problem-file form of a catalog entry (round-trips through parse_problem)."""
    out = {
        "version": 1,
        "name": entry.name,
        "summary": entry.summary,
        "endomorphism": {"N": entry.e.N},
        "multiplicity": multiplicity_to_json(entry.m),
        "filters": {"H": filter_to_json(entry.H)},
    }
    if entry.G is not None:
        out["filters"]["G"] = filter_to_json(entry.G)
    return out


# ---- deterministic dumping -----------------------------------------------------


def _prepare(obj):
    if isinstance(obj, dict):
        return {str(k): _prepare(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_prepare(v) for v in obj]
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, TorusSet):
        return torus_set_to_json(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _FloatLiteral(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _FloatLiteral(obj.real), "im": _FloatLiteral(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_prepare(v) for v in obj.tolist()]
    return obj


class _FloatLiteral:
    def __init__(self, value: float):
        self.value = value


def _render(obj, indent: int, out: list):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f'{pad}  {json.dumps(str(key))}: ')
            _render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, _FloatLiteral):
        text = format(obj.value, ".17g")
        if text in ("inf", "-inf", "nan"):
            text = json.dumps(text)
        out.append(text)
    elif isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        out.append(json.dumps(obj))
    else:
        out.append(json.dumps(str(obj)))


def dump_json(obj) -> str:
    """Deterministic JSON: fixed key order, floats at 17 significant digits."""
    out: list[str] = []
    _render(_prepare(obj), 0, out)
    return "".join(out)
