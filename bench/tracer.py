"""Span tracing around gmra's public functions and methods, from outside.

``Tracer.install`` wraps every public function and method of the layer
modules (plus the arithmetic operators of their classes) and rebinds the
wrappers wherever gmra re-exports a name with ``from .x import y``.  Each
call while the tracer is enabled records a span: name, start, end, parent
span and task id.  Spans stay in memory (up to ``MAX_SPANS``) and are
written out by ``Tracer.write``; a span's parent is the index of the
enclosing span, -1 at the top.

Self time is a span's duration minus the time its child spans cover; it is
accumulated per metric as spans close, together with the counts taken at
the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("torus", "trigpoly", "multiplicity", "filters", "ruelle", "builder", "equivalence", "jsonio")
OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__")
MAX_SPANS = 1_000_000

# trigpoly operations counted by `trigpoly.algebra_calls`
TRIG_ALGEBRA = {
    "TrigPoly.__add__", "TrigPoly.__sub__", "TrigPoly.__mul__", "TrigPoly.__rmul__",
    "TrigPoly.conj", "TrigPoly.restrict", "TrigPoly.shift_frequencies", "fold",
    "integrate", "inner", "norm", "dilate_branch", "compress_branch", "compose_endomorphism",
}
TRIG_EVAL = {"TrigPoly.evaluate", "TrigPoly.sample"}
FILTER_VERIFY = {"verify_filter", "verify_complementary"}
FILTER_GRID = {"complement_numeric", "verify_complementary_grid", "check_block_unitary"}
RUELLE_GRID = {"apply_S_grid", "GridSectionVector.norm_estimate"}
RUELLE_SECTIONS = {"apply_S", "apply_S_adjoint"}
SEARCHES = {"coboundary_solve", "constant_multiplier_search", "grid_coboundary_search"}

# metric -> unit, in report order
PER_LAYER = {
    "trigpoly.algebra_self_s": "s/task",
    "trigpoly.algebra_calls": "count/task",
    "trigpoly.terms_out": "count/task",
    "trigpoly.pieces_out": "count/task",
    "trigpoly.eval_self_s": "s/task",
    "trigpoly.eval_calls": "count/task",
    "torus.self_s": "s/task",
    "torus.calls": "count/task",
    "multiplicity.self_s": "s/task",
    "multiplicity.calls": "count/task",
    "filters.verify_self_s": "s/task",
    "filters.grid_self_s": "s/task",
    "filters.grid_points": "count/task",
    "ruelle.self_s": "s/task",
    "ruelle.sections": "count/task",
    "ruelle.grid_self_s": "s/task",
    "builder.self_s": "s/task",
    "builder.slots": "count/task",
    "builder.cascade_self_s": "s/task",
    "equivalence.purity_self_s": "s/task",
    "equivalence.decide_self_s": "s/task",
    "equivalence.decided_ratio": "ratio",
    "equivalence.certified_ratio": "ratio",
    "equivalence.search_self_s": "s/task",
    "jsonio.self_s": "s",
    "jsonio.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


# helpers charge their own time to the nearest enclosing span of their layer
HELPER_DEFAULT = {"trigpoly": "trigpoly.eval_self_s", "equivalence": "equivalence.decide_self_s"}


def _time_metric(layer: str, name: str) -> str | None:
    """The self-time metric a span's own time adds to; None for a helper."""
    if layer == "trigpoly":
        if name == "unit_phase":  # pointwise, inside evaluate as well as algebra
            return None
        return "trigpoly.eval_self_s" if name in TRIG_EVAL else "trigpoly.algebra_self_s"
    if layer == "filters":
        if name in FILTER_VERIFY:
            return "filters.verify_self_s"
        return "filters.grid_self_s" if name in FILTER_GRID else "filters.other_self_s"
    if layer == "ruelle":
        return "ruelle.grid_self_s" if name in RUELLE_GRID else "ruelle.self_s"
    if layer == "builder":
        return "builder.cascade_self_s" if name == "cascade_diagnostic" else "builder.self_s"
    if layer == "equivalence":
        if name in SEARCHES:
            return "equivalence.search_self_s"
        if name == "purity_test":
            return "equivalence.purity_self_s"
        if name == "decide":
            return "equivalence.decide_self_s"
        return None
    return f"{layer}.self_s"


def _pieces(poly) -> tuple[int, int]:
    pieces = getattr(poly, "pieces", None)
    if pieces is None:
        return 0, 0
    return len(pieces), sum(len(terms) for _, _, terms in pieces)


class Tracer:
    """Wraps gmra's layers once; records spans and metrics while enabled."""

    def __init__(self):
        self.enabled = False
        self.task = -1
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.tasks = array("i")
        self.recorded = 0  # spans opened; only the first MAX_SPANS are kept
        self.stack: list[list] = []  # [span index, child time]
        self.context: dict[str, list[str]] = {layer: [] for layer in HELPER_DEFAULT}
        self.totals: dict[str, float] = defaultdict(float)

    # ---- installation ----------------------------------------------------------

    def install(self):
        import gmra  # noqa: F401  (loads every layer module)

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"gmra.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        # rebind every module-level alias, including `from .x import y` copies
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gmra" and not mod_name.startswith("gmra."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, layer, name)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, layer, name))

    def _wrap(self, fn, layer, name):
        span_name = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(span_name)
        metric = _time_metric(layer, name)
        calls_metric = {
            "trigpoly": "trigpoly.eval_calls" if name in TRIG_EVAL else (
                "trigpoly.algebra_calls" if name in TRIG_ALGEBRA else None),
            "torus": "torus.calls",
            "multiplicity": "multiplicity.calls",
            "ruelle": "ruelle.sections" if name in RUELLE_SECTIONS else None,
        }.get(layer)
        counter = self._counter(layer, name, inspect.signature(fn))
        context = self.context.get(layer)
        pushes = context is not None and metric is not None
        helper_default = HELPER_DEFAULT.get(layer)
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            index = tracer._open(name_id, parent)
            frame = [index, 0.0]
            stack.append(frame)
            if pushes:
                context.append(metric)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if pushes:
                    context.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = metric or (context[-1] if context else helper_default)
                tracer.totals[own] += duration - frame[1]
                if calls_metric:
                    tracer.totals[calls_metric] += 1
                if index < MAX_SPANS:
                    tracer.starts[index] = start
                    tracer.ends[index] = end
            if counter:
                counter(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, layer, name, signature):
        """The count taken when a span of this function closes, if any."""
        totals = self.totals

        def argument(args, kwargs, key):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments[key]

        if layer == "trigpoly" and name in TRIG_ALGEBRA:
            def count(args, kwargs, result):
                pieces, terms = _pieces(result)
                totals["trigpoly.pieces_out"] += pieces
                totals["trigpoly.terms_out"] += terms
            return count
        if name in ("complement_numeric", "check_block_unitary"):
            def count(args, kwargs, result):
                totals["filters.grid_points"] += argument(args, kwargs, "grid")
            return count
        if name == "verify_complementary_grid":
            def count(args, kwargs, result):
                G, H = argument(args, kwargs, "G"), argument(args, kwargs, "H")
                totals["filters.grid_points"] += G.grid // H.e.N
            return count
        if layer == "builder" and name == "build":
            def count(args, kwargs, result):
                totals["builder.slots"] += len(result.slots)
            return count
        if layer == "equivalence" and name == "purity_test":
            def count(args, kwargs, result):
                totals["equivalence.purity_calls"] += 1
                totals["equivalence.certified"] += result.kind in ("pure", "not_pure")
            return count
        if layer == "equivalence" and name == "decide":
            def count(args, kwargs, result):
                totals["equivalence.decide_calls"] += 1
                totals["equivalence.decided"] += result.kind in ("equivalent", "inequivalent")
            return count
        return None

    def _open(self, name_id, parent) -> int:
        """Reserve the next span, in opening order; times are filled at close."""
        index = self.recorded
        self.recorded += 1
        if index < MAX_SPANS:
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.tasks.append(self.task)
            self.starts.append(0.0)
            self.ends.append(0.0)
        return index

    # ---- results ---------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)

    def metrics(self, before: dict, tasks: int) -> tuple[dict[str, float], dict[str, float]]:
        """Per-task layer metrics since the `before` snapshot, and the ratio denominators."""
        delta = defaultdict(float)
        for key, value in self.totals.items():
            delta[key] = value - before.get(key, 0.0)
        out = {
            name: delta[name] / tasks
            for name, unit in PER_LAYER.items()
            if unit in ("s/task", "count/task")
        }
        calls = {
            "decide": delta["equivalence.decide_calls"],
            "purity_test": delta["equivalence.purity_calls"],
        }
        # 0 when the workload makes no such call
        out["equivalence.decided_ratio"] = (
            delta["equivalence.decided"] / calls["decide"] if calls["decide"] else 0.0
        )
        out["equivalence.certified_ratio"] = (
            delta["equivalence.certified"] / calls["purity_test"] if calls["purity_test"] else 0.0
        )
        return out, calls

    def write(self, path):
        """Save the recorded spans, in opening order, as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name_ids),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents),
            task=np.asarray(self.tasks),
            recorded=self.recorded,
        )
