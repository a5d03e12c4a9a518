"""Per-layer tracing from outside the program.

The layers are liecochain's modules.  `Tracer.install()` replaces each
module's public functions, and the public methods and arithmetic operators
of its classes, by wrappers; names imported into another module (such as
`action_analysis.relative_cohomology`) are replaced there too.  Nothing
under `src/` is edited, and `uninstall()` puts every original back.

A call that enters a layer from another layer (or from the benchmark)
records a span: name, start, end and parent span.  Calls inside a layer
pass straight through, apart from the few counters below that count every
call.  A layer's self time is its spans' duration minus the time covered by
the spans of other layers it calls.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import types
from collections import Counter
from math import comb
from time import perf_counter

LAYERS = ("scalar_field", "linalg", "lie_cohomology", "chart_calculus",
          "action_analysis", "dsl", "cli")

# Private functions another module calls; they are part of a layer's surface.
CROSS_MODULE_PRIVATE = {"action_analysis": ("_require_invariant_vertical_chain",)}

OPERATORS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__"}

METRICS = [
    ("scalar_field.self_s", "s"), ("scalar_field.calls", "count"),
    ("scalar_field.max_num_terms", "terms"), ("scalar_field.max_den_terms", "terms"),
    ("scalar_field.out_terms", "terms"),
    ("linalg.self_s", "s"), ("linalg.calls", "count"), ("linalg.cells", "cells"),
    ("linalg.max_cols", "columns"),
    ("lie_cohomology.self_s", "s"), ("lie_cohomology.calls", "count"),
    ("lie_cohomology.relative_basis_calls", "count"),
    ("lie_cohomology.basis_columns", "columns"),
    ("lie_cohomology.ce_differential_calls", "count"),
    ("chart_calculus.self_s", "s"), ("chart_calculus.calls", "count"),
    ("chart_calculus.lie_derivative_calls", "count"),
    ("action_analysis.self_s", "s"), ("action_analysis.calls", "count"),
    ("action_analysis.precondition_checks", "count"),
    ("action_analysis.field_checks", "count"),
    ("dsl.self_s", "s"), ("dsl.calls", "count"), ("dsl.parsed_bytes", "bytes"),
    ("cli.self_s", "s"), ("cli.calls", "count"),
    ("trace.overhead_s", "s"),
]

_MATRIX_FUNCS = {"rref", "rank", "nullspace", "inverse"}
_ECHELON_METHODS = {"Echelon.insert", "Echelon.reduce", "Echelon.contains"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.layer_stack = ["bench"]
        self.span_stack = [-1]
        self.child_time = [0.0]
        self.next_span = 0
        self.recording = False
        self.names = []
        self.spans = []          # (span id, name index, start, end, parent id)
        self.self_s = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._patches = []

    # -- counters -----------------------------------------------------------

    def reset_counts(self):
        self.self_s.clear()
        self.counts.clear()
        self.maxima.clear()

    def _bump_max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _every_call(self, qualname):
        """Counters taken on every call, also from inside the layer."""
        counts = self.counts
        if qualname == "relative_basis":
            def hook(args, kwargs):
                counts["lie_cohomology.relative_basis_calls"] += 1
                counts["lie_cohomology.basis_columns"] += comb(
                    _arg(args, kwargs, 0, "algebra").dim, _arg(args, kwargs, 2, "degree"))
            return hook
        simple = {
            "ce_differential": "lie_cohomology.ce_differential_calls",
            "lie_derivative_form": "chart_calculus.lie_derivative_calls",
            "lie_derivative_multivector": "chart_calculus.lie_derivative_calls",
            "check_invariant_multivector": "action_analysis.precondition_checks",
            "check_vertical": "action_analysis.precondition_checks",
            "check_invariant_vectorfield": "action_analysis.field_checks",
        }
        if qualname in simple:
            key = simple[qualname]

            def hook(args, kwargs):
                counts[key] += 1
            return hook
        if qualname == "parse":
            def hook(args, kwargs):
                counts["dsl.parsed_bytes"] += len(_arg(args, kwargs, 0, "text"))
            return hook
        return None

    def _on_entry(self, layer, qualname):
        """Counters taken when a call crosses into the layer."""
        counts = self.counts
        if layer == "linalg" and qualname in _MATRIX_FUNCS:
            def hook(args, kwargs):
                m = _arg(args, kwargs, 0, "m")
                cols = len(m[0]) if m else 0
                counts["linalg.cells"] += len(m) * cols
                self._bump_max("linalg.max_cols", cols)
            return hook
        if layer == "linalg" and qualname in _ECHELON_METHODS:
            def hook(args, kwargs):
                cols = len(_arg(args, kwargs, 1, "v"))
                counts["linalg.cells"] += len(args[0].rows) * cols
                self._bump_max("linalg.max_cols", cols)
            return hook
        return None

    def _on_exit(self, layer):
        if layer != "scalar_field":
            return None
        counts = self.counts
        scalar_type = importlib.import_module("liecochain.scalar_field").ScalarExpr

        def hook(result):
            if type(result) is scalar_type:
                n, d = len(result.num), len(result.den)
                counts["scalar_field.out_terms"] += n + d
                self._bump_max("scalar_field.max_num_terms", n)
                self._bump_max("scalar_field.max_den_terms", d)
        return hook

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        name_index = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        every = self._every_call(qualname)
        entry = self._on_entry(layer, qualname)
        leave = self._on_exit(layer)
        layer_stack, span_stack, child_time = self.layer_stack, self.span_stack, self.child_time
        self_s, counts, spans = self.self_s, self.counts, self.spans
        calls_key = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if every is not None:
                every(args, kwargs)
            if layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            counts[calls_key] += 1
            if entry is not None:
                entry(args, kwargs)
            span = self.next_span
            self.next_span += 1
            parent = span_stack[-1]
            layer_stack.append(layer)
            span_stack.append(span)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                layer_stack.pop()
                span_stack.pop()
                inner = child_time.pop()
                self_s[layer] += end - start - inner
                child_time[-1] += end - start
                if self.recording:
                    spans.append((span, name_index, start, end, parent))
            if leave is not None:
                leave(result)
            return result
        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"liecochain.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            private = CROSS_MODULE_PRIVATE.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and (not name.startswith("_")
                                                            or name in private):
                    wrapped[id(obj)] = self._wrap(obj, layer, name)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._patch(mod, name, wrapped[id(obj)])

    def _wrap_class(self, cls, layer):
        generated = {"__init__", "__eq__"} if dataclasses.is_dataclass(cls) else set()
        for attr, val in list(vars(cls).items()):
            if attr in generated or (attr.startswith("_") and attr not in OPERATORS):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(val, types.FunctionType):
                self._patch(cls, attr, self._wrap(val, layer, qualname))
            elif isinstance(val, (staticmethod, classmethod)):
                self._patch(cls, attr, type(val)(self._wrap(val.__func__, layer, qualname)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def layer_metrics(self):
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        out.update(self.maxima)
        return out

    def write(self, path):
        """Recorded spans as JSON lines: one header, then one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent"],
                                 "spans": len(self.spans)}) + "\n")
            for span, name_index, start, end, parent in self.spans:
                fh.write(json.dumps([span, self.names[name_index], start, end, parent]) + "\n")
