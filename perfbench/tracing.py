"""Layer tracer: spans around the public callables of every posgeom module.

install() wraps each module's public functions and the public methods
(plus operator dunders and __init__) of the classes it defines, and
rebinds every name that refers to a wrapped function in the package
namespace and in every module namespace, because modules bind
``from .exact import det`` into their own globals.  The wrapper for
``adaptive_quad`` also wraps the integrand callable it receives, so
quadrature time and integrand time fall into separate spans.

A span opens only at a layer boundary: a call into module M from code of
another layer (or from the benchmark's op, the "harness" layer).  Calls
inside one layer are counted but open no span, so a layer's self time is
the time its code ran, children excluded.  Spans are kept in memory, up
to a cap, and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

from checks import root_separation

MODULES = (
    "exact",
    "kinematics",
    "trees",
    "polytope",
    "chy",
    "dihedral",
    "grassmann",
    "gkz",
    "quadrature",
    "signature",
    "cli",
)
HARNESS = "harness"
# dunders that do work worth attributing; the rest (hash, repr, setattr) stay bare
WRAPPED_DUNDERS = frozenset(
    {"__init__", "__call__", "__eq__", "__neg__", "__pow__"}
    | {f"__{op}__" for op in ("add", "sub", "mul", "truediv")}
    | {f"__r{op}__" for op in ("add", "sub", "mul", "truediv")}
)


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.calls: Counter = Counter()  # per layer, every wrapped call
        self.function_calls: Counter = Counter()  # per "layer.function"
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.integrand_s: Counter = Counter()  # self time of integrand spans, per layer
        self.counts: Counter = Counter()  # trees.triangulations, chy.roots, quadrature.evals
        self.extrema: dict[str, float] = {}  # chy.worst_residual (max), chy.min_root_sep (min)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [layer, span id, child seconds] per open span
        self._next_span = 0
        self._op = 0
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------ spans
    def run_op(self, op_id: int, fn):
        """Run fn() as the root span of one op, attributed to the harness."""
        self._op = op_id
        return self._span(HARNESS, "op", fn, (), {}, integrand=False)

    def _span(self, layer, name, fn, args, kwargs, integrand):
        parent = self._stack[-1][1] if self._stack else -1
        span_id = self._next_span
        self._next_span += 1
        entry = [layer, span_id, 0.0]
        self._stack.append(entry)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[layer] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            own = duration - entry[2]
            self.self_s[layer] += own
            if integrand:
                self.integrand_s[layer] += own
            if self._stack:
                self._stack[-1][2] += duration
            if len(self.spans) < self.max_spans:
                self.spans.append((self._op, span_id, parent, layer, name, start, end))
            else:
                self.spans_dropped += 1

    def _wrap(self, layer: str, name: str, fn, after=None):
        tracer = self
        key = f"{layer}.{name}"

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:  # outside an op: deck generation, warm-up
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            tracer.function_calls[key] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(layer, name, fn, args, kwargs, integrand=False)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_quadrature(self, fn):
        """adaptive_quad(f, ...): f becomes an integrand span of the caller's layer."""
        tracer = self
        traced = self._wrap("quadrature", fn.__name__, fn)

        def adaptive_quad(f, *args, **kwargs):
            if not tracer._stack:
                return fn(f, *args, **kwargs)
            caller = tracer._stack[-1][0]

            def integrand(x):
                tracer.counts["quadrature.evals"] += x.size
                return tracer._span(caller, "integrand", f, (x,), {}, integrand=True)

            return traced(integrand, *args, **kwargs)

        adaptive_quad.__wrapped__ = fn
        return adaptive_quad

    # ----------------------------------------------------------- counting hooks
    def _count_triangulations(self, result):
        self.counts["trees.triangulations"] += len(result)

    def _record_roots(self, result):
        self.counts["chy.roots"] += len(result)
        if result:
            worst = max(p.residual for p in result)
            self.extrema["chy.worst_residual"] = max(self.extrema.get("chy.worst_residual", 0.0), worst)
        coords = [p.coords for p in result]
        for i, a in enumerate(coords):
            for b in coords[i + 1 :]:
                sep = root_separation(a, b)
                self.extrema["chy.min_root_sep"] = min(self.extrema.get("chy.min_root_sep", math.inf), sep)

    # ---------------------------------------------------------------- patching
    def install(self):
        """Wrap every public callable of every posgeom module, in place."""
        package = sys.modules["posgeom"]
        modules = {name: sys.modules[f"posgeom.{name}"] for name in MODULES}
        hooks = {
            ("trees", "enumerate_triangulations"): self._count_triangulations,
            ("chy", "solve_scattering"): self._record_roots,
        }
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if (layer, name) == ("quadrature", "adaptive_quad"):
                        wrapped[id(obj)] = self._wrap_quadrature(obj)
                    else:
                        wrapped[id(obj)] = self._wrap(layer, name, obj, hooks.get((layer, name)))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for namespace in [vars(package), *(vars(m) for m in modules.values())]:
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    namespace[name] = wrapped[id(obj)]
                    self._restore.append((namespace, name, obj))

    def _wrap_class(self, layer: str, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                replacement = type(member)(self._wrap(layer, name, member.__func__))
            elif inspect.isfunction(member):
                replacement = self._wrap(layer, name, member)
            else:
                continue
            setattr(cls, attr, replacement)
            self._restore.append((cls, attr, member))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # ----------------------------------------------------------------- results
    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in MODULES:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out[f"{HARNESS}.self_s"] = self.self_s[HARNESS]
        out["gkz.integrand_s"] = self.integrand_s["gkz"]
        out["grassmann.cone_facets.calls"] = self.function_calls["grassmann.cone_facets"]
        for name in ("trees.triangulations", "chy.roots", "quadrature.evals"):
            out[name] = self.counts[name]
        out["chy.worst_residual"] = self.extrema.get("chy.worst_residual", 0.0)
        sep = self.extrema.get("chy.min_root_sep", math.inf)
        out["chy.min_root_sep"] = sep if math.isfinite(sep) else 0.0
        return out

    def write_spans(self, path: Path):
        """One JSON object per line: op, span, parent, layer, name, start, end."""
        keys = ("op", "span", "parent", "layer", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"spans_dropped": self.spans_dropped, "calls": dict(self.function_calls)}) + "\n")
