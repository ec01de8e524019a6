"""Boundary tracing for the traced benchmark run.

The tracer wraps, from outside ``src/``, every function one ``kapteyn``
module imports from another, plus the module objects ``cli`` holds, so a
span opens each time control crosses a layer boundary.  The layers are the
package's working modules; ``errors``, ``__init__`` and ``__main__`` do no
work.  Wrappers exist only between ``install()`` and ``uninstall()``.

A span is ``(name, start_ns, end_ns, parent, item)``: ``parent`` is the
index of the enclosing span (-1 for a call made by the benchmark itself)
and ``item`` the id of the workload item being run.  Spans stay in memory
and are written out once, by ``write_spans``.  Counters are taken at the
same boundaries from the arguments and results that cross them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
import types

LAYERS = ("cli", "series", "coeffs", "bessel", "domain")
_PKG = "kapteyn"
_REFUSALS = ("DomainError", "ConvergenceError")

# how the per-pass aggregates of several processes combine
MAX_KEYS = ("coeffs.max_n", "domain.max_residual")


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    head, _, tail = mod.partition(".")
    return tail if head == _PKG and tail in LAYERS else None


class _ModuleProxy:
    """Stands in for a module object: its functions come back wrapped."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer
        self._cache = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if isinstance(value, types.FunctionType) and _layer_of(value):
            if name not in self._cache:
                self._cache[name] = self._tracer.wrap(value)
            return self._cache[name]
        return value


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.item = None
        self.counts = {"coeffs.max_n": 0, "coeffs.logabs_calls": 0, "coeffs.repeats": 0,
                       "bessel.terms": 0, "series.outer_terms": 0, "series.refused": 0,
                       "domain.iterations": 0, "domain.max_residual": 0.0}
        self._seen_nt: set = set()
        self._patched: list = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, layer: str | None = None):
        layer = layer or _layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        spans, stack, observe = self.spans, self._stack, self._observe
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item)
                if error in _REFUSALS and layer == "series":
                    self.counts["series.refused"] += 1
            observe(layer, fn.__name__, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, layer, fname, args, result):
        c = self.counts
        if layer == "coeffs":
            if args and isinstance(args[0], int):
                c["coeffs.max_n"] = max(c["coeffs.max_n"], args[0])
            if fname == "a_eval_logabs":
                c["coeffs.logabs_calls"] += 1
                key = (args[0], args[1])
                if key in self._seen_nt:
                    c["coeffs.repeats"] += 1
                else:
                    self._seen_nt.add(key)
        elif layer == "bessel":
            if isinstance(result, tuple) and len(result) == 3:
                c["bessel.terms"] += result[1]
            elif hasattr(result, "terms_used"):
                c["bessel.terms"] += result.terms_used
        elif layer == "series":
            if hasattr(result, "terms_used"):
                c["series.outer_terms"] += result.terms_used
        elif layer == "domain":
            if hasattr(result, "iterations"):
                c["domain.iterations"] += result.iterations
                c["domain.max_residual"] = max(c["domain.max_residual"], result.residual)

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"{_PKG}.{name}") for name in LAYERS}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType):
                    layer = _layer_of(value)
                    if layer and value.__module__ != mod.__name__:
                        self._patch(mod, attr, self.wrap(value, layer))
                elif isinstance(value, types.ModuleType) and value is not mod \
                        and value in modules.values():
                    self._patch(mod, attr, _ModuleProxy(value, self))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def aggregates(self) -> dict:
        """Per-layer calls and self time, plus the boundary counters."""
        # a deadline alarm landing inside a wrapper's bookkeeping leaves its span None
        spans = self.spans
        own = [s[2] - s[1] if s else 0 for s in spans]
        for s in spans:
            if s and s[3] >= 0 and spans[s[3]]:
                own[s[3]] -= s[2] - s[1]
        out = {f"{layer}.calls": 0 for layer in LAYERS}
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        for i, s in enumerate(spans):
            if s:
                layer = s[0].partition(".")[0]
                out[f"{layer}.calls"] += 1
                out[f"{layer}.self_s"] += own[i] / 1e9
        out.update(self.counts)
        return out

    def end_item(self) -> None:
        """Forget open spans an interrupted item left on the stack."""
        self._stack.clear()

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                if s:
                    fh.write(json.dumps(s))
                    fh.write("\n")


def combine(parts: list[dict]) -> dict:
    """Merge the aggregates of several traced processes of one pass."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key in MAX_KEYS:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(agg: dict) -> dict:
    """The per-layer metric values of one pass, from its combined aggregates."""
    calls = agg.get("coeffs.logabs_calls", 0)
    out = {k: v for k, v in agg.items() if k not in ("coeffs.logabs_calls", "coeffs.repeats")}
    out["coeffs.repeat_frac"] = agg.get("coeffs.repeats", 0) / calls if calls else 0.0
    return out
