"""Span tracer that wraps the public functions of every susyrabi layer.

It lives in the benchmark, not in the package: `install()` replaces each
public function of the layer modules, in every susyrabi module namespace
that holds a reference to it, with a wrapper that records a span (name,
thread, start, end, parent).  Spans are kept in memory; `summary()`
aggregates them into counts, busy time and self time per span name.

- busy_s sums the durations of a name's outermost spans across all threads.
- self_s sums each span's duration minus the time its child spans in the
  same thread cover.

The sweep thread pool (`spectral._map_ordered`, a private helper) is
wrapped too when present, so that each grid point gets its own
`spectral.point` span in the worker thread that solved it, parented to
the flow span of the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import Counter, defaultdict

LAYER_MODULES = ("fock", "linalg", "model", "spectral", "transforms", "output", "cli", "config")
POINT = "spectral.point"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _dim(args, kwargs, result):
    return {"dim": int(len(_arg(args, kwargs, 0, "a")))}


def _nbytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# Facts recorded per span, measured after the span has closed.
EXTRAS = {
    "linalg.hermitian_eigs": _dim,
    "linalg.kron": _nbytes,
    "output.emit_flow_csv": _file_bytes,
    "output.emit_flow_svg": _file_bytes,
}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "child_s", "extra")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.extra = None

    def has_ancestor(self, name):
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, fallback_parent=None) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else fallback_parent, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start
        self.spans.append(span)

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def _wrap_pool(self, map_ordered):
        @functools.wraps(map_ordered)
        def traced_map(fn, items):
            stack = self._stack()
            caller = stack[-1] if stack else None

            def point(item):
                span = self._open(POINT, fallback_parent=caller)
                try:
                    result = fn(item)
                finally:
                    self._close(span)
                span.extra = {"n_fock": int(getattr(result, "n_fock_used", 0))}
                return result

            return map_ordered(point, items)

        return traced_map

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever referenced."""
        replace: dict[int, tuple[object, object]] = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"susyrabi.{short}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    replace[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        spectral = sys.modules["susyrabi.spectral"]
        pool = getattr(spectral, "_map_ordered", None)
        if pool is not None:
            replace[id(pool)] = (pool, self._wrap_pool(pool))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "susyrabi" and not mod_name.startswith("susyrabi."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def summary(self) -> dict:
        """Per-name calls, busy_s, self_s, plus the extras and grid points."""
        names: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dims: Counter = Counter()
        nbytes: Counter = Counter()
        solves = 0
        points = []
        for span in self.spans:
            dur = span.end - span.start
            stat = names[span.name]
            stat["calls"] += 1
            stat["self_s"] += dur - span.child_s
            if not span.has_ancestor(span.name):
                stat["busy_s"] += dur
            if span.extra:
                if "dim" in span.extra:
                    dims[str(span.extra["dim"])] += 1
                if "bytes" in span.extra:
                    nbytes[span.name] += span.extra["bytes"]
            if span.name == "spectral.lowest_k" and span.has_ancestor(
                    "spectral.truncation_convergence"):
                solves += 1
            if span.name == POINT:
                points.append({"flow": id(span.parent), "s": dur, "thread": span.thread,
                               "n_fock": (span.extra or {}).get("n_fock", 0)})
        return {
            "names": dict(names),
            "eigs_calls_by_dim": dict(dims),
            "bytes": dict(nbytes),
            "convergence_solves": solves,
            "points": points,
        }
