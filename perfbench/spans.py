"""Span tracing from outside the package, for the benchmark's traced runs.

:class:`Tracer` replaces each public function of the ``ssmc`` modules by a
wrapper, under every module name that holds it (``ssmc.data.is_generating_set``
and ``ssmc.theory.is_generating_set`` are one function reached through two
names), so calls made inside the package are seen too.  Each call records a
span ``(name, start, end, parent)`` in memory; the spans are written out once,
after the run.  Nothing inside the package is changed.
"""

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

MODULES = ("t_algebra", "kernels", "solver", "spectral", "theory", "data", "cli")

# counts taken from a traced function's return value
_RESULT_COUNTS = {
    "kernels.lloyd": ("kernels.lloyd_iters", lambda out: out[3]),
    "solver.solve_self_representation": ("solver.iterations", lambda out: out[1].iterations),
    "theory.theorem3_check": ("theory.subtensors_searched", lambda out: out.subtensors_searched),
}

# the solve's peak allocation is taken with tracemalloc, which numpy reports to
_ALLOC_SPAN = "solver.solve_self_representation"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.peak_alloc = 0.0
        self._stack = []
        self._patched = []

    def install(self):
        wrappers = {}
        modules = [importlib.import_module(m) for m in ("ssmc",) + tuple(f"ssmc.{m}" for m in MODULES)]
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                home = getattr(fn, "__module__", "") or ""
                if not home.startswith("ssmc."):
                    continue
                key = id(fn)
                if key not in wrappers:
                    wrappers[key] = self._wrap(fn, f"{home[len('ssmc.'):]}.{fn.__name__}")
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[key])

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        counted = _RESULT_COUNTS.get(name)
        alloc = name == _ALLOC_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            if alloc:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                    self.peak_alloc = max(self.peak_alloc, peak / 2**20)
            if counted is not None:
                self.counts[counted[0]] += counted[1](out)
            return out

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")

    def summary(self, lo, hi):
        """Per-name outermost time and call count, and per-layer self time, of spans lo..hi-1.

        A span nested inside a span of the same name (``jacobi_svd`` calls
        itself for wide matrices) adds neither time nor a call.  A layer's
        self time is its spans' duration minus the part their child spans
        cover.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= 0:
                child_time[parent] += end - start
        for index in range(lo, hi):
            name, start, end, parent = self.spans[index]
            layer = name.split(".", 1)[0]
            self_time[layer] += (end - start) - child_time[index]
            if not self._nested_in_same(index):
                total[name] += end - start
                calls[name] += 1
        return total, calls, self_time

    def _nested_in_same(self, index):
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
