"""Span recorder for the benchmark's traced runs.

The recorder wraps public so32cr functions from outside the package.  A
module-level function is replaced in every so32cr module namespace that
bound it, including names bound through ``from .x import y``; a method is
replaced on its class.  ``uninstall`` puts every original back.

Each wrapped call records a span (id, parent id, name, start, end) in memory.
A span's self time is its duration minus the time its direct child spans
cover, so time spent in unwrapped helpers counts towards the nearest wrapped
caller.  Gaussian-rational operations are only counted: a span per scalar
multiply would cost more than the multiply.

Cache hit ratios come from ``lru_cache.cache_info()`` of every cached
function defined in a module, counted only while the wrappers are installed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "so32cr"
MODULES = ("scalars", "linalg", "so32", "carriers", "cochains", "prolong",
           "tube", "coframe", "report", "cli")

# (module, function or Class.method, span name)
SPANS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "kernel_basis", "linalg.kernel"),
    ("linalg", "Subspace.__init__", "linalg.Subspace"),
    ("linalg", "Subspace.contains", "linalg.Subspace.contains"),
    ("linalg", "Matrix.scale", "linalg.Matrix.arith"),
    ("linalg", "Matrix.__add__", "linalg.Matrix.arith"),
    ("linalg", "Matrix.__sub__", "linalg.Matrix.arith"),
    ("linalg", "Matrix.__matmul__", "linalg.Matrix.arith"),
    ("linalg", "Matrix.apply", "linalg.Matrix.arith"),
    ("so32", "structure_constants", "so32.structure_constants"),
    ("so32", "bracket_coords", "so32.bracket_coords"),
    ("carriers", "gl_filtered", "carriers.gl_filtered"),
    ("carriers", "gl_graded", "carriers.gl_graded"),
    ("cochains", "coboundary_matrix", "cochains.coboundary_matrix"),
    ("cochains", "codifferential_matrix", "cochains.codifferential_matrix"),
    ("cochains", "kostant_pieces", "cochains.kostant_pieces"),
    ("cochains", "coboundary", "cochains.coboundary"),
    ("prolong", "normalize_ctorsion", "prolong.normalize_ctorsion"),
    ("prolong", "normalization_space", "prolong.normalization_space"),
    ("prolong", "gauge_image", "prolong.gauge_image"),
    ("prolong", "cochain_of_endo", "prolong.cochain_of_endo"),
    ("prolong", "prolong_step0", "prolong.prolong_step"),
    ("prolong", "prolong_step1", "prolong.prolong_step"),
    ("prolong", "prolong_step2", "prolong.prolong_step"),
    ("prolong", "prolong_step3", "prolong.prolong_step"),
    ("tube", "levi_form_at", "tube.levi_form_at"),
    ("tube", "cubic_form_at", "tube.cubic_form_at"),
    ("tube", "freeman_ranks_at", "tube.freeman_ranks_at"),
    ("tube", "Field.bracket", "tube.Field.bracket"),
    ("tube", "Poly.eval", "tube.Poly.eval"),
    ("coframe", "constraint_catalog", "coframe.constraint_catalog"),
    ("coframe", "verify_structure_equations",
     "coframe.verify_structure_equations"),
    ("coframe", "d_squared_report", "coframe.d_squared_report"),
    ("report", "Report.to_json", "report.Report.to_json"),
    ("cli", "run", "cli.run"),
)

# (module, Class.method, counter name); __radd__/__rmul__ are separate slots
COUNTERS = (
    ("scalars", "GQ.__mul__", "scalars.gq_mul"),
    ("scalars", "GQ.__rmul__", "scalars.gq_mul"),
    ("scalars", "GQ.__add__", "scalars.gq_add"),
    ("scalars", "GQ.__radd__", "scalars.gq_add"),
    ("scalars", "GQ.inverse", "scalars.gq_inverse"),
)

CACHED_MODULES = ("carriers", "cochains", "prolong")


def import_package():
    """Import every so32cr module; returns the import time in seconds."""
    t0 = time.perf_counter()
    for m in MODULES:
        importlib.import_module(f"{PACKAGE}.{m}")
    return time.perf_counter() - t0


def _cached_functions(module):
    return [v for v in vars(module).values()
            if hasattr(v, "cache_info") and v.__module__ == module.__name__]


def _cache_totals(module):
    hits = lookups = 0
    for f in _cached_functions(module):
        info = f.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits, lookups


class Tracer:
    """Installs span and counter wrappers; collects per-layer numbers."""

    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self.counts = defaultdict(int)
        self.rref_cells = 0
        self._stack = [0]
        self._next_id = 1
        self._patches = []       # (owner, attribute, original, wrapper)
        self._cache_start = {}
        self._cache = defaultdict(lambda: [0, 0])  # module -> [hits, lookups]

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] += 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _rref_cells(self, fn):
        def wrapper(m, *args, **kwargs):
            self.rref_cells += m.nrows * m.ncols
            return fn(m, *args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------
    def _plan(self, module, path, make):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[attr]
            self._patches.append((owner, attr, orig, make(orig)))
            return
        orig = getattr(mod, path)
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self._patches.append((m, attr, orig, new))

    def install(self):
        """Put the wrappers in place (planned on the first call)."""
        if not self._patches:
            import_package()
            for module, path, name in SPANS:
                cells = name == "linalg.rref"
                self._plan(module, path, lambda f, n=name, c=cells:
                           self._span(n, self._rref_cells(f) if c else f))
            for module, path, name in COUNTERS:
                self._plan(module, path, lambda f, n=name: self._counter(n, f))
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        for module in CACHED_MODULES:
            self._cache_start[module] = _cache_totals(
                sys.modules[f"{PACKAGE}.{module}"])

    def uninstall(self):
        """Restore the originals; cache lookups made from now on until the
        next ``install`` are not counted."""
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        for module, (h0, l0) in self._cache_start.items():
            h1, l1 = _cache_totals(sys.modules[f"{PACKAGE}.{module}"])
            acc = self._cache[module]
            acc[0] += h1 - h0
            acc[1] += l1 - l0
        self._cache_start.clear()

    # -- results ----------------------------------------------------------
    def summary(self) -> dict:
        """Plain-data totals, summable across processes (see ``merge``).
        Call it after ``uninstall``."""
        child_time = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
        spans = defaultdict(lambda: [0, 0.0])
        for sid, _, name, t0, t1 in self.spans:
            entry = spans[name]
            entry[0] += 1
            entry[1] += (t1 - t0) - child_time[sid]
        return {"spans": dict(spans), "counts": dict(self.counts),
                "rref_cells": self.rref_cells, "cache": dict(self._cache)}


def merge(summaries) -> dict:
    """Sum several ``Tracer.summary`` results (one per process)."""
    spans = defaultdict(lambda: [0, 0.0])
    counts = defaultdict(int)
    cache = defaultdict(lambda: [0, 0])
    cells = 0
    for s in summaries:
        for name, (calls, self_s) in s["spans"].items():
            spans[name][0] += calls
            spans[name][1] += self_s
        for name, n in s["counts"].items():
            counts[name] += n
        for module, (hits, lookups) in s["cache"].items():
            cache[module][0] += hits
            cache[module][1] += lookups
        cells += s["rref_cells"]
    return {"spans": dict(spans), "counts": dict(counts),
            "rref_cells": cells, "cache": dict(cache)}
