"""Spans around the public functions of threebench's modules, recorded from
outside the package.

Modules bind shared helpers by name (``from .core import ...``), so a
function can live in several module namespaces at once.  ``Tracer.install``
rebinds the name in every module that holds the original function object,
and also replaces the original wherever a package function captured it as a
default argument (``threesum.match_boxes(report=report_dominating_pairs)``).
``uninstall`` restores everything.

A span records name, start, end, parent span and cell id, plus one count:
the ledger delta across the call, the return value, or the number of
dominating pairs.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import time
import types

from threebench import (cli, conv3sum, core, dominance, harness, ldt, threesum,
                        trimatrix)
import threebench

MODULES = (threebench, core, dominance, threesum, ldt, trimatrix, conv3sum,
           harness, cli)

# What a span counts besides time:
#   ledger    ticks the call adds to the ComparisonLedger it was given
#   sort      mergesort_tick_count: returned ticks, and whether tags were given
#   pairs     report_dominating_pairs: pairs reported, and reds x blues
#   catalog   cached_catalog: 1 when the catalog cache already held the entry
TARGETS = {
    "core.mergesort_tick_count": "sort",
    "core.merge_sort_counted": None,
    "core.sort_differences": "ledger",
    "core.sorted_counted": "ledger",
    "threesum.quadratic_tick_count": "ledger",
    "threesum.solve_decision_tree": "ledger",
    "threesum.ternary_search": None,
    "threesum.match_boxes": None,
    "threesum.solve_subquadratic": "ledger",
    "threesum.enumerate_legal_pairs": None,
    "threesum.cached_catalog": "catalog",
    "dominance.report_dominating_pairs": "pairs",
    "trimatrix.target_min_plus_dt": "ledger",
    "trimatrix.target_min_plus_sampled": "ledger",
    "trimatrix.target_min_plus_dominance": None,
    "trimatrix.build_sample_hierarchy": None,
    "trimatrix.zero_triangle_dense": "ledger",
    "trimatrix.zero_triangle_sparse": "ledger",
    "ldt.reduce_kldt": None,
    "ldt.solve_kldt": "ledger",
    "conv3sum.solve_conv_blocked": "ledger",
    "harness.generate": None,
    "harness.run_solver": "ledger",
}


class Span:
    __slots__ = ("name", "cell", "parent", "start", "end", "count", "extra")

    def __init__(self, name, cell, parent):
        self.name = name
        self.cell = cell
        self.parent = parent
        self.start = 0
        self.end = 0
        self.count = 0
        self.extra = 0


def _find_ledger(args, kwargs):
    for value in args:
        if isinstance(value, core.ComparisonLedger):
            return value
    for value in kwargs.values():
        if isinstance(value, core.ComparisonLedger):
            return value
    return None


class Tracer:
    """Records spans while ``active``; ``cell`` labels the spans it records."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.cell = ""
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, kind):
        tracer = self
        catalog_cache = threesum._catalog_cache

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            ledger = _find_ledger(args, kwargs) if kind == "ledger" else None
            before = ledger.total() if ledger is not None else len(catalog_cache)
            stack = tracer._stack
            span = Span(name, tracer.cell, stack[-1] if stack else -1)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if kind == "ledger":
                span.count = ledger.total() - before if ledger is not None else 0
            elif kind == "sort":
                span.count = result
                tags = args[1] if len(args) > 1 else kwargs.get("tags")
                span.extra = int(tags is not None)
            elif kind == "pairs":
                span.count = result
                reds = sum(1 for p in args[0] if p.color == dominance.RED)
                span.extra = reds * (len(args[0]) - reds)
            elif kind == "catalog":
                span.extra = int(len(catalog_cache) == before)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every namespace and default that holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for qualname, kind in TARGETS.items():
            mod_name, fn_name = qualname.split(".")
            original = getattr(getattr(threebench, mod_name), fn_name)
            wrapped[original] = self._wrap(qualname, original, kind)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if value in wrapped:
                    self._undo.append(functools.partial(setattr, module, attr, value))
                    setattr(module, attr, wrapped[value])
                defaults = value.__defaults__ or ()
                if any(isinstance(d, types.FunctionType) and d in wrapped for d in defaults):
                    self._undo.append(functools.partial(
                        setattr, value, "__defaults__", defaults))
                    value.__defaults__ = tuple(
                        wrapped.get(d, d) if isinstance(d, types.FunctionType) else d
                        for d in defaults)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,cell,parent,start_ns,end_ns,count,extra\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.cell},{s.parent},{s.start},{s.end},"
                         f"{s.count},{s.extra}\n")


def self_times(spans, lo: int, hi: int) -> list[int]:
    """Self time in ns of spans[lo:hi]: duration minus direct children's.

    Spans nest strictly (one thread), so direct children cover disjoint
    parts of their parent's interval.
    """
    out = [s.end - s.start for s in spans[lo:hi]]
    for i in range(lo, hi):
        p = spans[i].parent
        if p >= lo:
            out[p - lo] -= spans[i].end - spans[i].start
    return out
