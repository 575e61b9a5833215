"""Spans around the public functions of each curvehull module, from outside.

`Tracer.install` replaces each wrapped function in every curvehull module
that binds it by name (the CLI imports most of them with `from ... import`),
so calls made through any module are seen. Spans nest; a span's self time is
its duration minus the durations of its direct children. Spans stay in
memory until the run writes them out. Recording assumes one thread calls
the wrapped functions; the CLI's worker threads call none of them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def _curve_n(a, r):
    return a["curve"].n, {}


def _hull_volume(a, r):
    # the half-resolution error estimate sums over every second sample
    half = (r.n // 2) ** 2 if r.error_estimate is not None else 0
    return r.n, {"pairs": r.n**2 + half}


def _estimate(a, r):
    n = a["curve"].n
    return n, {"pairs_scanned": n * (n - 1) // 2}


def _build_hull(a, r):
    return len(r.points), {"points": len(r.points), "facets": r.n_facets}


def _signed_distance(a, r):
    queries = np.asarray(a["p"]).size // 3
    return queries, {"plane_evals": queries * len(a["mesh"].normals)}


# "module.function" -> f(bound arguments, result) -> (n of the call, work counters).
# The counters are computed from arguments and results, not measured inside.
WRAPPED: dict = {
    "cli.main": lambda a, r: (None, {}),
    "cli.load_polyline": lambda a, r: (r.n, {"points": r.n}),
    "curves.sample_uniform": lambda a, r: (r.n, {"points": r.n}),
    "curves.frenet_profile": lambda a, r: (a["n"], {}),
    "curves.discrete_frenet_profile": _curve_n,
    "curves.count_vertices": lambda a, r: (a["profile"].n, {}),
    "curves.planarity_check": _curve_n,
    "curves.is_convex_curve": _curve_n,
    "quadrature.hull_volume": _hull_volume,
    "quadrature.tetra_volume_matrix": lambda a, r: (len(r), {"cells": r.size}),
    "quadrature.estimate_covering_multiplicity": _estimate,
    "hull.build_hull": _build_hull,
    "hull.mesh_volume": lambda a, r: (len(a["mesh"].points), {}),
    "hull.signed_distance": _signed_distance,
    "hull.support_polygons": lambda a, r: (len(a["mesh"].points), {}),
}
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in WRAPPED))  # the modules


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[str] = None
    n: Optional[int] = None
    counters: dict = field(default_factory=dict)
    child_s: float = 0.0  # summed durations of direct children

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Records nested spans of the wrapped calls while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.op: Optional[str] = None  # label attached to new spans
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn: Callable, describe=None) -> Callable:
        """fn wrapped so that each call records a span."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, op=self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.total_s
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.n, span.counters = describe(bound.arguments, result)
            return result

        return wrapper

    def install(self, package: str = "curvehull") -> None:
        """Wrap every function in WRAPPED wherever a package module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, describe in WRAPPED.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"{package}.{module}"], attr)
            wrapper = self.wrap(name, original, describe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def _inside_same_name(spans, s) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].name == s.name:
            return True
        p = spans[p].parent
    return False


def aggregate(spans, op: Optional[str] = None) -> dict:
    """Per function: calls, total_s, self_s and summed counters.

    op limits the sum to spans of that op. total_s counts a recursive call
    once, at its outermost span.
    """
    out: dict = {}
    for s in spans:
        if op is not None and s.op != op:
            continue
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})
        row["calls"] += 1
        if not _inside_same_name(spans, s):
            row["total_s"] += s.total_s
        row["self_s"] += s.self_s
        for k, v in s.counters.items():
            row["counters"][k] = row["counters"].get(k, 0) + v
    return out
