"""Span tracing of the serieslab layers, installed from outside the package.

``Tracer.install`` rebinds every public function of each serieslab module,
plus the three methods below, to a wrapper that records a span.  A function
re-imported elsewhere with ``from .x import f`` is rebound under every name
it has, so nested calls such as ``run_scenario`` -> ``reference_integrate``
are seen.  Wrappers record only while ``active`` is set, so the benchmark's
own checks stay out of the trace.

A span is (name, start, end, parent span, op id).  Self time is a span's
duration minus the time its child spans cover.  Aggregates cover every
span; the raw spans kept for ``write_spans`` stop at ``MAX_SPANS``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import scipy.integrate

import serieslab
from serieslab import models, report, svgplot

MODULES = ("models", "series", "convergence", "exact", "integrators",
           "figures", "scenario", "cli", "report", "csvout", "svgplot")

METHODS = (
    (models.PolynomialVectorField, "evaluate", "models.evaluate"),
    (svgplot.LinePlot, "write", "svgplot.LinePlot.write"),
    (report.ComparisonReport, "write", "report.ComparisonReport.write"),
)

#: writers whose returned path's size is added to ``<name>.bytes``
BYTE_COUNTED = ("csvout.write_csv", "svgplot.LinePlot.write")

#: raw spans kept for ``write_spans``; later spans still count in the stats
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.spans = []     # (name, start, end, parent index, op id)
        self._stack = []    # [child time, span index, name] per open span
        self._originals = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Rebind the package's public functions and the traced methods."""
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"serieslab.{short}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        modules = [serieslab] + [sys.modules[f"serieslab.{m}"] for m in MODULES]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(module, attr, wrapped[value])
        for cls, attr, name in METHODS:
            self._rebind(cls, attr, self._wrap(name, getattr(cls, attr)))
        # every reference solve reaches scipy, including the direct ones in
        # figures.lv_orbit_period; count them without opening a span, so
        # scipy's own time stays in the caller's self time
        counted = self._count("scipy.solve_ivp", scipy.integrate.solve_ivp)
        self._rebind(scipy.integrate, "solve_ivp", counted)
        self._rebind(sys.modules["serieslab.integrators"], "solve_ivp", counted)

    def uninstall(self):
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def _rebind(self, owner, attr, value):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counter(*args, **kwargs):
            if self.active:
                self.stats[name][0] += 1
            return fn(*args, **kwargs)
        return counter

    def _after(self, name):
        """What a wrapper records from a finished call besides its span."""
        if name in BYTE_COUNTED:
            def add_bytes(result):
                self.counts[name + ".bytes"] += os.path.getsize(result)
            return add_bytes
        if name == "integrators.multistage_taylor":
            def add_stages(result):
                self.counts[name + ".stages"] += result.times.size - 1
            return add_stages
        if name == "models.evaluate":
            def add_reference_eval(result):
                if any(f[2] == "integrators.reference_integrate"
                       for f in self._stack):
                    self.counts["models.evaluate.in_reference"] += 1
            return add_reference_eval
        return None

    def _wrap(self, name, fn):
        stats = self.stats[name]
        after = self._after(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            if index < MAX_SPANS:
                spans.append(None)
            else:
                index = -1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, index, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- output ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total(self, name: str) -> float:
        return self.stats[name][1]

    def self_time(self, name: str) -> float:
        """Self time of one span name, or of every span of a module when
        ``name`` has no function part (``"exact"``)."""
        if "." in name:
            return self.stats[name][2]
        return sum(s[2] for k, s in self.stats.items()
                   if k.startswith(name + "."))

    def write_spans(self, path: Path, origin: float):
        """Tab-separated spans, times in seconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top_id\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start - origin:.9f}\t"
                          f"{end - origin:.9f}\t{parent}\t{op}\n")
