"""Span recording around the package's public functions, from outside.

`Recorder.instrument()` replaces each function in WRAPPED by a wrapper in
the module that looks it up at call time, so the CLI pipeline calls the
wrappers without any change to the package.  Spans (name, start, end,
parent) stay in memory until the run writes them out.  Counts are
taken from return values (`counts`) or derived from the inputs (`computed`).
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute, span name).  A function appears once per module that
# looks it up: robustness calls local_bound on its own.
WRAPPED = (
    ("cli", "parse_file", "model.parse_file"),
    ("cli", "analyze_tables", "analysis.analyze_tables"),
    ("cli", "group_equivalent", "analysis.group_equivalent"),
    ("cli", "to_csv", "analysis.render"),
    ("cli", "detect_lifting", "localpoly.detect_lifting"),
    ("analysis", "analyze_table", "analysis.analyze_table"),
    ("analysis", "local_bound", "localpoly.local_bound"),
    ("analysis", "white_noise_value", "localpoly.white_noise_value"),
    ("analysis", "facet_check", "localpoly.facet_check"),
    ("analysis", "detect_lifting", "localpoly.detect_lifting"),
    ("analysis", "correlation_form", "symmetry.correlation_form"),
    ("analysis", "quantum_bound", None),  # named by fix_theta, see _quantum_name
    ("analysis", "noise_resistance", "robustness.noise_resistance"),
    ("analysis", "detection_threshold", "robustness.detection_threshold"),
    ("analysis", "canonical_form", "symmetry.canonical_form"),
    ("robustness", "local_bound", "localpoly.local_bound"),
    ("robustness", "white_noise_value", "localpoly.white_noise_value"),
)

# Per-layer metrics: (metric, kind, span or count name).  "s" sums span
# durations, "self_s" sums durations minus child spans, "count" sums a count.
LAYER_METRICS = (
    ("model.parse_file.s", "s", "model.parse_file"),
    ("cli.main.self_s", "self_s", "cli.main"),
    ("analysis.analyze_table.self_s", "self_s", "analysis.analyze_table"),
    ("analysis.render.s", "s", "analysis.render"),
    ("analysis.group_equivalent.self_s", "self_s", "analysis.group_equivalent"),
    ("localpoly.local_bound.s", "s", "localpoly.local_bound"),
    ("localpoly.local_bound.calls", "calls", "localpoly.local_bound"),
    ("localpoly.facet_check.s", "s", "localpoly.facet_check"),
    ("localpoly.facet_check.saturating", "count", "localpoly.facet_check.saturating"),
    ("quantum.bound_free.s", "s", "quantum.bound_free"),
    ("quantum.bound_pi4.s", "s", "quantum.bound_pi4"),
    ("quantum.unconverged", "count", "quantum.unconverged"),
    ("robustness.noise_resistance.self_s", "self_s", "robustness.noise_resistance"),
    ("robustness.detection_threshold.self_s", "self_s", "robustness.detection_threshold"),
    ("robustness.assignments", "count", "robustness.assignments"),
    ("symmetry.correlation_form.s", "s", "symmetry.correlation_form"),
    ("symmetry.correlation_form.hits", "count", "symmetry.correlation_form.hits"),
    ("symmetry.canonical_form.s", "s", "symmetry.canonical_form"),
    ("symmetry.orbit", "count", "symmetry.orbit"),
)

_VIOLATION_TOL = 1e-9  # the package's margin for "Q above L"


def _quantum_name(args, kwargs) -> str:
    return "quantum.bound_free" if kwargs.get("fix_theta") is None else "quantum.bound_pi4"


def _counts(name: str, args, kwargs, result) -> dict[str, int]:
    """Counts read from a return value, or computed from the inputs."""
    if name == "localpoly.facet_check":
        return {"localpoly.facet_check.saturating": max(result.saturating_count - 1, 0)}
    if name.startswith("quantum.bound"):
        return {"quantum.unconverged": int(not result.converged)}
    if name == "symmetry.correlation_form":
        return {"symmetry.correlation_form.hits": int(result is not None)}
    table = args[0] if args else None
    if name == "robustness.detection_threshold":
        q_me = args[1] if len(args) > 1 else kwargs["q_me"]
        na, nb = table.scenario.na, table.scenario.nb
        violating = q_me > table.bound + _VIOLATION_TOL
        return {"robustness.assignments": 2 ** (na + nb) if violating else 0}
    if name == "symmetry.canonical_form":
        na, nb = table.scenario.na, table.scenario.nb
        orbit = 2 ** (na + nb) * math.factorial(na) * math.factorial(nb) * (2 if na == nb else 1)
        return {"symmetry.orbit": orbit}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counts: list[tuple[int, str, int]] = field(default_factory=list)  # (span, name, n)
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, 0.0, parent=parent)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.end - span.start
        for count, n in _counts(name, args, kwargs, result).items():
            self.counts.append((index, count, n))
        return result

    def _wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            span = name or _quantum_name(args, kwargs)
            return self.call(span, fn, *args, **kwargs)

        return wrapper

    @contextmanager
    def instrument(self, package):
        """Wrap every function in WRAPPED while the block runs; restore the originals after."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = getattr(package, module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def metrics(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-layer metrics over spans[first:last] (one pass)."""
        last = len(self.spans) if last is None else last
        totals = {metric: 0.0 if kind in ("s", "self_s") else 0 for metric, kind, _ in LAYER_METRICS}
        by_span = {}
        for metric, kind, key in LAYER_METRICS:
            by_span.setdefault(key, []).append((metric, kind))
        for span in self.spans[first:last]:
            for metric, kind in by_span.get(span.name, ()):
                duration = span.end - span.start
                totals[metric] += {"s": duration, "self_s": duration - span.child_s,
                                   "calls": 1}[kind]
        for index, count, n in self.counts:
            if first <= index < last:
                for metric, _ in by_span.get(count, ()):
                    totals[metric] += n
        return totals

    def write(self, path, passes: list[tuple[int, int]]) -> None:
        """One JSON line per span, with its pass number and counts."""
        counts = {}
        for index, name, n in self.counts:
            counts.setdefault(index, {})[name] = n
        with open(path, "w", encoding="utf-8") as out:
            for number, (first, last) in enumerate(passes, start=1):
                for index in range(first, last):
                    s = self.spans[index]
                    out.write(json.dumps({
                        "pass": number, "id": index, "name": s.name, "start": s.start,
                        "end": s.end, "parent": s.parent,
                        **({"counts": counts[index]} if index in counts else {}),
                    }) + "\n")


def summarize(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes; counts repeat exactly, so their median is one of them."""
    return {metric: (statistics.median if kind in ("s", "self_s") else statistics.median_low)(
                [p[metric] for p in per_pass])
            for metric, kind, _ in LAYER_METRICS}
