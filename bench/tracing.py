"""Spans around the library's public functions, and the per-layer metrics.

The tracer wraps each function in TRACED from outside the library: it
replaces every binding of the function object in every fanramsey module, so
calls one layer makes into another are seen, not only the benchmark's own.
`Graph` is traced through its `__init__`. A span is
[name, start, end, parent span index or -1, job index, returned non-None].
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

TRACED = (
    "graphs.Graph", "graphs.complement", "graphs.induced", "graphs.graph6_decode",
    "graphs.write_coloring", "graphs.read_coloring",
    "matching.max_matching", "matching.edmonds_gallai",
    "matching.eg_neighborhood_structure",
    "bigraphic.realize_bigraphic", "bigraphic.realize_interval",
    "constructions.star_fan_lower", "constructions.star_fan_lower_special",
    "constructions.turan_lower",
    "fans.find_fan", "fans.high_degree_fan",
    "ramsey.verify_star_fan_witness", "ramsey.verify_fan_fan_witness",
    "ramsey.brute_force_ramsey",
    "cli.main",
)

SELF_TIMES = (
    "fans.find_fan", "fans.high_degree_fan", "graphs.complement",
    "ramsey.verify_fan_fan_witness", "ramsey.verify_star_fan_witness",
    "constructions.turan_lower", "bigraphic.realize_interval",
    "bigraphic.realize_bigraphic", "graphs.Graph", "graphs.induced",
    "graphs.write_coloring", "graphs.read_coloring", "cli.main",
    "graphs.graph6_decode", "matching.max_matching", "matching.edmonds_gallai",
    "matching.eg_neighborhood_structure",
)
CALLS = ("fans.find_fan", "graphs.Graph", "graphs.induced", "matching.max_matching")


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers again."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fanramsey" or name.startswith("fanramsey.")]
        for name in TRACED:
            module, attr = name.split(".")
            target = getattr(sys.modules[f"fanramsey.{module}"], attr)
            if isinstance(target, type):
                self._replace(target, "__init__", self._wrap(name, target.__init__))
                continue
            wrapper = self._wrap(name, target)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        self._replace(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _replace(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = result is not None
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return wrapper


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the trace documents of one traced run.

    Self time is a span's duration minus the durations of its direct child
    spans; children of one span never overlap, since each workload runs on
    a single thread.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    found = fallbacks = under_eg = 0
    serial = parallel = serial_twins = 0.0
    untraced = traced = 0.0
    for doc in docs:
        spans, jobs = doc["spans"], doc["jobs"]
        # each pair's serial time counts once for every parallel run of it
        twins = Counter(label for label, part in jobs if part == "parallel")
        covered = [0.0] * len(spans)
        for name, start, end, parent, job, some in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, job, some) in enumerate(spans):
            own = end - start - covered[i]
            calls[name] += 1
            self_s[name] += own
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "fans.find_fan":
                found += some
            elif name == "matching.max_matching":
                fallbacks += parent_name == "fans.find_fan"
                under_eg += parent_name == "matching.edmonds_gallai"
            elif name == "ramsey.brute_force_ramsey":
                label, part = jobs[job]
                if part == "serial":
                    serial += own
                    serial_twins += own * twins[label]
                else:
                    parallel += own
        untraced += doc["untraced_wall_s"]
        traced += doc["traced_wall_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.self_s": self_s[name] for name in SELF_TIMES}
    out["constructions.star_fan_lower.self_s"] = (
        self_s["constructions.star_fan_lower"]
        + self_s["constructions.star_fan_lower_special"])
    out.update({f"{name}.calls": calls[name] for name in CALLS})
    out["fans.find_fan.found_frac"] = ratio(found, calls["fans.find_fan"])
    out["fans.find_fan.blossom_fallbacks"] = fallbacks
    out["matching.max_matching.per_decomposition"] = ratio(
        under_eg, calls["matching.edmonds_gallai"])
    out["ramsey.brute_force_ramsey.serial_s"] = serial
    out["ramsey.brute_force_ramsey.parallel_s"] = parallel
    out["ramsey.parallel_speedup"] = ratio(serial_twins, parallel)
    out["trace.overhead_frac"] = ratio(traced, untraced) - 1.0
    return out
