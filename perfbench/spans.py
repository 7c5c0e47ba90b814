"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): the time one call into a layer took and
the span that was open when it began. Spans are kept in memory while the
program runs and written out once at the end; self times are computed
afterwards, so the recording itself costs two clock reads and a few appends.

Spans are recorded from outside the program: `instrument` replaces the public
functions of a module with timing wrappers at their module attributes. Calls
that look a function up on its module, including calls inside that module,
then go through the wrapper; the program's source stays untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

Hook = Callable[[tuple, dict, object, dict], None]


class SpanRecorder:
    """Collects spans and named counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent span index or -1]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """Return fn wrapped in a span named `name`; `hook` sees each call's result."""
        name_id = self._name_id(name)
        spans, open_stack, clock = self.spans, self._open, time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, open_stack[-1] if open_stack else -1]
            open_stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return traced

    def instrument(
        self,
        module: ModuleType,
        layer: str,
        skip: frozenset[str] = frozenset(),
        hooks: dict[str, Hook] | None = None,
    ) -> list[str]:
        """Wrap every public function defined in `module`; returns the span names."""
        hooks = hooks or {}
        wrapped = []
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or attr in skip or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue  # imported from elsewhere; that module wraps it
            name = f"{layer}.{attr}"
            setattr(module, attr, self.wrap(name, value, hooks.get(name)))
            wrapped.append(name)
        return wrapped

    def dump(self, path: str | Path) -> None:
        payload = {"names": self.names, "spans": self.spans, "counters": self.counters}
        Path(path).write_text(json.dumps(payload))


def load(path: str | Path) -> tuple[list[tuple[str, float, float, int]], dict[str, float]]:
    """Read a dump back as (name, start, end, parent) tuples plus the counters."""
    payload = json.loads(Path(path).read_text())
    names = payload["names"]
    spans = [(names[n], start, end, parent) for n, start, end, parent in payload["spans"]]
    return spans, payload["counters"]


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Per span: its duration minus the part of its interval that child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_name, start, end, _parent), kids in zip(spans, children):
        covered, reach = 0.0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans, selfs: list[float]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total span time and total self time."""
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent), own in zip(spans, selfs):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return totals
