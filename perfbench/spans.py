"""In-memory spans around the public functions of the quivergauge modules.

``Tracer.install`` replaces every public function of the package, in every
module namespace that refers to it, with a wrapper that records a span
(name, start, end, parent span, job).  Calls between modules therefore
nest, and a layer's self time is its spans' durations minus their
children's.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

from stats import self_times

PACKAGE = "quivergauge"


class Span:
    __slots__ = ("id", "parent", "start", "end", "name", "job")

    def __init__(self, id, parent, start, name, job):
        self.id, self.parent, self.start, self.end = id, parent, start, start
        self.name, self.job = name, job

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, clock(), name, self.job)
            spans.append(span)
            stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, modules) -> None:
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(PACKAGE + ".")
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()


def layer_totals(spans) -> tuple[dict[str, float], Counter]:
    """Self time and call count per layer (module) over the given spans."""
    selfs = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in spans:
        seconds[s.layer] += selfs[s.id]
        calls[s.layer] += 1
    return dict(seconds), calls
