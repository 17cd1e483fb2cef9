"""Outside-in span tracing for the benchmark's traced run.

A ``Tracer`` replaces functions at the module bindings the pipeline calls
them through (for example ``mphp.metrics.build_precoders``, the name that
``monte_carlo_rates`` looks up) with wrappers that record one span per
call, and restores the originals on exit.  Nothing in the traced package
changes on disk, and nothing is patched outside the ``with`` block.

Spans stay in memory as ``[name, parent, start, end]`` lists until
``summary`` folds them into per-function calls, total seconds and self
seconds, where self time is a span's duration minus the durations of the
spans it directly caused.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterable

# An observer sees each call's (args, kwargs, result) after its span closes.
Observer = Callable[[tuple, dict, object], None]


class Tracer:
    """Patch ``(module, attribute, span name)`` targets for one ``with`` block."""

    def __init__(self, targets: Iterable[tuple[object, str, str]], observers: dict[str, Observer] | None = None):
        self._targets = list(targets)
        self._observers = dict(observers or {})
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []

    def __enter__(self) -> "Tracer":
        for module, attribute, name in self._targets:
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        observer = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of its own (for the benchmark's root calls)."""
        return self._wrap(fn, name)(*args, **kwargs)


def summary(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total seconds ``s`` and ``self_s``."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, parent, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return out
