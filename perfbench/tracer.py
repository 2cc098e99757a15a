"""Span tracer that wraps the package's public functions from outside.

A wrapped function records one span per call: its name, start, end and
the span that was open when it was called.  Spans stay in memory until
the run ends.  A layer's self time is its span's duration minus the
durations of its direct children.

Counters derived from arguments or results (rows, shares of zeros,
front sizes) are computed in ``after`` hooks.  Hook time is subtracted
from every span that is open while the hook runs, so the per-layer times
exclude the tracer's own bookkeeping.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, paused]
        self.stack: list[int] = []
        self.counters: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._paused = 0.0             # total hook time so far
        self._patched: list = []

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in hooks so far."""
        return time.perf_counter() - self._paused

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name: str, fn, after=None, on_error=None):
        """Wrap ``fn`` in a span; the ``after`` hook runs untimed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer._paused]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                span[4] = tracer._paused - span[4]
                if on_error is not None:
                    tracer._hook(on_error, exc)
                raise
            span[2] = time.perf_counter()
            tracer.stack.pop()
            span[4] = tracer._paused - span[4]
            if after is not None:
                tracer._hook(after, args, kwargs, result)
            return result

        return traced

    def _hook(self, hook, *args) -> None:
        start = time.perf_counter()
        try:
            hook(*args)
        finally:
            self._paused += time.perf_counter() - start

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by its traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_times(self) -> dict:
        """Per span name: calls, busy seconds and self seconds."""
        durations = [end - start - paused
                     for _, start, end, _, paused in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += durations[i]
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0})
        for i, span in enumerate(self.spans):
            agg = out[span[0]]
            agg["calls"] += 1
            agg["busy_s"] += durations[i]
            agg["self_s"] += durations[i] - child[i]
        return out
