"""In-memory span recorder that wraps functions at their module attributes.

A traced call becomes a span: name, start, end, the span open when it was
called (its parent) and the request id current at the time. Counters for
the call (bytes, rows, ...) are attached to the span. Nothing is written
until the caller dumps `spans`; while no wrapper is installed the program
runs its own unwrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into SpanRecorder.spans
    request: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval that its children cover.

    Children are clipped to the parent's interval and overlaps between
    them are counted once.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Traced stand-in for `fn`; `count(args, kwargs, result)` gives counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), math.nan, self._open[-1] if self._open else None,
                        self.request)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        return [self_time(span, children[i]) for i, span in enumerate(self.spans)]

    def to_json(self) -> list[dict]:
        return [
            {**asdict(span), "self": st} for span, st in zip(self.spans, self.self_times())
        ]


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder, targets, namespaces):
    """Install a wrapper for each (name, owner, attr, count) target.

    The wrapper replaces the original object on its owner and on every
    namespace attribute bound to it, so callers that imported the name
    directly are traced too. Everything is restored on exit.
    """
    undo = []
    try:
        for name, owner, attr, count in targets:
            original = vars(owner)[attr]
            wrapped = recorder.wrap(name, original, count)
            for holder in (owner, *namespaces):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        undo.append((holder, key, original))
        yield recorder
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
