"""In-memory span recorder that wraps library callables from outside.

A span is (name, start, end, parent, attrs).  ``Tracer.patch`` replaces a
module attribute, class attribute or dict entry with a wrapper that records
a span around each call; ``Tracer.restore`` puts every original back.  The
library itself is not modified.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str | Callable, fn: Callable,
             attrs: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``name`` may be a function of the call's arguments; ``attrs`` maps
        (args, kwargs, result) to the value kept on the span.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str | Callable,
              attrs: Callable | None = None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, attrs)
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, attrs))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The traced program is single-threaded, so children never overlap and
    their summed durations are the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def ancestors(spans: list[Span], index: int):
    """Names of the spans enclosing span ``index``, innermost first."""
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed duration and summed self time."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += own
    return out
