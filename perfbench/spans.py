"""Spans for the traced run, plus the statistics the benchmark reports.

A `Tracer` swaps module attributes that callers look up at call time for
timing wrappers, keeps every span in memory, and puts the originals back in
`restore()`. Nothing here is imported by the program itself.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Observe = Callable[[dict, tuple, dict, Any], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, observe: Observe | None = None) -> None:
        """Replace `owner.attr` by a wrapper that records a span named `name`.
        `observe(attrs, args, kwargs, result)` runs after the span has ended,
        so what it computes is not timed."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(span.attrs, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._swapped.append((owner, attr, original))

    def restore(self) -> None:
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """The highest whole percentile with at least `beyond` of `n` samples
    above it, or None when not even the median has that many."""
    if n <= 0:
        return None
    p = math.floor(100.0 * (n - beyond) / n + 1e-9)
    return p if p >= 50 else None


def median(values: list[float]) -> float:
    return percentile(values, 50.0)
