"""In-memory span recorder that wraps functions from outside the program.

A span is one call of a wrapped function: its layer name, start, end, the
index of the span that was open when it began (its parent, -1 for none) and
the id of the arrangement being worked on.  Spans are kept in a list and
written out once, at the end of a run.

Per layer the summary gives the number of calls, the inclusive time and the
self time.  Inclusive time counts only the outermost span of a layer on each
path, so a recursive layer (``refine_box`` recursing through number-field
parents) is not counted twice.  Self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Iterable

# one span: [name, start, end, parent, arrangement]
Span = list


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.arrangement: str | None = None
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             on_result: Callable | None = None) -> Callable:
        """A wrapper of fn that records one span per call.

        ``name`` is the layer name, or a function of the call's arguments
        that returns it.  ``on_result(args, result)`` runs after the span is
        closed, so the counting it does is not timed.
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([namer(*args) if namer else name, clock(), 0.0,
                          stack[-1] if stack else -1, self.arrangement])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, arrangement."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, arr in self.spans:
                out.write(json.dumps([name, start, end, parent, arr]) + "\n")


def read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as src:
        return [json.loads(line) for line in src]


def merge_spans(into: list[Span], spans: Iterable[Span],
                parent: int = -1, arrangement: str | None = None) -> None:
    """Append spans recorded by another process, re-basing parent indices and
    hanging their roots under ``parent``."""
    base = len(into)
    for name, start, end, par, arr in spans:
        into.append([name, start, end, base + par if par >= 0 else parent,
                     arr if arr is not None else arrangement])


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children, clipped to it.

    Parents must precede their children in the list, as they do when spans
    are recorded in start order.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _name, start, end, parent, _arr in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [(end - start) - _covered(children[i])
            for i, (_n, start, end, _p, _a) in enumerate(spans)]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, inclusive seconds (outermost spans only) and self
    seconds."""
    selfs = self_times(spans)
    # names of the open ancestors of each span, shared between spans
    ancestors: list[frozenset] = []
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _arr) in enumerate(spans):
        if parent >= 0:
            up = ancestors[parent]
            pname = spans[parent][0]
            mine = up if pname in up else up | {pname}
        else:
            mine = frozenset()
        ancestors.append(mine)
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if name not in mine:
            row["s"] += end - start
    return out
