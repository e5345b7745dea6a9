"""In-memory span recording and the arithmetic done on recorded spans.

A span is one call into a layer: ``[name, start_ns, end_ns, parent, trace,
extra]``.  ``parent`` is the index of the enclosing span (-1 at the root),
``trace`` is the puzzle index or the training batch the call served, and
``extra`` holds a per-call count or flag set by the wrapper (the number of
candidates a ball yielded, whether refinement moved the seed, ...).

Timestamps come from ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux), the
same clock in every process, so a child can measure from the moment its
parent spawned it.  Spans are only kept in memory while the child runs and
are written out once, by :meth:`Tracer.dump`, when it ends.

This module has no third-party imports: the parent process and the tests
import it without numpy or the program under test.
"""

from __future__ import annotations

import functools
import json
import math
import time
import types

NAME, START, END, PARENT, TRACE, EXTRA = range(6)

# Standard percentiles, lowest first, for the tail rule below.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records nested spans for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace = None

    def begin(self, name: str, push: bool = True) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic_ns(), None, parent, self.trace, None])
        if push:
            self.stack.append(idx)
        return idx

    def end(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[END] = time.monotonic_ns()
        if extra is not None:
            span[EXTRA] = extra
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        elif idx in self.stack:
            self.stack.remove(idx)

    def dump(self, path) -> None:
        # A span never closed (a generator dropped before it ran) gets zero
        # length, so it adds nothing to any sum.
        for span in self.spans:
            if span[END] is None:
                span[END] = span[START]
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def wrap_call(tracer: Tracer, name: str, fn, on_result=None):
    """``fn`` wrapped in a span; ``on_result(args, kwargs, out)`` sets extra."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx)
            raise
        tracer.end(idx, on_result(args, kwargs, out) if on_result else None)
        return out

    return wrapper


def wrap_iter(tracer: Tracer, name: str, fn):
    """Like :func:`wrap_call`, but a generator's span covers its iteration.

    The span opens at the first ``next`` and closes when the generator is
    exhausted or closed; its extra is the number of items yielded.  It is a
    leaf: it is not pushed, because the consumer runs between items.  A
    result that is not a generator is timed as a plain call.
    """

    def traced(gen):
        idx = tracer.begin(name, push=False)
        count = 0
        try:
            for item in gen:
                count += 1
                yield item
        finally:
            tracer.end(idx, count)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.monotonic_ns()
        out = fn(*args, **kwargs)
        if isinstance(out, types.GeneratorType):
            return traced(out)
        idx = tracer.begin(name, push=False)
        tracer.spans[idx][START] = start
        tracer.end(idx, len(out) if hasattr(out, "__len__") else None)
        return out

    return wrapper


def merged_length(intervals) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append(end - start - merged_length(kids))
    return out


def percentile(sorted_values, p: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values) -> dict:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``{"value", "p", "n"}``.  With fewer than twenty samples no
    percentile qualifies; the median is returned with ``"p": 50`` and
    ``"short": True``.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = None
    for p in TAIL_LADDER:
        if n - math.ceil(round(p * n / 100.0, 9)) >= TAIL_MIN_BEYOND:
            chosen = p
    out = {"value": percentile(ordered, chosen or 50.0), "p": chosen or 50.0, "n": n}
    if chosen is None:
        out["short"] = True
    return out
