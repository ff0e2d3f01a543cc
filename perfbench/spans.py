"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``(id, parent, op, name, start, end)``.  Spans nest per thread:
the innermost open span of the calling thread is the parent, and a span
without an explicit op id inherits its parent's, so every span of one
benchmark op (a request, a registration, a batch) shares that op's id.
Spans stay in memory until :meth:`Tracer.dump` writes them out at exit.

Instrumentation wraps public callables only — instance attributes,
class attributes and module attributes — and :func:`patched` restores the
originals, so an untraced phase never runs through a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Tracer", "patched", "SETUP_OP"]

#: Op id of a phase's set-up; timed ops count up from 1.
SETUP_OP = 0


class Tracer:
    """Records spans from any number of threads.

    ``next()`` on an ``itertools.count`` and ``list.append`` are single
    C-level calls, so concurrent request threads can record without a
    lock; the per-thread parent stack lives in thread-local storage.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent_id, parent_op = stack[-1] if stack else (None, None)
        op = parent_op if op is None else op
        span_id = next(self._ids)
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent_id, op, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as a span called *name*."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def adopt(self, other: "Tracer") -> None:
        """Append another process's spans, renumbered past this tracer's
        ids.  ``perf_counter`` reads the system-wide monotonic clock on
        Linux, so both processes' spans share one timeline."""
        offset = max((span[0] for span in self.spans), default=0)
        self.spans.extend(
            (span_id + offset, None if parent is None else parent + offset,
             op, name, start, end)
            for span_id, parent, op, name, start, end in other.spans)
        self._ids = itertools.count(
            max((span[0] for span in self.spans), default=0) + 1)

    # -- analysis ------------------------------------------------------
    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover.
        Children run nested on their parent's thread, so they never
        overlap each other and their durations simply add up."""
        own = {span[0]: span[5] - span[4] for span in self.spans}
        for _, parent, _, _, start, end in self.spans:
            if parent in own:
                own[parent] -= end - start
        return own

    def per_op_ms(self, name: str, *, self_time: bool = False,
                  setup: bool = False) -> dict[int, float]:
        """Op id -> total milliseconds of the spans called *name* in that
        op (their self time with *self_time*), over the timed ops or,
        with *setup*, over the set-up op alone."""
        own = self.self_seconds() if self_time else None
        totals: dict[int, float] = {}
        for span_id, _, op, span_name, start, end in self.spans:
            if span_name != name or op is None or (op == SETUP_OP) != setup:
                continue
            seconds = own[span_id] if own is not None else end - start
            totals[op] = totals.get(op, 0.0) + seconds * 1000.0
        return totals

    def p50_ms(self, name: str, *, self_time: bool = False,
               setup: bool = False) -> float:
        """Median over ops of :meth:`per_op_ms` (0.0 when no op has such a
        span: the workload does not exercise that layer)."""
        values = list(self.per_op_ms(name, self_time=self_time,
                                     setup=setup).values())
        return statistics.median(values) if values else 0.0

    def self_time_table(self) -> dict[str, float]:
        """Span name -> median self milliseconds per timed op."""
        names = sorted({span[3] for span in self.spans
                        if span[2] is not None and span[2] != SETUP_OP})
        return {name: self.p50_ms(name, self_time=True) for name in names}

    def dump(self, path: Any) -> None:
        """Write every span as one JSON line, self time included."""
        own = self.self_seconds()
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                    "self_ms": own[span_id] * 1000.0}) + "\n")

    @classmethod
    def read(cls, path: Any) -> "Tracer":
        """A tracer holding the spans :meth:`dump` wrote to *path*."""
        tracer = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                tracer.spans.append((record["id"], record["parent"],
                                     record["op"], record["name"],
                                     record["start"], record["end"]))
        return tracer


@contextlib.contextmanager
def patched(tracer: Tracer,
            targets: Iterable[tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span called *name* for each
    ``(owner, attr, name)`` while the block runs.

    *owner* may be a module, a class (plain functions and classmethods
    both keep their binding) or an instance.
    """
    restore: list[tuple[Any, str, Any, bool]] = []
    try:
        for owner, attr, name in targets:
            own_attr = attr in vars(owner)
            original = vars(owner)[attr] if own_attr else getattr(owner,
                                                                  attr)
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    tracer.wrap(name, original.__func__))
            else:
                replacement = tracer.wrap(name, original)
            setattr(owner, attr, replacement)
            restore.append((owner, attr, original, own_attr))
        yield
    finally:
        for owner, attr, original, own_attr in reversed(restore):
            if own_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
