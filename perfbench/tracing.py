"""In-memory spans recorded from outside the library.

A span is recorded around each call the benchmark makes into a layer and,
for a traced pass, around library functions reached through a module
attribute (the library looks those names up at call time, so rebinding the
attribute from here intercepts its internal calls without editing it).
Spans carry a parent (the enclosing span on the same thread) and an
operation id (a grid point, a pair, a configuration or a CLI call); they
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    leg = None

    def op(self, op_id):
        return nullcontext()

    def span(self, name, size=None):
        return nullcontext()


class Tracer:
    """Collects (id, name, start, end, parent, op, size) spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leg: str | None = None  # set by the workload between its legs; read by every thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str):
        """Attribute spans opened on this thread to one operation."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    @contextmanager
    def span(self, name: str, size: int | None = None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        op = getattr(self._local, "op", None)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, op, size))

    def wrap(self, name: str, fn, size=None, op_of=None):
        """fn with a span around every call.

        size(*args) gives the work size stored on the span; op_of(*args)
        names the operation the call starts, for calls made on threads the
        benchmark does not control (a pool inside the library).
        """

        def traced(*args, **kwargs):
            if op_of is not None:
                self._local.op = op_of(*args, **kwargs)
            with self.span(name, size(*args, **kwargs) if size is not None else None):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """fn with a call counter and no span (for calls too nested to time)."""

        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    @contextmanager
    def patched(self, targets):
        """Rebind module attributes to traced wrappers for the duration.

        targets: (module, attribute, make_wrapper) triples, make_wrapper
        taking the current value.  An attribute the module no longer has is
        skipped, so its metrics read zero instead of breaking the run.
        """
        saved = []
        try:
            for module, attr, make in targets:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its direct children."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: (end - start) - covered[sid] for sid, _, start, end, _, _, _ in self.spans}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op, size in self.spans:
                record = {
                    "id": sid,
                    "name": name,
                    "start_s": start - self._origin,
                    "end_s": end - self._origin,
                    "parent": parent,
                    "op": op,
                    "size": size,
                }
                handle.write(json.dumps(record) + "\n")


class SpanTable:
    """Aggregates over a tracer's spans, optionally restricted by operation id."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.counts = dict(tracer.counts)
        self.self_s = tracer.self_times()

    def select(self, name: str, op_filter=None):
        return [
            span
            for span in self.spans
            if span[1] == name and (op_filter is None or (span[5] is not None and op_filter(span[5])))
        ]

    def calls(self, name: str, op_filter=None) -> int:
        return len(self.select(name, op_filter))

    def self_sum(self, name: str, op_filter=None) -> float:
        return sum(self.self_s[span[0]] for span in self.select(name, op_filter))

    def size_sum(self, name: str, op_filter=None) -> int:
        return sum(span[6] or 0 for span in self.select(name, op_filter))

    def op_walls(self, op_filter) -> dict[str, float]:
        """Per operation: first span start to last span end."""
        first: dict[str, float] = {}
        last: dict[str, float] = {}
        for _, _, start, end, _, op, _ in self.spans:
            if op is None or not op_filter(op):
                continue
            first[op] = min(first.get(op, start), start)
            last[op] = max(last.get(op, end), end)
        return {op: last[op] - first[op] for op in first}
