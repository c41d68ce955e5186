"""In-memory spans recorded around calls into the ffhyper layers.

A span has a name, a start and end from ``time.perf_counter``, the id of
the span that was open when it started (its parent) and the id of the
benchmark operation it belongs to (its parent's, unless given).  Spans
stay in memory until the run ends, when the benchmark writes
``Tracer.rows`` out as JSON.

Each workload writes its operation once, against a tracer: the traced
pass passes a ``Tracer`` and the untraced loop passes ``NULL``, whose
spans, notes and peaks do nothing.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager, nullcontext

_NOTHING = nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op]
        self.values = {}  # name -> values noted with note()
        self._stack = []

    @contextmanager
    def span(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent[5]
        rec = [len(self.spans), name, time.perf_counter(), None,
               parent[0] if parent else None, op]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def note(self, name, value):
        """Record a value that is not a time, e.g. a count or a size."""
        self.values.setdefault(name, []).append(value)

    @contextmanager
    def peak(self, name):
        """Note the tracemalloc peak (MB) of the enclosed block as ``name``."""
        tracemalloc.start()
        try:
            yield
        finally:
            self.note(name, tracemalloc.get_traced_memory()[1] / 2 ** 20)
            tracemalloc.stop()

    def self_times(self):
        """Duration of each span minus the time its child spans cover.

        Children of one parent run one after another inside it, so the
        covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for sid, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid]
                for sid, _name, start, end, _parent, _op in self.spans]

    def by_name(self):
        """name -> list of self times, in recording order."""
        out = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            out.setdefault(rec[1], []).append(self_s)
        return out

    def rows(self):
        """Every span as a dict, with its self time."""
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op, "self_s": s}
                for (sid, name, start, end, parent, op), s in zip(self.spans, self.self_times())]


class _NullTracer:
    enabled = False

    def span(self, name, op=None):
        return _NOTHING

    def note(self, name, value):
        pass

    def peak(self, name):
        return _NOTHING


NULL = _NullTracer()
