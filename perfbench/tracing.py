"""In-memory spans for the benchmark's traced run.

A span is recorded by wrapping a module-level name (``zeiger.protocol.reveal_row``,
``zeiger.audit.run_protocol`` ...) for the duration of a ``Tracer.patched``
block; every wrapper is restored when the block exits, also on error.  Spans
are kept in parallel arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

# A span with one of these names starts a new run (one protocol run, one
# simulated transcript or one solve); the spans inside it carry its index.
RUN_SPANS = frozenset({"protocol.run_protocol", "simulator.simulate_transcript", "solver.solve"})


class Target(NamedTuple):
    """One module-level name to wrap while tracing."""

    module: object
    attr: str
    span: str


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")   # index of the enclosing span, -1 at top level
        self.run = array("q")      # index of the enclosing run span, or -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if name in RUN_SPANS:
            run = i
        else:
            run = self.run[parent] if parent >= 0 else -1
        self.names.append(name)
        self.parent.append(parent)
        self.run.append(run)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: list[Target]):
        """Wrap every target that exists; a name missing from its module
        yields no span.  All originals are put back on exit."""
        saved = []
        try:
            for t in targets:
                fn = getattr(t.module, t.attr, None)
                if fn is None:
                    continue
                saved.append((t.module, t.attr, fn))
                setattr(t.module, t.attr, self.wrap(t.span, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time, number of spans).  Self time is a
        span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, t in zip(self.names, own):
            totals[name][0] += t
            totals[name][1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def total_time(self, name: str) -> float:
        return sum(e - s for n, s, e in zip(self.names, self.start, self.end) if n == name)

    def write(self, path) -> None:
        """One JSON object: the span names and one [name, start, end, parent,
        run] row per span, times in seconds from the first span."""
        index = {name: k for k, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as out:
            out.write('{"names": %s, "spans": [' % json.dumps(list(index)))
            for i, name in enumerate(self.names):
                sep = "," if i else ""
                out.write(
                    f"{sep}\n[{index[name]},{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                    f"{self.parent[i]},{self.run[i]}]"
                )
            out.write("\n]}\n")
