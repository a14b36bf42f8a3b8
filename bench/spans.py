"""Outside-in span recorder for the traced benchmark run.

Spans are recorded by wrapping module attributes of the package from the
benchmark's own code; nothing under ``src/`` is edited.  A wrapped call
opens a span on entry and closes it on exit.  A span's self time is its
duration minus the durations of the spans opened inside it, so the self
times of all layers plus the time outside any span add up to the wall time.

Only aggregates are kept in memory: per span name the call count, the
inclusive time (outermost occurrence only) and the self time.
"""

from __future__ import annotations

import time


class Tracer:
    """Aggregating span recorder with an injectable clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []      # [name, start, child time]
        self.stats: dict[str, list] = {}  # name -> [calls, total, self]
        self.covered = 0.0               # time inside top-level spans
        self.counters: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dur - child
        if not self.active(name):
            st[1] += dur
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.covered += dur

    def active(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return any(frame[0] == name for frame in self.stack)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(args, result)`` runs after it,
        outside the span, to record counts taken from arguments or results."""
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_return is not None:
                on_return(args, result)
            return result
        return traced


class Patches:
    """Module attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
