"""In-memory spans recorded around mmtrack's public functions.

``Tracer.patched`` swaps module attributes (``mmtrack.ftcnd.solve``,
``mmtrack.dynamics.dynamics_terms``, ...) for timing wrappers and puts
the originals back on exit.  Because the program calls these functions
through their module (``ftcnd.solve(...)``, ``kin.forward_kinematics``)
or as module globals, the wrappers see every call, including nested
ones such as ``forward_dynamics`` -> ``dynamics_terms``.  Nothing in the
program is edited.

A span is a name, a start, an end, the index of its parent span and a
run label; spans of one episode (or one QP pass) share the label.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the tracer's span list, -1 for a root
    run: str
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; written out only when asked."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        self._stack.pop()
        span.end = time.perf_counter()

    @contextlib.contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, attrs=None):
        """Wrapper recording one span per call of ``fn``; ``attrs(args,
        kwargs, result)`` may attach facts read from the result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, span name, attrs)``
        targets; a target the program no longer has is reported on
        stderr and skipped, so its layer reads as idle."""
        saved = []
        try:
            for owner, attr, name, attrs in targets:
                fn = getattr(owner, attr, None)
                if fn is None:
                    print(f"perfbench: {owner.__name__}.{attr} not found; "
                          f"{name} is not traced", file=sys.stderr)
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def of_run(self, run) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.run == run]

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run, "attrs": s.attrs}) + "\n")


def covered_time(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [s.duration - covered_time(
                s.start, s.end,
                [(spans[c].start, spans[c].end) for c in children[i]])
            for i, s in enumerate(spans)]


def busy_time(spans: list[Span], indices, layer: str) -> float:
    """Time some span of ``layer`` was open: the summed durations of the
    layer's outermost spans among ``indices``."""
    total = 0.0
    for i in indices:
        s = spans[i]
        if s.layer != layer:
            continue
        p = s.parent
        while p >= 0 and spans[p].layer != layer:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total
