"""In-memory spans around cnfscope's public functions, installed from outside.

A span is [name, start, end, parent, counts]: perf_counter seconds, the index
of the enclosing span (-1 for a root) and an optional dict of counters taken
at the same boundary. Wrappers replace a function under the name its caller
looks it up by (module attribute or class attribute), so the program's code
is never edited; `uninstall` puts the originals back.

perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes, so spans
recorded in a child process nest under the parent's span around it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        `name` is a span name or a function of the call's (args, kwargs)
        returning one; `counts(args, kwargs, result)` returns a dict of
        counters stored on the span.
        """
        raw = vars(owner)[attr]
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counts is not None:
                tracer.spans[idx][4] = counts(args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere, hanging their roots under `parent`."""
        base = len(self.spans)
        for name, start, end, par, counts in spans:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par, counts])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def subtree(spans: list[list], root: int) -> list[int]:
    """Indices of `root` and all its descendants (children follow parents)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out
