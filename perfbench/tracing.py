"""In-memory spans recorded by the benchmark around calls into paulimem.

A span has a name, a start and an end (time.perf_counter seconds, which is
CLOCK_MONOTONIC on Linux and so comparable across processes of one machine),
the index of its parent span, and the index of the operation it belongs to.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from statistics import median


class _Span:
    """Context manager that opens a span on entry and closes it on exit."""

    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.idx = len(t.spans)
        t.spans.append({"name": self.name, "start": time.perf_counter(), "end": None,
                        "parent": parent, "op": t.op_id})
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx]["end"] = time.perf_counter()
        t._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, start: float, end: float) -> int:
        """Record a span measured elsewhere (a child process) under the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "op": self.op_id}
        )
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration of each `name` span minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for idx, s in enumerate(self.spans):
            if s["name"] != name:
                continue
            covered, reach = 0.0, s["start"]
            for lo, hi in sorted(children.get(idx, [])):
                lo, hi = max(lo, reach), min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def median(self, name: str) -> float:
        return median(self.durations(name))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
