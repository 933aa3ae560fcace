"""Spans around calls into the program, kept in memory, written at exit.

A span is ``{id, parent, workload, layer, name, start_s, end_s, count}``:
``layer`` is the ``src/repro`` module the call goes into, ``count`` the
units of work the call covered (fields, tasks, contexts...).  Spans live
only in the benchmark's files — spans inside ``src/`` are ROADMAP item 2.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """An in-memory span list for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str, count: int = 1):
        """Time the body; nested spans record this one as their parent.
        Yields the span so the body can correct ``count``."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "layer": layer,
            "name": name,
            "start_s": None,
            "end_s": None,
            "count": count,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_s"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


def duration(span: dict) -> float:
    return span["end_s"] - span["start_s"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of that interval
    its child spans cover (children clipped to the parent and merged where
    they overlap, so the result is never negative)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start_s"]
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_s"]):
            lo = max(c["start_s"], cursor)
            hi = min(c["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = duration(s) - covered
    return out
