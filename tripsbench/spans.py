"""In-memory spans for the traced run.

The benchmark records one span around each call it makes into a layer:
name, start, end, parent span and any counts the call produced. Spans
stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time


def untraced(name: str):
    """The ``Tracer.span`` signature, recording nothing."""
    return contextlib.nullcontext({})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields a dict for the span's counts."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Median duration of the spans called ``name``."""
        return statistics.median(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def count(self, name: str, key: str):
        """Count ``key`` of the last span called ``name``."""
        return [s for s in self.spans if s["name"] == name][-1]["counts"][key]

    def write(self, path, **extra) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans}, f, indent=1)
