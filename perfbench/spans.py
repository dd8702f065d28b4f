"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer of ``src/repro`` (spans inside the program are a later
issue).  Each span has a name, start, end, the span that caused it and
the id of the op it belongs to, plus whatever counts were taken at the
same boundary.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "index")

    def __init__(self, name: str, parent: Optional["Span"], op: Any, index: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.index = index
        self.counts: Dict[str, float] = {}
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: id shared by every span of the op in flight ("setup", 0, 1, ...)
        self.op: Any = "setup"

    @contextlib.contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.op, len(self.spans))
        span.counts.update(counts)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- queries -----------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def median_seconds(self, name: str) -> float:
        """Median host seconds per call of span *name*; 0 if never entered.

        A span that wraps a loop of calls carries their number as ``calls``.
        """
        spans = self.named(name)
        if not spans:
            return 0.0
        return statistics.median(s.seconds / s.counts.get("calls", 1) for s in spans)

    def rate(self, name: str, count: str) -> float:
        """Sum of *count* over all *name* spans per host second inside them."""
        spans = self.named(name)
        seconds = sum(s.seconds for s in spans)
        return sum(s.counts.get(count, 0) for s in spans) / seconds if seconds else 0.0

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent.index] -= s.seconds
        return own

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        own = self.self_seconds()
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {"id": s.index, "name": s.name, "op": s.op,
             "parent": None if s.parent is None else s.parent.index,
             "start_s": s.start - t0, "end_s": s.end - t0, "self_s": own[s.index],
             "counts": s.counts}
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(dict(header, spans=rows), handle, indent=1)
