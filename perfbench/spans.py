"""In-memory span recorder for the traced benchmark run.

Each span is one call into a layer's public API, made from the
benchmark's own files: a name, a start, an end and the span that was
open when it began (its parent).  Spans stay in memory and are written
out once, when the run ends.  A span's *self time* is its duration
minus the part of that interval its child spans cover, so nested layer
calls are never counted twice.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(Span(self.name, tracer.clock(), 0.0, parent))
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc_info):
        tracer = self.tracer
        tracer.spans[self.index].end = tracer.clock()
        tracer._stack.pop()
        return False


class Tracer:
    """Records spans on one thread; ``enabled=False`` makes ``span`` free.

    The benchmark only opens spans on its driving thread (shard drain
    threads are timed through the calls that wait on them), so one
    stack suffices.
    """

    def __init__(self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call as a span named ``name``."""
        if not self.enabled:
            return _NULL
        return _OpenSpan(self, name)

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with :attr:`spans`."""
        return self_times(self.spans)

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "self": own,
                        }
                    )
                    + "\n"
                )


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of every span below ``root`` (spans are stored in start order)."""
    inside = {root}
    out = []
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
            out.append(index)
    return out
