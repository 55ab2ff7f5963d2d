"""Op-level autograd profiler for :mod:`repro.tensor`.

Every differentiable operation in the engine is a module-level function
in :mod:`repro.tensor.ops`, looked up through the module object at call
time (``ops.matmul(...)``).  That late binding makes the dispatch layer
patchable: while a profiler is active, each op function is replaced by
a wrapper that

* times the **forward** numpy computation,
* counts the op's **output bytes** (the array-allocation pressure the
  op adds), and
* rewraps the returned tensor's backward closure so the **backward**
  pass attributes its time to the op kind that created the node.

Deactivating restores the original functions, so code that is not
inside a :func:`profile_ops` region runs exactly the pre-profiler
bytecode — zero overhead when disabled (the overhead guard test in
``tests/telemetry`` enforces this end to end).

Backward closures created inside the region keep their attribution even
if ``backward()`` runs after the region exits; profile the whole
forward+backward extent (as ``repro profile`` does) for totals that
nest under one enclosing span.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field
from typing import IO

from repro.tensor import ops as _ops_module
from repro.tensor.tensor import Tensor

#: Only one profiler may patch the op table at a time.
_ACTIVE: "OpProfiler | None" = None


@dataclass
class OpStat:
    """Accumulated cost of one op kind."""

    op: str
    calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    output_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        """Forward plus backward time."""
        return self.forward_seconds + self.backward_seconds


@dataclass
class OpProfiler:
    """Context manager collecting per-op-kind timings and bytes.

    Usage::

        with profile_ops() as prof:
            loss = model(graph)
            loss.backward()
        print(prof.render(k=10))
    """

    stats: dict[str, OpStat] = field(default_factory=dict)
    _saved: dict[str, object] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    @staticmethod
    def _op_functions() -> dict[str, object]:
        """The patchable public op functions of ``repro.tensor.ops``."""
        return {
            name: obj
            for name, obj in vars(_ops_module).items()
            if inspect.isfunction(obj)
            and obj.__module__ == _ops_module.__name__
            and not name.startswith("_")
        }

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, OpStat(op=name))
        perf_counter = time.perf_counter

        def profiled(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            stat.forward_seconds += perf_counter() - start
            stat.calls += 1
            # Identity returns (e.g. dropout with rate 0) belong to the
            # op that actually built the tensor; rewrapping them would
            # double-count backward time.
            if isinstance(out, Tensor) and not any(out is arg for arg in args):
                stat.output_bytes += out.data.nbytes
                inner = out._backward
                if inner is not None:

                    def timed_backward(node):
                        begin = perf_counter()
                        inner(node)
                        stat.backward_seconds += perf_counter() - begin
                        stat.backward_calls += 1

                    out._backward = timed_backward
            return out

        profiled.__name__ = f"profiled_{name}"
        profiled.__wrapped__ = fn
        return profiled

    def __enter__(self) -> "OpProfiler":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("an OpProfiler is already active in this process")
        _ACTIVE = self
        for name, fn in self._op_functions().items():
            self._saved[name] = fn
            setattr(_ops_module, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        for name, fn in self._saved.items():
            setattr(_ops_module, name, fn)
        self._saved.clear()
        _ACTIVE = None

    # ------------------------------------------------------------------
    # Reading / export
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Total attributed op time (forward + backward, all kinds)."""
        return sum(stat.total_seconds for stat in self.stats.values())

    def top(self, k: int = 10) -> list[OpStat]:
        """The ``k`` most expensive op kinds by total time."""
        ranked = sorted(self.stats.values(), key=lambda s: s.total_seconds, reverse=True)
        return [stat for stat in ranked[:k] if stat.calls]

    def to_rows(self) -> list[dict]:
        """JSON-serialisable rows, one per op kind that was called."""
        return [
            {
                "op": stat.op,
                "calls": stat.calls,
                "forward_seconds": stat.forward_seconds,
                "backward_calls": stat.backward_calls,
                "backward_seconds": stat.backward_seconds,
                "total_seconds": stat.total_seconds,
                "output_bytes": stat.output_bytes,
            }
            for stat in sorted(
                self.stats.values(), key=lambda s: s.total_seconds, reverse=True
            )
            if stat.calls
        ]

    def to_jsonl(self, stream: IO[str]) -> int:
        """Write :meth:`to_rows` as JSON lines; returns rows written."""
        rows = self.to_rows()
        for row in rows:
            stream.write(json.dumps(row, sort_keys=True) + "\n")
        return len(rows)

    def render(self, k: int = 10) -> str:
        """Text table of the top-``k`` op kinds."""
        lines = [
            f"top ops — {self.total_seconds:.3f}s attributed",
            f"  {'op':<18} {'calls':>8} {'fwd s':>9} {'bwd s':>9} "
            f"{'total s':>9} {'share':>6} {'out MiB':>9}",
        ]
        total = self.total_seconds
        for stat in self.top(k):
            share = stat.total_seconds / total if total > 0 else 0.0
            lines.append(
                f"  {stat.op:<18} {stat.calls:>8d} {stat.forward_seconds:>9.3f} "
                f"{stat.backward_seconds:>9.3f} {stat.total_seconds:>9.3f} "
                f"{100 * share:>5.1f}% {stat.output_bytes / 2**20:>9.2f}"
            )
        if len(lines) == 2:
            lines.append("  (no ops recorded)")
        return "\n".join(lines)


def profile_ops() -> OpProfiler:
    """A fresh :class:`OpProfiler` (activate it with ``with``)."""
    return OpProfiler()


def is_profiling() -> bool:
    """Whether an op profiler currently patches the dispatch table."""
    return _ACTIVE is not None


def aggregate_op_rows(row_groups: list[list[dict]]) -> list[dict]:
    """Merge per-trial op rows (summing fields per op kind).

    Used by ``repro bench --profile`` to fold many workers' op tables
    into one; rows follow :meth:`OpProfiler.to_rows`.
    """
    merged: dict[str, dict] = {}
    for rows in row_groups:
        for row in rows:
            slot = merged.setdefault(
                row["op"],
                {
                    "op": row["op"],
                    "calls": 0,
                    "forward_seconds": 0.0,
                    "backward_calls": 0,
                    "backward_seconds": 0.0,
                    "total_seconds": 0.0,
                    "output_bytes": 0,
                },
            )
            for key in (
                "calls",
                "forward_seconds",
                "backward_calls",
                "backward_seconds",
                "total_seconds",
                "output_bytes",
            ):
                slot[key] += row.get(key, 0)
    return sorted(merged.values(), key=lambda r: r["total_seconds"], reverse=True)


def render_op_rows(rows: list[dict], k: int = 10) -> str:
    """Text table for aggregated op rows (same layout as ``render``)."""
    profiler = OpProfiler()
    for row in rows:
        profiler.stats[row["op"]] = OpStat(
            op=row["op"],
            calls=int(row.get("calls", 0)),
            forward_seconds=float(row.get("forward_seconds", 0.0)),
            backward_calls=int(row.get("backward_calls", 0)),
            backward_seconds=float(row.get("backward_seconds", 0.0)),
            output_bytes=int(row.get("output_bytes", 0)),
        )
    return profiler.render(k)
