"""How fast the shared host runs, read from a fixed reference kernel.

On a shared machine the same work can take up to twice as long from one
minute to the next: other tenants contend for the cores' caches and
memory bandwidth, so the program runs slower while its CPU time still
equals its wall time.  Such a shift can cover a whole run, and the
median of window rates cannot remove it.

:class:`HostSpeed` samples a fixed kernel of the benchmark's own (a
random walk over a heap of small Python objects, small numpy products
and an interpreter loop: the mix the program spends its time in) between
timed windows.  The kernel never calls the program, so a change to the
program cannot move it.  Every window is charged the geometric mean of
the samples just before and just after it, over :data:`REFERENCE_S` and
raised to :data:`SENSITIVITY`, as the host's slowness during that window;
the benchmark divides window times by it, which reports each throughput
as it would read on the reference host.
"""

from __future__ import annotations

import bisect
import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Median kernel time on the reference host (2 vCPUs of an Intel Xeon at
#: 2.1 GHz, Python 3, numpy with one BLAS thread).
REFERENCE_S = 0.03
#: How strongly the program's times follow the kernel's.  Between the
#: host's fast and slow states the program's windows change by about
#: three quarters of the kernel's log-ratio: phase by phase 0.6-1.0 within
#: runs, and 0.6-0.8 across runs, where a run's scaled throughputs still
#: rose with its median slowness at exponent 1 (ten runs per workload,
#: 2-vCPU host).
SENSITIVITY = 0.75


@dataclass
class HostSpeed:
    """Kernel samples taken through a run, and the slowness they imply."""

    records: int = 40_000  # heap objects walked per sample
    products: int = 300  # small numpy products per sample
    steps: int = 25_000  # interpreter loop steps per sample
    reference_s: float = REFERENCE_S
    sensitivity: float = SENSITIVITY
    clock: Callable[[], float] = time.perf_counter
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(0)
        self._heap = [{"id": i, "pair": [i, i + 1]} for i in range(self.records)]
        self._order = rng.permutation(self.records).tolist()
        self._a = rng.standard_normal((16, 32))
        self._w = rng.standard_normal((32, 32))

    def _kernel(self) -> int:
        heap, total = self._heap, 0
        for index in self._order:
            total += heap[index]["pair"][1]
        for _ in range(self.products):
            hidden = np.tanh(self._a @ self._w)
            total += int((hidden * (1.0 - hidden)).sum(axis=0).argmax())
        table, acc = {}, 0
        for step in range(self.steps):
            table[step & 255] = acc
            acc = (acc * 31 + step) % 1_000_003
        return total + acc

    def sample(self) -> float:
        """Run the kernel once (collector paused) and keep its timing."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = self.clock()
            self._kernel()
            ended = self.clock()
        finally:
            if collecting:
                gc.enable()
        self.add(started, ended)
        return ended - started

    def add(self, started: float, ended: float) -> None:
        if self.ends and started < self.ends[-1]:
            raise ValueError("samples must be added in time order")
        self.starts.append(started)
        self.ends.append(ended)

    def slowness(self, started: float, ended: float) -> float:
        """The host's slowness over ``[started, ended]``: 1.0 on the reference host.

        The geometric mean of the last sample that ended by ``started``
        and the first that began at or after ``ended`` (just one of them
        at either end of the run), over :attr:`reference_s`, to the power
        :attr:`sensitivity`.
        """
        picks = []
        before = bisect.bisect_right(self.ends, started) - 1
        if before >= 0:
            picks.append(self.ends[before] - self.starts[before])
        after = bisect.bisect_left(self.starts, ended)
        if after < len(self.starts):
            picks.append(self.ends[after] - self.starts[after])
        if not picks:
            raise ValueError(f"no kernel sample next to the window [{started}, {ended}]")
        mean = math.exp(sum(math.log(p) for p in picks) / len(picks))
        return (mean / self.reference_s) ** self.sensitivity

    def scaled(self, seconds: float, started: float, ended: float) -> float:
        """``seconds`` measured over ``[started, ended]``, as on the reference host."""
        return seconds / self.slowness(started, ended)

    def median_slowness(self) -> float:
        """The slowness of the run's median sample."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        if not durations:
            return float("nan")
        return (float(np.median(durations)) / self.reference_s) ** self.sensitivity
