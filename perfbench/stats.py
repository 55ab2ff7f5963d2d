"""Estimators the benchmark reports: median of window rates, quartiles,
and open-loop latency accounting.

A throughput is never total work over total time.  Each phase runs as a
series of windows (an epoch, an evaluation pass, a fixed chunk of
events); after an untimed warm-up window, every window yields one rate
and the phase reports the median.  A slow episode that covers fewer
than half of the windows therefore cannot move the number, and the
interquartile range of the window rates shows how noisy the run was.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class Windows:
    """Per-window rates (or times) of one phase."""

    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def add_rate(self, work: float, seconds: float) -> None:
        """Record ``work / seconds`` for one window."""
        if seconds <= 0:
            raise ValueError(f"window took {seconds} s; the clock did not advance")
        self.values.append(float(work) / seconds)

    @property
    def median(self) -> float:
        return median(self.values)

    @property
    def iqr(self) -> float:
        q1, q3 = quartiles(self.values)
        return q3 - q1

    def summary(self) -> dict:
        return {"median": self.median, "iqr": self.iqr, "windows": len(self.values)}


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no windows were measured")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = median(values)
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return float(ordered[int(rank) - 1])


@dataclass
class OpenLoopResult:
    """What one open-loop segment measured (seconds)."""

    latencies: list[float] = field(default_factory=list)  # predict: done - due
    lateness: list[float] = field(default_factory=list)  # send - due, per event
    submitted: int = 0
    predict_errors: int = 0


def open_loop(
    events: Sequence,
    rate: float,
    submit: Callable[[object], object],
    predict: Callable[[object], object],
    predict_every: int,
    errors: tuple[type[BaseException], ...] = (),
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Offer ``events`` on a fixed schedule of ``rate`` events per second.

    Event ``i`` is due at ``start + i / rate`` whatever happened before
    it, so a stall delays every later request and shows in their
    latencies.  After every ``predict_every``-th event a predict request
    for that event is issued, due at the same moment as the event; its
    latency runs from that due time to its completion.  How late the
    generator itself sent each event is recorded too.  A predict that
    raises one of ``errors`` counts as failed.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    result = OpenLoopResult()
    start = clock()
    for index, event in enumerate(events):
        due = start + index / rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        result.lateness.append(now - due)
        submit(event)
        result.submitted += 1
        if predict_every and (index + 1) % predict_every == 0:
            try:
                predict(event)
            except errors:
                result.predict_errors += 1
                continue
            result.latencies.append(clock() - due)
    return result
