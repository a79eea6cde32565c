"""Host speed, sampled all through a run, and time on a reference host.

The benchmark runs on shared machines whose per-core speed drifts by
tens of percent within seconds.  To keep runs comparable, a fixed
pure-Python reference loop is timed every :data:`INTERVAL_S` on the
same event loop as the workload, and each timed quantity is divided by
the host's *slowdown* at that moment: the reference loop's median time
over the surrounding :data:`SLICE_S` slice, over :data:`REFERENCE_S`.
A figure therefore reads as it would on a host where the reference loop
takes exactly :data:`REFERENCE_S`.  Each slice's median drops the odd
sample a garbage collection lands in.  The loop costs about 1 % of the
event loop's time in every run, on every commit alike.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import statistics
import time
from typing import Callable, List, Tuple

#: Reference loop time on the nominal host.
REFERENCE_S = 0.0001
#: Seconds between reference samples.
INTERVAL_S = 0.01
#: Samples around a moment whose median gives the slowdown there.
NEAREST = 5
#: Width of the slices a run is cut into.
SLICE_S = 0.25
#: Iterations of the reference loop: about REFERENCE_S on an idle
#: core of the 2-vCPU host the benchmark was written on, which ran it
#: up to three times slower when its neighbours were busy.
REFERENCE_ITERATIONS = 500


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the serving path does:
    integer arithmetic, dict updates, small tuples, a list sort."""
    counts = {}
    items = []
    total = 0
    for k in range(REFERENCE_ITERATIONS):
        slot = k & 63
        counts[slot] = counts.get(slot, 0) + k
        items.append((slot, total))
        total += k * k
    items.sort(key=lambda item: -item[0])
    return total


def reference_seconds(repeats: int = 5) -> float:
    """Median time of *repeats* reference loops, run back to back."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclasses.dataclass
class Slice:
    """One slice of a run: wall, CPU and words, and the host slowdown."""

    start: float
    seconds: float
    cpu: float
    words: int
    slowdown: float


class Sampler:
    """Samples wall clock, process CPU, delivered words and the
    reference loop every :data:`INTERVAL_S` while a run is timed."""

    def __init__(self, delivered: Callable[[], int]) -> None:
        self._delivered = delivered
        #: ``(wall, cpu, delivered words, reference seconds)`` rows.
        self.rows: List[Tuple[float, float, int, float]] = []
        self._stopped = False
        self._task = None
        self._times = None

    def _sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        reference = time.perf_counter() - start
        self.rows.append(
            (start, time.process_time(), self._delivered(), reference)
        )

    async def _run(self) -> None:
        while not self._stopped:
            self._sample()
            await asyncio.sleep(INTERVAL_S)

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        self._stopped = True
        await self._task
        self._sample()

    def slices(self) -> List[Slice]:
        """Consecutive whole slices of about :data:`SLICE_S` each; one
        slice over every sample when the run is shorter than that."""
        rows = self.rows
        per_slice = min(round(SLICE_S / INTERVAL_S), len(rows) - 1)
        out = []
        for first in range(0, len(rows) - per_slice, per_slice):
            a, b = rows[first], rows[first + per_slice]
            references = [row[3] for row in rows[first:first + per_slice]]
            out.append(
                Slice(
                    start=a[0],
                    seconds=b[0] - a[0],
                    cpu=b[1] - a[1],
                    words=b[2] - a[2],
                    slowdown=statistics.median(references) / REFERENCE_S,
                )
            )
        return out

    def slowdown_at(self, moment: float) -> float:
        """The median slowdown of the :data:`NEAREST` samples closest
        to *moment*."""
        if self._times is None:
            self._times = [row[0] for row in self.rows]
        times = self._times
        index = bisect.bisect_left(times, moment)
        low = max(0, min(index - NEAREST // 2, len(times) - NEAREST))
        nearby = [row[3] for row in self.rows[low:low + NEAREST]]
        return statistics.median(nearby) / REFERENCE_S


