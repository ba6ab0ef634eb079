"""The host's speed, measured alongside the work the benchmark times.

The benchmark shares a few cores of a host whose speed swings by half and
more, in spells of seconds to minutes: on a 2-vCPU Intel Xeon virtual
machine the same deterministic simulation took 2.8 s in one process and
2.2 s in the next, half a minute later.  A simulator execution therefore runs in
short stime steps, and after each step a :class:`Meter` runs one
calibration slice, a fixed pure-Python kernel of heap, dict and attribute
work over a few megabytes of objects.  The slices meet the host in the state
the steps around them met it, so the execution's time multiplied by
:meth:`Meter.scale` moves far less with the host than the time itself: on
that machine the spread (interquartile range over median) of
``cost_us_per_tuple`` across runs with different seeds fell from 0.16 to 0.02
on ``sim-chain4-failover`` and from 0.13-0.19 to 0.04 on
``sim-shard4-steady``.  Set-ups are scaled the same way, and live runs by
slices on an idle-priority thread of the waiting parent process (see
:mod:`workloads`).

The kernel is the benchmark's, not the program's: a change to the program
moves the execution's time and leaves the slices' alone.
"""

from __future__ import annotations

import heapq
import random
import time

#: Seconds one calibration slice takes when the host above is quiet.  Costs
#: are reported as if every slice of the execution had taken this long.
NOMINAL_SLICE_S = 0.0024
#: Objects the kernel walks in random order: a working set of a few megabytes.
POOL_SIZE = 20_000
#: Loop iterations of each half of one slice.
SLICE_ITERATIONS = 750


class _Item:
    __slots__ = ("time", "key", "payload")

    def __init__(self, time: float, key: int, payload: int):
        self.time = time
        self.key = key
        self.payload = payload

    def __lt__(self, other: "_Item") -> bool:
        return self.time < other.time


_pool: list = []
_order: list = []


def _build_pool() -> None:
    rng = random.Random(1)
    _pool.extend(_Item(rng.random(), index & 1023, index) for index in range(POOL_SIZE))
    _order.extend(range(POOL_SIZE))
    rng.shuffle(_order)


class Meter:
    """Calibration slices run alongside one execution, and their total time.

    ``clock`` times the slices: wall time next to a simulation, which is
    wall-timed itself, or the calling thread's CPU time next to live workers,
    whose cost is CPU time.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        if not _pool:
            _build_pool()
        self._clock = clock
        self.slices = 0
        self.seconds = 0.0
        self._position = 0

    def slice(self) -> None:
        """Run one calibration slice and add its time."""
        started = self._clock()
        heap: list = []
        totals: dict = {}
        for index in range(SLICE_ITERATIONS):
            heapq.heappush(heap, _Item((index * 7919) % 10007, index & 255, index))
            if len(heap) > 64:
                item = heapq.heappop(heap)
                totals[item.key] = totals.get(item.key, 0) + item.time
        position = self._position
        for index in range(position, position + SLICE_ITERATIONS):
            item = _pool[_order[index % POOL_SIZE]]
            totals[item.key] = totals.get(item.key, 0) + item.time + item.payload
        self._position = (position + SLICE_ITERATIONS) % POOL_SIZE
        self.seconds += self._clock() - started
        self.slices += 1

    def scale(self) -> float:
        """Factor that turns a time measured alongside into one on the quiet host."""
        return NOMINAL_SLICE_S * self.slices / self.seconds
