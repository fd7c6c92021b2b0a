"""Host speed, measured beside every timed interval.

The benchmark runs on a few vCPUs of a shared host whose speed drifts with
what other tenants run: a fixed CPU-bound loop took up to 1.6x longer in
slow stretches that last from a fraction of a second to minutes, and its
CPU time inflated exactly as its wall time did, so no choice of clock
avoids it.  A median over the samples of one run removes short bursts,
but a slow stretch that covers much of a run moves every time metric of
that run together.

So every timed interval is bracketed by two *ticks*: each tick runs a
fixed, pure-Python reference loop and records its thread CPU time.  The
interval's wall time is multiplied by ``REFERENCE_S`` divided by the
faster of the two bracketing ticks.  Time metrics are therefore reported
on the reference scale: the seconds the interval would have taken had the
host run the reference loop in ``REFERENCE_S``.  The reference loop is the
benchmark's own code, so a change to the program cannot move it:

* it allocates no container objects, so it never triggers a garbage
  collection of the program's objects;
* it is timed in thread CPU time, so a program thread competing for the
  interpreter lock, or another process preempting this one, does not
  slow it.

The raw wall times are printed on the run's summary line beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, List, Tuple

#: Iterations of the reference loop per tick.
REFERENCE_LOOPS = 5000
#: Thread CPU seconds of one tick in a fast stretch (between the 10th and
#: 30th percentile of 10 000 ticks, 0.77-0.80 ms) on the 2-core x86-64
#: container the benchmark was built on.  A constant: it fixes the unit of
#: every scaled time and never changes with the program.
REFERENCE_S = 0.0008

_TABLE = [0.37 * i for i in range(64)]
_SLOTS = dict.fromkeys(range(64), 0.0)


def reference(loops: int = REFERENCE_LOOPS) -> float:
    """Fixed float, list and dict work; allocates no container objects."""
    table, slots = _TABLE, _SLOTS
    v = 0.5
    acc = 0.0
    for i in range(loops):
        v = (v * 3.7 + 0.1) % 1.0
        k = i & 63
        x = table[k] * v
        if x > slots[k]:
            slots[k] = x
        acc += x / (1.0 + v)
    return acc


def reference_s() -> float:
    """Thread CPU seconds of one run of the reference loop."""
    started = time.thread_time()
    reference()
    return time.thread_time() - started


class Speedometer:
    """Ticks on the monotonic clock (the asyncio loop's clock too) and the
    scale factor of any interval bracketed by two of them."""

    def __init__(self, measure: Callable[[], float] = reference_s) -> None:
        self.clock = time.monotonic
        self.measure = measure
        #: Start, end and reference seconds of every tick, in time order.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.refs: List[float] = []

    def tick(self) -> None:
        start = self.clock()
        ref = self.measure()
        self.starts.append(start)
        self.ends.append(self.clock())
        self.refs.append(ref)

    def factor(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the faster of the last tick that ended by
        ``t0`` and the first that started at or after ``t1``."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        if before < 0 or after == len(self.starts):
            raise ValueError(f"interval [{t0}, {t1}] is not bracketed by ticks")
        return REFERENCE_S / min(self.refs[before], self.refs[after])

    def lap(self, started: float) -> Tuple[float, float]:
        """End the interval that began at ``started`` (after a tick) with a
        closing tick; returns (wall seconds, scale factor)."""
        ended = self.clock()
        self.tick()
        return ended - started, self.factor(started, ended)
