"""Percentiles and digests shared by the run, the trace and the tests."""

from __future__ import annotations

import hashlib
import math
from typing import List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q / 100 * n)``-th smallest sample.

    This is the rank :func:`workloads.tail_percentile` counts from, so "ten
    samples beyond p99" means exactly ten samples larger than this value's
    position.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def split_rounds(items: Sequence, rounds: int) -> List[Sequence]:
    """``items`` cut into ``rounds`` consecutive, equal slices."""
    size, rest = divmod(len(items), rounds)
    if rest:
        raise ValueError(f"{len(items)} items do not split into {rounds} rounds")
    return [items[r * size:(r + 1) * size] for r in range(rounds)]


def window_rates(durations: Sequence[float], window: int) -> List[float]:
    """Decisions per second over consecutive whole windows of ``window``
    decisions, from the seconds of each decision's step.

    A step counts whatever else ran beside its decision (the releases due
    before it).  The median of these rates is robust to a burst of
    contention from other processes on the machine.
    """
    return [
        window / sum(durations[i:i + window])
        for i in range(0, len(durations) - window + 1, window)
    ]


class DecisionDigest:
    """sha256 over every verdict and its ``repr``-exact delay bound.

    Two runs with equal digests gave the same answers in the same order;
    a performance change must leave it unchanged for every seed.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, op: str, conn_id: str, verdict: str, bound: Optional[float]) -> None:
        self._hash.update(f"{op}|{conn_id}|{verdict}|{bound!r}\n".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
