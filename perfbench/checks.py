"""Correctness checks run at the end of every benchmark run.

Each check returns a list of problems (empty = passed); the run counts
every check as one attempted operation and fails the run, with a non-zero
exit code, when any check reports a problem.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Matches the CAC's own feasibility tolerance (``check_feasible``).
BOUND_TOLERANCE = 1e-12
#: Ledger discrepancies below this are float noise (the service's own
#: ``LEAK_TOLERANCE``).
LEAK_TOLERANCE = 1e-9


def bounds_within_deadlines(
    bounds: Iterable[Tuple[str, Optional[float], float]],
) -> List[str]:
    """Every ``(conn_id, bound, deadline)`` has a finite bound <= deadline."""
    problems = []
    for conn_id, bound, deadline in bounds:
        if bound is None or not bound <= deadline + BOUND_TOLERANCE:
            problems.append(f"{conn_id}: bound {bound!r} > deadline {deadline!r}")
    return problems


def record_bounds(controller) -> List[Tuple[str, Optional[float], float]]:
    return [
        (rec.conn_id, rec.delay_bound, rec.spec.deadline)
        for rec in controller.connections.values()
    ]


def incremental_matches_full(controller) -> List[str]:
    """The controller's (incremental) bounds equal a fresh full analysis.

    The fresh :class:`DelayAnalyzer` starts with empty caches, so this also
    proves that no cache served a stale or mutated value.
    """
    from repro.core.delay import ConnectionLoad, DelayAnalyzer

    loads = [
        ConnectionLoad(rec.spec, rec.route, rec.h_source, rec.h_dest)
        for rec in controller.connections.values()
    ]
    if not loads:
        return []
    current = controller.evaluate(None)
    if current is None:
        return ["active set has no finite bound"]
    fresh = DelayAnalyzer(
        controller.topology, controller.network_config, controller.analyzer.analysis
    ).compute(loads)
    problems = []
    for conn_id, report in fresh.items():
        mine = current.get(conn_id)
        if mine is None or mine.total_delay != report.total_delay:
            got = None if mine is None else mine.total_delay
            problems.append(f"{conn_id}: incremental {got!r} != full {report.total_delay!r}")
    if set(current) != set(fresh):
        problems.append("incremental and full analyses cover different connections")
    return problems


def allocation_leaks(audit: Dict[str, float]) -> List[str]:
    """``audit_allocations()`` output with every ring within tolerance."""
    return [
        f"{ring}: ledger off by {diff:+.3e} s"
        for ring, diff in sorted(audit.items())
        if abs(diff) > LEAK_TOLERANCE
    ]


def signatures_match(before: str, after: str) -> List[str]:
    if before != after:
        return [f"restored signature {after[:16]} != pre-kill {before[:16]}"]
    return []


def digest_matches(recorded: str, digest: str) -> List[str]:
    """The run gave the answers recorded for its workload and seed."""
    if recorded != digest:
        return [f"decisions digest {digest[:16]} != recorded {recorded[:16]}"]
    return []


def ladder_stayed_exact(ladder) -> List[str]:
    """The degradation ladder never moved: every decision was exact."""
    return [f"ladder moved: {t.describe()}" for t in ladder.transitions]


class CheckLog:
    """The named outcome of every check of one run."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, List[str]]] = []

    def record(self, name: str, problems: List[str]) -> None:
        self.results.append((name, list(problems)))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.results if problems)

    def report(self) -> List[str]:
        lines = []
        for name, problems in self.results:
            lines.append(f"check {name}: {'ok' if not problems else 'FAILED'}")
            lines.extend(f"  {p}" for p in problems[:10])
        return lines
