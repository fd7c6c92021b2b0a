"""Workload runners: set-up, the timed phases and the end-of-run checks.

Each runner returns an :class:`Outcome` holding raw samples; ``run.py``
turns them into metrics.  The closed-loop workloads drive one
``AdmissionController`` directly; ``service-repeat`` drives an in-process
``AdmissionService`` (``workers=0``, journaling, default snapshot cadence)
on one asyncio loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import heapq
import math
import os
import shutil
import time
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import workloads as wl
from speed import Speedometer
from stats import DecisionDigest, split_rounds, window_rates
from tracing import Tracer


@dataclasses.dataclass
class Outcome:
    """Every time is on the reference scale (``speed.py``) unless its name
    says ``raw``."""

    #: Seconds of every set-up repetition, in run order.
    setup_times_s: List[float]
    #: Admission-verdict latencies of the latency phase, seconds.
    latencies_s: List[float]
    #: Decisions per second of each window of the closed-loop phase.
    window_rates: List[float]
    n_requested: int
    n_admitted: int
    ops: int
    failed_ops: int
    #: Seconds of every timed phase together.
    timed_s: float
    decisions_digest: str
    checks: checks.CheckLog
    speed: Speedometer
    raw_setup_times_s: List[float]
    raw_latencies_s: List[float]
    #: Open loop only: generator lateness, queue waits, off-EXACT decisions.
    late_s: List[float] = dataclasses.field(default_factory=list)
    queue_wait_s: List[float] = dataclasses.field(default_factory=list)
    ladder_non_exact: int = 0


def _spec(req):
    from repro.network.connection import ConnectionSpec
    from repro.traffic.dual_periodic import DualPeriodicTraffic

    traffic = DualPeriodicTraffic(c1=req.c1, p1=wl.P1, c2=req.c2, p2=wl.P2)
    return ConnectionSpec(req.conn_id, req.source, req.dest, traffic, req.deadline)


class SetupClock:
    """Times the set-up repetitions of one run, one step (a topology build,
    an admission, a kill, a restore) at a time, each step scaled by the
    ticks that bracket it.

    The first repetition builds the system the timed phases use; the
    others run between rounds, untraced, and are thrown away.  Failures
    and operations of every repetition count.
    """

    def __init__(self, tracer: Optional[Tracer], speed: Speedometer) -> None:
        self.tracer = tracer
        self.speed = speed
        self.times: List[float] = []
        self.raw_times: List[float] = []
        self.failures = 0
        self.ops = 0
        self._since = 0.0
        self._scaled = self._raw = 0.0

    def start(self) -> None:
        if self.tracer is not None:
            # Per-layer metrics describe the first set-up and the timed rounds.
            self.tracer.enabled = not self.times
        self._scaled = self._raw = 0.0
        self.speed.tick()
        self._since = self.speed.clock()

    def step(self) -> None:
        """End one set-up step and start the next."""
        raw, factor = self.speed.lap(self._since)
        self._raw += raw
        self._scaled += raw * factor
        self._since = self.speed.clock()

    def stop(self, ops: int, failures: int) -> None:
        self.step()
        self.times.append(self._scaled)
        self.raw_times.append(self._raw)
        self.ops += ops
        self.failures += failures


def begin_round(tracer: Optional[Tracer]) -> None:
    """Start a timed round: trace it, collect garbage and freeze the
    survivors, so that no collection left over from set-up lands in the
    round and the collections the round triggers do not rescan set-up's
    objects."""
    if tracer is not None:
        tracer.enabled = True
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# Closed loop: paper-fresh and cyclic-fixedpoint
# ---------------------------------------------------------------------------


class Timeline:
    """One controller fed requests in simulated-time order: every
    connection whose lifetime ended before the next arrival is released
    first."""

    def __init__(self, controller, tracer: Optional[Tracer]) -> None:
        self.cac = controller
        self.tracer = tracer
        self.departures: List[Tuple[float, str]] = []
        self.digest = DecisionDigest()
        self.bound_violations: List[str] = []
        self.releases = 0

    def advance(self, now: float) -> None:
        while self.departures and self.departures[0][0] <= now:
            _, conn_id = heapq.heappop(self.departures)
            if self.tracer is not None:
                self.tracer.current_request = conn_id
            self.cac.release(conn_id)
            self.digest.add("release", conn_id, "RELEASED", None)
            self.releases += 1

    def offer(self, req: wl.Request, spec) -> bool:
        if self.tracer is not None:
            self.tracer.current_request = req.conn_id
        result = self.cac.request(spec)
        self.record(req, result)
        return result.admitted

    def record(self, req: wl.Request, result) -> None:
        self.digest.add(
            "admit", req.conn_id, "ADMITTED" if result.admitted else "REJECTED",
            result.delay_bound,
        )
        if result.admitted:
            self.bound_violations += checks.bounds_within_deadlines(
                [(req.conn_id, result.delay_bound, req.deadline)]
            )
            if math.isfinite(req.lifetime):
                heapq.heappush(self.departures, (req.arrival + req.lifetime, req.conn_id))


def _closed_loop(
    workload: wl.Workload,
    build_topology,
    standing: Sequence[wl.Request],
    warmup: Sequence[wl.Request],
    measured: Sequence[wl.Request],
    tracer: Optional[Tracer],
) -> Outcome:
    from repro.config import CACConfig
    from repro.core.cac import AdmissionController

    standing_specs = [_spec(r) for r in standing]
    warmup_specs = [_spec(r) for r in warmup]
    specs = [_spec(r) for r in measured]

    speed = Speedometer()
    clock = SetupClock(tracer, speed)
    bound_violations: List[str] = []

    def set_up() -> Timeline:
        clock.start()
        timeline = Timeline(
            AdmissionController(build_topology(), cac_config=CACConfig(beta=0.5)),
            tracer,
        )
        clock.step()
        refused = 0
        for req, spec in zip(standing, standing_specs):
            refused += not timeline.offer(req, spec)
            clock.step()
        for req, spec in zip(warmup, warmup_specs):
            timeline.advance(req.arrival)
            timeline.offer(req, spec)
            clock.step()
        # A refused standing connection would silently change the workload.
        clock.stop(len(standing) + len(warmup) + timeline.releases, refused)
        return timeline

    timeline = set_up()
    setup_releases = timeline.releases
    cac = timeline.cac
    latencies: List[float] = []
    raw_latencies: List[float] = []
    rates: List[float] = []
    admitted = 0
    timed_s = 0.0
    for round_reqs, round_specs in zip(
        split_rounds(measured, wl.ROUNDS), split_rounds(specs, wl.ROUNDS)
    ):
        begin_round(tracer)
        speed.tick()
        # Scaled seconds of each step: the releases due before a request
        # and the request itself.
        steps: List[float] = []
        for req, spec in zip(round_reqs, round_specs):
            s0 = speed.clock()
            timeline.advance(req.arrival)
            if tracer is not None:
                tracer.current_request = req.conn_id
            t0 = speed.clock()
            result = cac.request(spec)
            t1 = speed.clock()
            speed.tick()
            factor = speed.factor(s0, t1)
            raw_latencies.append(t1 - t0)
            latencies.append((t1 - t0) * factor)
            steps.append((t1 - s0) * factor)
            timeline.record(req, result)
            admitted += result.admitted
        rates += window_rates(steps, workload.window)
        timed_s += sum(steps)
        bound_violations += set_up().bound_violations
    if tracer is not None:
        tracer.enabled = False

    log = checks.CheckLog()
    log.record("bounds_at_admission", timeline.bound_violations + bound_violations)
    log.record("bounds_at_end", checks.bounds_within_deadlines(checks.record_bounds(cac)))
    log.record("incremental_equals_full", checks.incremental_matches_full(cac))
    log.record("no_allocation_leak", checks.allocation_leaks(cac.audit_allocations()))
    return Outcome(
        setup_times_s=clock.times,
        latencies_s=latencies,
        window_rates=rates,
        n_requested=len(measured),
        n_admitted=admitted,
        ops=clock.ops + len(measured) + timeline.releases - setup_releases,
        failed_ops=clock.failures,
        timed_s=timed_s,
        decisions_digest=timeline.digest.hexdigest(),
        checks=log,
        speed=speed,
        raw_setup_times_s=clock.raw_times,
        raw_latencies_s=raw_latencies,
    )


def run_paper_fresh(seed: int, tracer: Optional[Tracer], workdir: str) -> Outcome:
    from repro.config import build_network

    warmup, measured = wl.paper_fresh_inputs(seed)
    return _closed_loop(wl.PAPER_FRESH, build_network, (), warmup, measured, tracer)


def run_cyclic(seed: int, tracer: Optional[Tracer], workdir: str) -> Outcome:
    from repro.config import NetworkConfig
    from repro.topo.generators import ring_of_switches

    standing, warmup, measured = wl.cyclic_inputs(seed)
    spec = ring_of_switches(
        wl.CYCLIC_RINGS, hosts_per_ring=wl.CYCLIC_HOSTS_PER_RING, unidirectional=True
    )
    return _closed_loop(
        wl.CYCLIC_FIXEDPOINT,
        lambda: spec.build(NetworkConfig()),
        standing,
        warmup,
        measured,
        tracer,
    )


# ---------------------------------------------------------------------------
# service-repeat: open loop for latency, closed loop for throughput
# ---------------------------------------------------------------------------

#: A tick runs this long before an open-loop slot is due, in the gap
#: between slots (20 ms at 50 slots/s; a tick takes about 1 ms).
TICK_LEAD_S = 0.005
#: Verdicts that mean an operation failed (REJECTED is a decision).
_FAILED = ("ERROR", "TIMEOUT", "BUSY", "UNKNOWN")


class _ServiceClient:
    """Turns slots into service calls; serializes calls per pool entry."""

    def __init__(self, service, pool_specs, refused_specs) -> None:
        self.service = service
        self.pool_specs = pool_specs
        self.refused_specs = refused_specs
        self.active: set = set()
        self.last: Dict[int, "asyncio.Task"] = {}
        #: (slot number, op, conn_id, verdict, bound) of every answer.
        self.answers: List[tuple] = []
        self.bound_violations: List[str] = []
        self.ops = 0
        self.failed_ops = 0
        self.requested = 0
        self.admitted = 0
        self.ladder_non_exact = 0

    def _count(self, seq: int, op: str, response) -> None:
        self.ops += 1
        self.answers.append(
            (seq, op, response.conn_id, response.verdict, response.delay_bound)
        )
        if response.verdict in _FAILED:
            self.failed_ops += 1

    def hexdigest(self) -> str:
        """The answers in slot order: open-loop slots of different pool
        entries may complete out of order, but never change each other's
        answers (each entry is alone in its interference component)."""
        digest = DecisionDigest()
        for _, op, conn_id, verdict, bound in sorted(self.answers, key=lambda a: a[:2]):
            digest.add(op, conn_id, verdict, bound)
        return digest.hexdigest()

    async def admit(self, seq: int, spec):
        from repro.service.degrade import EXACT

        response = await self.service.submit_admit(spec)
        self._count(seq, "admit", response)
        self.requested += 1
        if self.service.ladder.level != EXACT:
            self.ladder_non_exact += 1
        if response.verdict == "ADMITTED":
            self.admitted += 1
            self.bound_violations += checks.bounds_within_deadlines(
                [(spec.conn_id, response.delay_bound, spec.deadline)]
            )
        return response

    async def slot(self, seq: int, slot: wl.Slot, previous=None):
        """One slot; returns (admission response, seconds the slot spent
        before submitting it: waiting for the pool entry's previous slot
        and releasing the entry)."""
        if slot.pool is None:
            return await self.admit(seq, self.refused_specs[slot.refused_id]), 0.0
        started = time.monotonic()
        if previous is not None:
            await previous
        i = slot.pool
        if i in self.active:
            response = await self.service.submit_release(self.pool_specs[i].conn_id)
            self._count(seq, "release", response)
            self.active.discard(i)
        stalled = time.monotonic() - started
        response = await self.admit(seq, self.pool_specs[i])
        if response.verdict == "ADMITTED":
            self.active.add(i)
        return response, stalled


async def _service_run(seed: int, tracer: Optional[Tracer], workdir: str) -> Outcome:
    from repro.config import CACConfig, NetworkConfig, ServiceConfig, build_network
    from repro.service.server import AdmissionService

    standing, pool, open_slots, closed_slots = wl.service_inputs(seed)
    net = NetworkConfig(
        n_rings=wl.SERVICE_RINGS, hosts_per_ring=wl.SERVICE_HOSTS_PER_RING
    )
    config = ServiceConfig(workers=0)
    standing_specs = [_spec(r) for r in standing]
    pool_specs = [_spec(r) for r in pool]
    refused_specs = {}
    for slots in (open_slots, closed_slots):
        for slot in slots:
            if slot.pool is None:
                refused_specs[slot.refused_id] = _spec(
                    pool[0]._replace(conn_id=slot.refused_id, dest=wl.UNKNOWN_HOST)
                )
    signature_problems: List[str] = []
    setup_digest = DecisionDigest()
    speed = Speedometer()
    clock = SetupClock(tracer, speed)

    async def set_up(rep: int):
        """Admit the standing population, kill, restore from the journal and
        warm the restored service; returns it started."""
        failures = 0
        digest = DecisionDigest()
        journal = os.path.join(workdir, f"journal-{rep}")
        # A journal left by an earlier process would be restored from.
        shutil.rmtree(journal, ignore_errors=True)
        clock.start()
        service = AdmissionService(
            build_network(net),
            network_config=net,
            cac_config=CACConfig(),
            service_config=config,
            journal_dir=journal,
        )
        await service.start()
        clock.step()
        for spec in standing_specs:
            response = await service.submit_admit(spec)
            clock.step()
            digest.add("admit", spec.conn_id, response.verdict, response.delay_bound)
            failures += response.verdict != "ADMITTED"
        before = service.signature()
        await service.simulate_kill()
        clock.step()
        restored, report = AdmissionService.restore(
            build_network(net),
            journal,
            network_config=net,
            cac_config=CACConfig(),
            service_config=config,
        )
        await restored.start(fresh_journal=False)
        clock.step()
        signature_problems.extend(checks.signatures_match(before, report.signature))
        # Restored controllers start with empty caches: one admit/release
        # of every pool entry warms them, as the paper's warm-up requests
        # do, so the timed phases measure the warm regime.
        for spec in pool_specs:
            responses = [await restored.submit_admit(spec)]
            clock.step()
            responses.append(await restored.submit_release(spec.conn_id))
            clock.step()
            for response in responses:
                digest.add("warmup", spec.conn_id, response.verdict, response.delay_bound)
                failures += response.verdict not in ("ADMITTED", "RELEASED")
        clock.stop(len(standing_specs) + 2 * len(pool_specs), failures)
        if rep == 0:
            setup_digest.add("setup", "standing", digest.hexdigest(), None)
        return restored

    async def stop(service) -> List[str]:
        from repro.errors import AuditError

        try:
            await service.stop()
        except AuditError as exc:
            return [str(exc)]
        return []

    service = await set_up(0)
    client = _ServiceClient(service, pool_specs, refused_specs)
    shutdown_problems: List[str] = []

    loop = asyncio.get_running_loop()
    #: (due, verdict time, seconds stalled) of every open-loop admission.
    answered: List[Tuple[float, float, float]] = []
    late, waits = [], []

    async def timed(seq: int, slot: wl.Slot, due: float, previous) -> None:
        response, stalled = await client.slot(seq, slot, previous)
        done = loop.time()
        answered.append((due, done, stalled))
        waits.append(done - due - stalled - response.latency)

    async def open_loop(slots: Sequence[wl.Slot], first_seq: int) -> None:
        """Slots due at a fixed rate on the monotonic clock, each timed from
        its due time; the generator's own lateness is recorded.  A tick
        runs in the gap before a slot when no request is in flight, so it
        delays nothing."""
        tasks = []
        in_flight: set = set()
        first_due = loop.time() + 0.01
        for k, slot in enumerate(slots):
            due = first_due + k / wl.OPEN_LOOP_RATE
            delay = due - TICK_LEAD_S - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
                if not in_flight:
                    speed.tick()
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(loop.time() - due)
            previous = client.last.get(slot.pool) if slot.pool is not None else None
            task = loop.create_task(timed(first_seq + k, slot, due, previous))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)
            if slot.pool is not None:
                client.last[slot.pool] = task
            tasks.append(task)
        await asyncio.gather(*tasks)

    # The open loop (latency) and the closed loop (throughput: one caller,
    # each slot awaited before the next, a tick between windows) alternate
    # over ROUNDS rounds, so both sample the whole run rather than one
    # stretch of it; a set-up repetition follows each round.
    rates: List[float] = []
    timed_s = 0.0
    rounds = wl.ROUNDS
    window = wl.SERVICE_REPEAT.window
    seq = 0
    for r in range(rounds):
        begin_round(tracer)
        speed.tick()
        started = speed.clock()
        await open_loop(open_slots[r::rounds], seq)
        raw, factor = speed.lap(started)
        timed_s += raw * factor
        seq += len(open_slots[r::rounds])
        slots = closed_slots[r::rounds]
        for first in range(0, len(slots), window):
            started = speed.clock()
            for slot in slots[first:first + window]:
                await client.slot(seq, slot)
                seq += 1
            raw, factor = speed.lap(started)
            rates.append(window / (raw * factor))
            timed_s += raw * factor
        shutdown_problems += await stop(await set_up(r + 1))
    if tracer is not None:
        tracer.enabled = False

    log = checks.CheckLog()
    log.record("restore_signature", signature_problems)
    log.record("ladder_stayed_exact", checks.ladder_stayed_exact(service.ladder))
    log.record("bounds_at_admission", client.bound_violations)
    shards = list(service.state.shards.values())
    log.record(
        "bounds_at_end",
        [p for s in shards for p in checks.bounds_within_deadlines(checks.record_bounds(s.controller))],
    )
    log.record(
        "incremental_equals_full",
        [p for s in shards for p in checks.incremental_matches_full(s.controller)],
    )
    log.record("no_allocation_leak", checks.allocation_leaks(service.state.audit_allocations()))
    log.record("shutdown_audit", shutdown_problems + await stop(service))

    digest = DecisionDigest()
    digest.add("setup", "standing", setup_digest.hexdigest(), None)
    digest.add("run", "slots", client.hexdigest(), None)
    raw_latencies = [done - due - stalled for due, done, stalled in answered]
    return Outcome(
        setup_times_s=clock.times,
        latencies_s=[
            latency * speed.factor(due, done)
            for latency, (due, done, _) in zip(raw_latencies, answered)
        ],
        window_rates=rates,
        n_requested=client.requested,
        n_admitted=client.admitted,
        ops=client.ops + clock.ops,
        failed_ops=client.failed_ops + clock.failures,
        timed_s=timed_s,
        decisions_digest=digest.hexdigest(),
        checks=log,
        speed=speed,
        raw_setup_times_s=clock.raw_times,
        raw_latencies_s=raw_latencies,
        late_s=late,
        queue_wait_s=waits,
        ladder_non_exact=client.ladder_non_exact,
    )


def run_service(seed: int, tracer: Optional[Tracer], workdir: str) -> Outcome:
    return asyncio.run(_service_run(seed, tracer, workdir))


RUNNERS = {
    wl.PAPER_FRESH.name: run_paper_fresh,
    wl.SERVICE_REPEAT.name: run_service,
    wl.CYCLIC_FIXEDPOINT.name: run_cyclic,
}
