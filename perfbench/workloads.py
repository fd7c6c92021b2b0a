"""Seeded input generation for the three benchmark workloads.

Everything here is pure Python and imports nothing from ``repro``: a
workload's inputs are a function of ``--seed`` alone, so a change to the
program can never change what the benchmark asks of it.  The program
receives only these tuples, turned into ``ConnectionSpec`` objects by
``harness.py``.

Variance design.  Metrics are compared across runs with *different*
seeds, so the seed must change which requests are made but not how much
work they are.  Two devices keep the cross-seed spread small:

* every random quantity is drawn by block-stratified (Latin hypercube)
  sampling: within each block of ``BLOCK`` consecutive requests, each
  marginal -- arrival gaps, lifetimes, traffic jitter, deadlines,
  endpoints -- takes one value per equal-probability stratum, and the
  seed only decides how the strata are paired and ordered.  The
  marginals are exactly the paper's (exponential gaps and lifetimes,
  uniform jitter and deadlines), and every block offers the same load;
* the standing population admitted during set-up does not depend on the
  seed, so set-up does the same work in every run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from typing import List, NamedTuple, Optional, Sequence, Tuple

# --- the paper's section-6 workload (repro.config.SimulationConfig) -------
C1, P1, C2, P2 = 120_000.0, 0.015, 60_000.0, 0.005
JITTER = 0.2
DEADLINE_MIN, DEADLINE_MAX = 0.040, 0.100
MEAN_LIFETIME_S = 600.0
#: Offered load of the figure-7 cell U=0.6 with the calibrated load scale
#: 0.15, inverted exactly as ``SimulationConfig.arrival_rate_for_utilization``
#: does for the 3-ring mesh: U * n_links * mu * C_link / rho * scale.
PAPER_ARRIVAL_RATE = 0.6 * 3 * (1.0 / MEAN_LIFETIME_S) * 155.52e6 / (C1 / P1) * 0.15

#: Tail percentiles considered, lowest first.
TAIL_CANDIDATES = (90.0, 95.0, 98.0, 99.0, 99.9)


class Request(NamedTuple):
    """One connection request of a closed-loop workload."""

    conn_id: str
    source: str
    dest: str
    c1: float
    c2: float
    deadline: float
    #: Simulated arrival time and holding time, seconds.
    arrival: float
    lifetime: float


class PoolSpec(NamedTuple):
    """One fixed connection the service workload admits over and over."""

    conn_id: str
    source: str
    dest: str
    c1: float
    c2: float
    deadline: float


class Slot(NamedTuple):
    """One open- or closed-loop slot of the service workload: an admission
    of pool entry ``pool`` (releasing it first if it is active), or, with
    ``pool`` None, an admission of ``refused_id`` to an unknown host,
    which the service refuses before any delay analysis."""

    pool: Optional[int]
    refused_id: Optional[str]


def tail_percentile(n_samples: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it.

    The rank of percentile ``q`` is ``ceil(q / 100 * n)`` (1-based), so
    ``n - rank`` samples lie beyond it.  Raises when even p90 has fewer
    than ten: such a run is too short to report a tail.
    """
    best = None
    for q in TAIL_CANDIDATES:
        if n_samples - math.ceil(q / 100.0 * n_samples - 1e-9) >= 10:
            best = q
    if best is None:
        raise ValueError(f"{n_samples} samples cannot support a tail percentile")
    return best


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Decisions whose latency is sampled (fixed, so every percentile has
    #: a fixed rank).
    n_decisions: int
    #: ``tail_percentile(n_decisions // tail_parts)``, recorded once; a
    #: test keeps the two in step.
    tail_q: float
    #: Decisions per throughput window; ``decisions_per_s`` is the median
    #: window rate of the closed-loop phase.
    window: int
    #: ``decision_tail_ms`` is the median over this many consecutive,
    #: equal parts of the samples of each part's ``tail_q`` percentile.
    tail_parts: int = 1


#: The timed phases of every workload run in this many rounds, each
#: followed by one more set-up repetition, so that ``setup_s`` is the
#: median of set-ups spread over the whole run rather than of a few
#: consecutive ones that one burst of contention can cover.
ROUNDS = 4


PAPER_FRESH = Workload(
    name="paper-fresh",
    why="fresh section-6 requests on the 3-ring network; every probe misses the stage cache",
    n_decisions=240,
    tail_q=95.0,
    window=20,
)
SERVICE_REPEAT = Workload(
    name="service-repeat",
    why="warm admit/release churn through the journaling service on 4 disjoint components",
    n_decisions=960,
    tail_q=90.0,
    window=50,
    # Two parts per timed round, 2.4 s of open loop each: a stall of the
    # machine queues a burst of open-loop requests within one part and
    # cannot set the median.
    tail_parts=8,
)
CYCLIC_FIXEDPOINT = Workload(
    name="cyclic-fixedpoint",
    why="fresh requests on a one-way ring of switches; every probe runs the port fixed point",
    n_decisions=100,
    tail_q=90.0,
    window=5,
)
WORKLOADS = {w.name: w for w in (PAPER_FRESH, SERVICE_REPEAT, CYCLIC_FIXEDPOINT)}


# ---------------------------------------------------------------------------
# Stratified draws
# ---------------------------------------------------------------------------


#: Stratification block: a multiple of every host and ring count used.
BLOCK = 24


def _strata(rng: random.Random, n: int) -> List[float]:
    """``n`` uniforms in [0, 1): each block of ``BLOCK`` values (the last
    may be shorter) has one value in each of its equal strata, shuffled."""
    values: List[float] = []
    for first in range(0, n, BLOCK):
        size = min(BLOCK, n - first)
        block = [(k + rng.random()) / size for k in range(size)]
        rng.shuffle(block)
        values += block
    return values


def _balanced(rng: random.Random, items: Sequence, n: int) -> list:
    """``n`` draws; each block of ``BLOCK`` uses every item equally often
    (up to one), shuffled."""
    out: list = []
    for first in range(0, n, BLOCK):
        order = list(items)
        rng.shuffle(order)
        block = [order[k % len(order)] for k in range(min(BLOCK, n - first))]
        rng.shuffle(block)
        out += block
    return out


def _exponential(u: float, mean: float) -> float:
    return -mean * math.log(1.0 - u)


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def fresh_requests(
    rng: random.Random,
    n: int,
    n_rings: int,
    hosts_per_ring: int,
    arrival_rate: float,
    prefix: str,
    start: float = 0.0,
) -> List[Request]:
    """``n`` section-6 requests in arrival order.

    Poisson arrivals at ``arrival_rate``, exponential lifetimes, jittered
    dual-periodic traffic, uniform deadlines, a source spread evenly over
    every host and a destination on another ring.
    """
    gaps = _strata(rng, n)
    lives = _strata(rng, n)
    jitters = _strata(rng, n)
    deadlines = _strata(rng, n)
    hosts = [
        (ring, j)
        for ring in range(1, n_rings + 1)
        for j in range(1, hosts_per_ring + 1)
    ]
    sources = _balanced(rng, hosts, n)
    offsets = _balanced(rng, range(1, n_rings), n)
    dest_hosts = _balanced(rng, range(1, hosts_per_ring + 1), n)
    out = []
    now = start
    for k in range(n):
        now += _exponential(gaps[k], 1.0 / arrival_rate)
        ring, j = sources[k]
        dest_ring = (ring - 1 + offsets[k]) % n_rings + 1
        factor = _uniform(jitters[k], 1.0 - JITTER, 1.0 + JITTER)
        out.append(
            Request(
                conn_id=f"{prefix}{k}",
                source=f"host{ring}-{j}",
                dest=f"host{dest_ring}-{dest_hosts[k]}",
                c1=C1 * factor,
                c2=C2 * factor,
                deadline=_uniform(deadlines[k], DEADLINE_MIN, DEADLINE_MAX),
                arrival=now,
                lifetime=_exponential(lives[k], MEAN_LIFETIME_S),
            )
        )
    return out


# ---------------------------------------------------------------------------
# paper-fresh
# ---------------------------------------------------------------------------

#: Requests admitted during set-up (the paper's warm-up requests).
PAPER_WARMUP = 15


def paper_fresh_inputs(seed: int) -> Tuple[List[Request], List[Request]]:
    """(warm-up requests, measured requests) on the reference 3-ring mesh.

    The warm-up requests are the same for every seed; the measured ones
    arrive after them and are drawn from the seed.
    """
    common = dict(n_rings=3, hosts_per_ring=4, arrival_rate=PAPER_ARRIVAL_RATE)
    warmup = fresh_requests(
        random.Random("paper-fresh:warmup"), PAPER_WARMUP, prefix="w", **common
    )
    measured = fresh_requests(
        random.Random(f"paper-fresh:{seed}"),
        PAPER_FRESH.n_decisions,
        prefix="r",
        start=warmup[-1].arrival,
        **common,
    )
    return warmup, measured


# ---------------------------------------------------------------------------
# cyclic-fixedpoint
# ---------------------------------------------------------------------------

CYCLIC_RINGS = 3
CYCLIC_HOSTS_PER_RING = 2
#: Fresh connections carry a quarter of the paper's traffic and ask for
#: deadlines in [70, 100] ms: light enough that the cycle always has a
#: stable bound, so every request is admitted after a full search and no
#: decision ends in the fixed point's divergence cap.
CYCLIC_SCALE = 0.25
CYCLIC_DEADLINE_MIN = 0.070
#: Light churn: every fresh connection departs just before the request
#: ``CYCLIC_HOLD`` places after its own, so each decision faces the
#: standing population plus ``CYCLIC_HOLD - 1`` fresh connections.
CYCLIC_HOLD = 3


def cyclic_inputs(seed: int) -> Tuple[List[Request], List[Request], List[Request]]:
    """(standing population, warm-up requests, measured requests).

    The standing population sends one connection from every ring to the
    ring two hops downstream on the one-way backbone; together their
    routes cover every inter-switch port twice and close the dependency
    cycle.  It never departs.  Standing and warm-up requests are the same
    for every seed.  Fresh requests are drawn like paper-fresh's, then
    scaled (``CYCLIC_SCALE``, ``CYCLIC_DEADLINE_MIN``) and spaced one
    simulated second apart with a ``CYCLIC_HOLD``-request lifetime.
    """
    standing = [
        Request(
            conn_id=f"ring-close-{i}",
            source=f"host{i}-1",
            dest=f"host{(i + 1) % CYCLIC_RINGS + 1}-1",
            c1=0.5 * C1,
            c2=0.5 * C2,
            deadline=DEADLINE_MAX,
            arrival=0.0,
            lifetime=math.inf,
        )
        for i in range(1, CYCLIC_RINGS + 1)
    ]

    def draw(rng: random.Random, n: int, prefix: str, first: int) -> List[Request]:
        out = []
        for k, req in enumerate(
            fresh_requests(rng, n, CYCLIC_RINGS, CYCLIC_HOSTS_PER_RING, 1.0, prefix)
        ):
            u = (req.deadline - DEADLINE_MIN) / (DEADLINE_MAX - DEADLINE_MIN)
            out.append(
                req._replace(
                    c1=CYCLIC_SCALE * req.c1,
                    c2=CYCLIC_SCALE * req.c2,
                    deadline=_uniform(u, CYCLIC_DEADLINE_MIN, DEADLINE_MAX),
                    arrival=float(first + k),
                    lifetime=CYCLIC_HOLD - 0.5,
                )
            )
        return out

    warmup = draw(random.Random("cyclic-fixedpoint:warmup"), CYCLIC_HOLD, "w", 1)
    measured = draw(
        random.Random(f"cyclic-fixedpoint:{seed}"),
        CYCLIC_FIXEDPOINT.n_decisions,
        "r",
        1 + CYCLIC_HOLD,
    )
    return standing, warmup, measured


# ---------------------------------------------------------------------------
# service-repeat
# ---------------------------------------------------------------------------

SERVICE_RINGS = 8
SERVICE_HOSTS_PER_RING = 4
#: Ring pairs (1,2), (3,4), (5,6), (7,8): four disjoint interference
#: components on the pairwise mesh.
SERVICE_PAIRS = tuple((a, a + 1) for a in range(1, SERVICE_RINGS, 2))
STANDING_PER_PAIR = 3
POOL_PER_PAIR = 1
#: Light per-connection load (rho = 4 Mbps): a pair holds its standing
#: population and its pool entry with ring bandwidth to spare, so every
#: pool admission succeeds against warm caches.
SERVICE_C1, SERVICE_C2 = 60_000.0, 30_000.0
SERVICE_DEADLINE = 0.09
#: Share of admissions addressed to an unknown host.
REFUSED_SHARE = 0.15
#: Closed-loop slots measured for ``decisions_per_s``.
CLOSED_LOOP_SLOTS = 2400
#: Open-loop slot rate, slots per second: a constant, so a faster program
#: faces the same offered load and shows lower latency.  It is about 15% of
#: the closed-loop capacity measured when the benchmark was introduced
#: (300-500 slots/s on a 2-core x86-64 container, depending on contention
#: from other tenants); README.md explains why not half.
OPEN_LOOP_RATE = 50.0


def _pool_spec(conn_id: str, a: int, b: int, j: int, factor: float) -> PoolSpec:
    return PoolSpec(
        conn_id=conn_id,
        source=f"host{a}-{j % SERVICE_HOSTS_PER_RING + 1}",
        dest=f"host{b}-{(j + 1) % SERVICE_HOSTS_PER_RING + 1}",
        c1=SERVICE_C1 * factor,
        c2=SERVICE_C2 * factor,
        deadline=SERVICE_DEADLINE,
    )


def _slots(rng: random.Random, n: int, n_pool: int, tag: str) -> List[Slot]:
    n_refused = round(REFUSED_SHARE * n)
    kinds = [True] * n_refused + [False] * (n - n_refused)
    rng.shuffle(kinds)
    picks = _balanced(rng, range(n_pool), n - n_refused)
    out = []
    for k, refused in enumerate(kinds):
        if refused:
            out.append(Slot(None, f"{tag}-refused-{k}"))
        else:
            out.append(Slot(picks.pop(), None))
    return out


def service_inputs(
    seed: int,
) -> Tuple[List[PoolSpec], List[PoolSpec], List[Slot], List[Slot]]:
    """(standing population, pool, open-loop slots, closed-loop slots).

    The standing population and the pool are the same for every seed, so
    every seed asks for the same decisions; the seed draws the slot order
    and which slots are refused.
    """
    fixed = random.Random("service-repeat:standing")
    rng = random.Random(f"service-repeat:{seed}")
    standing_jitter = _strata(fixed, STANDING_PER_PAIR * len(SERVICE_PAIRS))
    pool_jitter = _strata(fixed, POOL_PER_PAIR * len(SERVICE_PAIRS))
    standing, pool = [], []
    for a, b in SERVICE_PAIRS:
        for j in range(STANDING_PER_PAIR):
            factor = _uniform(standing_jitter.pop(), 1.0 - JITTER, 1.0 + JITTER)
            standing.append(_pool_spec(f"bg{a}-{j}", a, b, j, factor))
        for j in range(POOL_PER_PAIR):
            factor = _uniform(pool_jitter.pop(), 1.0 - JITTER, 1.0 + JITTER)
            pool.append(_pool_spec(f"pool{a}-{j}", a, b, STANDING_PER_PAIR + j, factor))
    open_slots = _slots(rng, SERVICE_REPEAT.n_decisions, len(pool), "open")
    closed_slots = _slots(rng, CLOSED_LOOP_SLOTS, len(pool), "closed")
    return standing, pool, open_slots, closed_slots


#: Destination of refused admissions: a host on a ring the network lacks.
UNKNOWN_HOST = f"host{SERVICE_RINGS + 1}-1"


def inputs_of(name: str, seed: int) -> tuple:
    if name == PAPER_FRESH.name:
        return paper_fresh_inputs(seed)
    if name == SERVICE_REPEAT.name:
        return service_inputs(seed)
    if name == CYCLIC_FIXEDPOINT.name:
        return cyclic_inputs(seed)
    raise KeyError(name)


def inputs_digest(inputs: tuple) -> str:
    """sha256 over the ``repr`` of a workload's generated inputs."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()
