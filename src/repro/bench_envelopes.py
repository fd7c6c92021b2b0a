"""Tracked envelope-algebra benchmarks: ``python -m repro bench --suite envelopes``.

Micro tier: each vectorized hot kernel (pointwise minimum, addition, n-ary
sum, horizontal deviation, batched pseudo-inverse, Theorem 1(4)
deconvolution) timed on deterministic curve pairs at 10 / 100 / 1000
segments, against the pure-Python reference implementation of
:mod:`repro.envelopes.reference`.  The committed
``BENCH_envelopes.json`` records ``speedup_vs_reference`` — the acceptance
gate is >= 3x on the 100-segment min/add/deviation kernels.

Macro tier: a figure-7-shaped slice (three 20-request admission
simulations at beta = 0, 0.5, 1) whose decision trajectory — admitted /
rejected counts and the admission probability, exactly — is committed with
the JSON.  In exact mode (the default ``AnalysisConfig``) the trajectory is
bit-reproducible, so CI re-runs the macro and fails on any divergence from
the committed file (``--check``).
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.envelopes import reference as ref
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.operations import busy_interval, deconvolve, horizontal_deviation
from repro.envelopes.staircase import timed_token_staircase
from repro.units import US_PER_S

#: Micro-bench segment counts (the quick tier drops the largest).
SEGMENT_SIZES = (10, 100, 1000)
#: The macro tier's beta sweep (figure 7's x-axis, coarsened).
MACRO_BETAS = (0.0, 0.5, 1.0)
MACRO_UTILIZATION = 0.6
MACRO_REQUESTS = 20
MACRO_WARMUP = 4
MACRO_SEED = 1


@dataclasses.dataclass(frozen=True)
class EnvelopeBenchResult:
    """One kernel at one size: vectorized vs reference medians (seconds).

    The reference fields are ``None`` where the reference is not timed.
    """

    name: str
    segments: int
    rounds: int
    median_s: float
    p90_s: float
    ref_median_s: Optional[float]
    speedup_vs_reference: Optional[float]


def _time_rounds(fn: Callable[[], object], rounds: int, warmup: int) -> List[float]:
    times: List[float] = []
    for _ in range(rounds + warmup):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times[warmup:]


def _p90(times: List[float]) -> float:
    ordered = sorted(times)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


# ----------------------------------------------------------------------
# Deterministic curve fixtures
# ----------------------------------------------------------------------

def _staircase(n: int, gap: float, burst: float, rate: float) -> Curve:
    """A deterministic n-segment staircase with mildly irregular jumps."""
    ks = np.arange(float(n))
    xs = ks * gap
    ys = (ks + 1.0) * burst + 37.0 * (ks % 5)
    slopes = np.zeros(n)
    slopes[-1] = rate
    return Curve(xs, ys, slopes, validate=False)


def _ramped(n: int, gap: float, step: float, rate: float) -> Curve:
    """A continuous piecewise-linear curve with alternating slopes."""
    ks = np.arange(float(n))
    xs = ks * gap
    seg_slopes = np.where(ks % 2 == 0, rate * 1.6, rate * 0.4)
    ys = np.concatenate([[step], step + np.cumsum(seg_slopes[:-1]) * gap])
    return Curve(xs, ys, seg_slopes, validate=False)


def _fixtures(n: int) -> Dict[str, Curve]:
    arrival = _staircase(n, gap=0.0021, burst=1200.0, rate=4.0e5)
    other = _ramped(n, gap=0.0017, step=900.0, rate=4.5e5)
    # Service staircase: strictly faster long-term rate, zero at the origin,
    # so busy interval and deviations are finite and non-trivial.
    ks = np.arange(float(n))
    service = Curve(
        ks * 0.0019,
        ks * 1900.0,
        np.concatenate([np.zeros(n - 1), [1.1e6]]),
        validate=False,
    )
    # Theorem 1(4) inputs: an n-step timed-token availability staircase and
    # an arrival staircase whose 16 ms busy interval spans a few service
    # steps.  The candidate grid is about 3n points, so the 1000-segment
    # case is thinned to 512.
    tt_service = timed_token_staircase(0.002, 0.008, 1.0e8, n_steps=n)
    tt_arrival = _staircase(n, gap=0.003, burst=30000.0, rate=1.0e7)
    return {
        "arrival": arrival,
        "other": other,
        "service": service,
        "tt_service": tt_service,
        "tt_arrival": tt_arrival,
    }


# ----------------------------------------------------------------------
# Micro tier
# ----------------------------------------------------------------------

def _micro_kernels(fx: Dict[str, Curve]) -> Dict[str, Dict[str, Callable[[], object]]]:
    a, b, s = fx["arrival"], fx["other"], fx["service"]
    sum_inputs = [a, b, a.shift_right(0.0013), b.shift_right(0.0007)]
    inv_values = np.linspace(0.0, float(a(0.5)), 256)
    tt_a, tt_s = fx["tt_arrival"], fx["tt_service"]
    busy = busy_interval(tt_a, tt_s)
    deconv: Dict[str, Callable[[], object]] = {"vec": lambda: deconvolve(tt_a, tt_s, busy)}
    if len(tt_a.xs) < 1000:
        # The reference neither thins nor finishes in seconds at 1000
        # segments (~7 s per call), so it is timed below that only.
        deconv["ref"] = lambda: ref.ref_deconvolve(tt_a, tt_s, busy)
    return {
        "min": {
            "vec": lambda: a.minimum(b),
            "ref": lambda: ref.ref_minimum(a, b),
        },
        "add": {
            "vec": lambda: a + b,
            "ref": lambda: ref.ref_add(a, b),
        },
        "deviation": {
            "vec": lambda: horizontal_deviation(a, s),
            "ref": lambda: ref.ref_horizontal_deviation(a, s),
        },
        "sum4": {
            "vec": lambda: sum_curves(sum_inputs),
            "ref": lambda: ref.ref_sum(sum_inputs),
        },
        "pseudo_inverse_many": {
            "vec": lambda: a.pseudo_inverse_many(inv_values),
            "ref": lambda: [ref.ref_pseudo_inverse(a, float(y)) for y in inv_values],
        },
        "deconvolve": deconv,
    }


def run_micro_benches(quick: bool = False) -> List[EnvelopeBenchResult]:
    sizes = SEGMENT_SIZES[:-1] if quick else SEGMENT_SIZES
    results: List[EnvelopeBenchResult] = []
    for n in sizes:
        fx = _fixtures(n)
        kernels = _micro_kernels(fx)
        # The reference implementations are O(n^2) or worse; keep their
        # round counts small at the largest size.
        rounds, warmup = (5, 1) if n >= 1000 else (9, 2)
        for name, impls in kernels.items():
            t_vec = _time_rounds(impls["vec"], rounds, warmup)
            median = statistics.median(t_vec)
            ref_median: Optional[float] = None
            speedup: Optional[float] = None
            if "ref" in impls:
                ref_rounds = 3 if n >= 1000 else rounds
                ref_median = statistics.median(_time_rounds(impls["ref"], ref_rounds, 1))
                speedup = ref_median / median if median > 0 else 0.0
            results.append(
                EnvelopeBenchResult(
                    name=name,
                    segments=n,
                    rounds=rounds,
                    median_s=median,
                    p90_s=_p90(t_vec),
                    ref_median_s=ref_median,
                    speedup_vs_reference=speedup,
                )
            )
    return results


# ----------------------------------------------------------------------
# Macro tier: figure-7-shaped decision trajectory
# ----------------------------------------------------------------------

def run_macro_bench() -> Dict[str, Any]:
    """Three small figure-7 points (beta sweep); exact-mode trajectory.

    The returned ``trajectory`` is deterministic in exact mode: the same
    seed, workload, and analysis produce bit-identical admission decisions,
    so CI compares it field-by-field against the committed JSON.
    """
    from repro.sim.connection_sim import ConnectionSimConfig, ConnectionSimulator

    trajectory: List[Dict[str, Any]] = []
    t0 = time.perf_counter()
    for beta in MACRO_BETAS:
        cfg = ConnectionSimConfig(
            utilization=MACRO_UTILIZATION,
            beta=beta,
            seed=MACRO_SEED,
            n_requests=MACRO_REQUESTS,
            warmup_requests=MACRO_WARMUP,
        )
        res = ConnectionSimulator(cfg).run()
        m = res.metrics
        trajectory.append(
            {
                "beta": beta,
                "utilization": MACRO_UTILIZATION,
                "n_requests": m.n_requests,
                "n_admitted": m.n_admitted,
                "n_rejected_cac": m.n_rejected_cac,
                # Full float repr — exact-mode runs must reproduce this bit
                # for bit; any drift means the refactor changed a decision.
                "admission_probability": repr(res.admission_probability),
            }
        )
    elapsed = time.perf_counter() - t0
    return {
        "scenario": (
            f"figure7-shaped: U={MACRO_UTILIZATION}, "
            f"{MACRO_REQUESTS} requests, seed={MACRO_SEED}"
        ),
        "total_s": elapsed,
        "trajectory": trajectory,
    }


def check_macro_trajectory(
    current: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Field-by-field divergence list between two macro payloads."""
    problems: List[str] = []
    cur = current.get("trajectory")
    ref_traj = committed.get("trajectory")
    if not isinstance(cur, list) or not isinstance(ref_traj, list):
        return ["macro payload missing 'trajectory' list"]
    if len(cur) != len(ref_traj):
        return [f"trajectory length {len(cur)} != committed {len(ref_traj)}"]
    for i, (got, want) in enumerate(zip(cur, ref_traj)):
        for field in (
            "beta",
            "utilization",
            "n_requests",
            "n_admitted",
            "n_rejected_cac",
            "admission_probability",
        ):
            if got.get(field) != want.get(field):
                problems.append(
                    f"trajectory[{i}].{field}: {got.get(field)!r} != "
                    f"committed {want.get(field)!r}"
                )
    return problems


# ----------------------------------------------------------------------
# Entry point (dispatched from repro.bench)
# ----------------------------------------------------------------------

def run_benches(quick: bool = False) -> Dict[str, Any]:
    results = run_micro_benches(quick=quick)
    macro = run_macro_bench()
    return {
        "benchmark": "repro-envelopes",
        "quick": quick,
        "results": [dataclasses.asdict(r) for r in results],
        "macro": macro,
    }


def format_report(payload: Dict[str, Any]) -> str:
    lines = [
        "Envelope-kernel benchmarks"
        + (" (quick)" if payload["quick"] else "")
        + " — vectorized vs pure-Python reference",
        "",
        f"  {'kernel':22s} {'segs':>5s} {'median':>10s} {'reference':>11s} {'speedup':>8s}",
    ]
    for r in payload["results"]:
        if r["ref_median_s"] is None:
            versus = f"{'-':>11s} {'-':>8s}"
        else:
            versus = (
                f"{r['ref_median_s'] * US_PER_S:9.1f}us "
                f"{r['speedup_vs_reference']:7.1f}x"
            )
        lines.append(
            f"  {r['name']:22s} {r['segments']:5d} "
            f"{r['median_s'] * US_PER_S:8.1f}us {versus}"
        )
    macro = payload["macro"]
    lines.append("")
    lines.append(f"  macro ({macro['scenario']}): {macro['total_s']:.2f}s")
    for point in macro["trajectory"]:
        lines.append(
            f"    beta={point['beta']}: {point['n_admitted']}/{point['n_requests']}"
            f" admitted, AP={point['admission_probability']}"
        )
    return "\n".join(lines)


def gate_failures(payload: Dict[str, Any]) -> List[str]:
    """Acceptance-gate violations (the >=3x rule on 100-segment kernels)."""
    problems: List[str] = []
    for r in payload["results"]:
        if r["segments"] == 100 and r["name"] in ("min", "add", "deviation"):
            if r["speedup_vs_reference"] < 3.0:
                problems.append(
                    f"{r['name']}@100 segments: speedup "
                    f"{r['speedup_vs_reference']:.2f}x < 3x"
                )
    return problems


def run_and_check(
    quick: bool = False, committed: Optional[Dict[str, Any]] = None
) -> Tuple[Dict[str, Any], List[str]]:
    """Run the suite; return (payload, problems) where problems fail CI."""
    payload = run_benches(quick=quick)
    problems = list(gate_failures(payload))
    if committed is not None:
        problems.extend(
            check_macro_trajectory(payload["macro"], committed.get("macro", {}))
        )
    return payload, problems
