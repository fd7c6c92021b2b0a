"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload paper-fresh --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``;
without it the command exits with status 2 and prints no result.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it (``summary ...``) records the tail rank and sample
count, the inputs and decisions digests and every check.  The exit
status is 1 when any correctness check failed.

Each workload does a fixed, seed-determined amount of work, sized to
take roughly ``--seconds`` on a 2-core x86-64 container; ``--seconds``
is recorded but never changes the work, so every run of a seed is
identical and every percentile has a fixed rank.  Every time metric is
on the reference scale of ``speed.py``; the summary line also gives the
raw wall times.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from speed import Speedometer  # noqa: E402
from stats import percentile, split_rounds  # noqa: E402

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "decisions_per_s": "1/s",
    "admission_probability": "ratio",
    "peak_rss_mb": "MB",
}
#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "envelopes.deconvolve.calls": "count",
    "envelopes.deconvolve.self_s": "s",
    "envelopes.busy_interval.self_s": "s",
    "envelopes.deviation.self_s": "s",
    "fddi.mac_analyze.calls": "count",
    "fddi.mac_analyze.self_s": "s",
    "fddi.mac_share": "ratio",
    "interface_device.frame_cell.self_s": "s",
    "atm.port_analyze.calls": "count",
    "atm.port_analyze.self_s": "s",
    "core.delay.compute.calls": "count",
    "core.delay.compute.self_s": "s",
    "core.delay.fixed_point.calls": "count",
    "core.delay.fixed_point.self_s": "s",
    "core.delay.stage_cache.hit_rate": "ratio",
    "core.delay.segment_cache.hit_rate": "ratio",
    "core.delay.chain_cache.hit_rate": "ratio",
    "core.incremental.reuse_fraction": "ratio",
    "core.incremental.partial_computations": "count",
    "core.incremental.compute.self_s": "s",
    "core.policies.probes_per_decision": "count",
    "core.policies.select.self_s": "s",
    "core.cac.request.self_s": "s",
    "core.cac.release.calls": "count",
    "core.cac.release.self_s": "s",
    "service.queue_wait_p50_ms": "ms",
    "service.journal_append.calls": "count",
    "service.journal_append.self_s": "s",
    "service.snapshot.calls": "count",
    "service.snapshot.self_s": "s",
    "service.shard_resolve.self_s": "s",
    "service.restore.self_s": "s",
    "service.ladder_non_exact": "count",
    "loadgen.late_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
}


#: Import measurements per run: this process's own and the rest in fresh
#: interpreters after the timed phases.  ``setup_s`` counts their median,
#: so one burst of contention during the single real import cannot move it.
IMPORT_REPS = 5
#: Decisions digests recorded for the seeds the benchmark was proved on.
DIGESTS = os.path.join(HERE, "digests.json")


def _import_program() -> Tuple[float, float]:
    """Import every layer the workloads use, the first ``import repro`` of
    the process; returns (raw, scaled) seconds."""
    speed = Speedometer()
    speed.tick()
    started = speed.clock()
    sys.path.insert(0, SRC)
    import repro.config  # noqa: F401
    import repro.core.cac  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.topo.generators  # noqa: F401

    raw, factor = speed.lap(started)
    return raw, raw * factor


def _median_import_s(own: Tuple[float, float]) -> Tuple[float, float]:
    """Medians of ``own`` and of the same measurement in fresh interpreters."""
    times = [own]
    for _ in range(IMPORT_REPS - 1):
        done = subprocess.run(
            [sys.executable, "-c", "import run; print(*run._import_program())"],
            cwd=HERE, capture_output=True, text=True, timeout=60, check=True,
        )
        raw, scaled = done.stdout.split()
        times.append((float(raw), float(scaled)))
    return (
        statistics.median(raw for raw, _ in times),
        statistics.median(scaled for _, scaled in times),
    )


def _recorded_digest(workload: str, seed: int):
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _untraced_timed_s(args: argparse.Namespace) -> float:
    """Timed-phase seconds of an untraced run of the same seed, measured in
    a fresh process so that neither run warms the other's caches."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    for line in done.stdout.splitlines():
        if line.startswith("summary "):
            return float(json.loads(line[len("summary "):])["timed_s"])
    raise RuntimeError("untraced run printed no summary")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    own_import_s = _import_program()

    import checks
    import tracing
    from harness import RUNNERS

    workload = wl.WORKLOADS[args.workload]
    untraced_s = _untraced_timed_s(args) if args.trace else None
    tracer = uninstall = None
    if args.trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    try:
        outcome = RUNNERS[workload.name](args.seed, tracer, workdir)
    finally:
        if uninstall is not None:
            uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    raw_import_s, import_s = _median_import_s(own_import_s)
    log = outcome.checks
    recorded = _recorded_digest(workload.name, args.seed)
    if recorded is not None:
        log.record("decisions_digest", checks.digest_matches(recorded, outcome.decisions_digest))
    latencies = outcome.latencies_s
    if len(latencies) != workload.n_decisions:
        raise RuntimeError(
            f"{len(latencies)} latency samples, expected {workload.n_decisions}"
        )
    if args.trace:
        values = tracing.layer_metrics(tracer)
        values.update({
            "service.queue_wait_p50_ms": 1e3 * statistics.median(outcome.queue_wait_s)
            if outcome.queue_wait_s else 0.0,
            "service.ladder_non_exact": float(outcome.ladder_non_exact),
            "loadgen.late_p50_ms": 1e3 * statistics.median(outcome.late_s)
            if outcome.late_s else 0.0,
            "trace.overhead_frac": outcome.timed_s / untraced_s - 1.0,
        })
        units = PER_LAYER
    else:
        values = {
            "setup_s": import_s + statistics.median(outcome.setup_times_s),
            "decision_p50_ms": 1e3 * percentile(latencies, 50.0),
            "decision_tail_ms": 1e3 * statistics.median(
                percentile(part, workload.tail_q)
                for part in split_rounds(latencies, workload.tail_parts)
            ),
            "decisions_per_s": statistics.median(outcome.window_rates),
            "admission_probability": outcome.n_admitted / outcome.n_requested,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_digest": wl.inputs_digest(wl.inputs_of(workload.name, args.seed)),
        "decisions_digest": outcome.decisions_digest,
        "digest_recorded": recorded is not None,
        "tail_percentile": workload.tail_q,
        "tail_parts": workload.tail_parts,
        "latency_samples": len(latencies),
        "import_s": import_s,
        "setup_reps_s": outcome.setup_times_s,
        "timed_s": outcome.timed_s,
        "raw_import_s": raw_import_s,
        "raw_setup_reps_s": outcome.raw_setup_times_s,
        "raw_decision_p50_ms": 1e3 * percentile(outcome.raw_latencies_s, 50.0),
        "ticks": len(outcome.speed.refs),
        "tick_p50_ms": 1e3 * statistics.median(outcome.speed.refs),
        "ops": outcome.ops,
        "failed_ops": outcome.failed_ops,
        "checks": {name: not problems for name, problems in log.results},
    }
    for line in log.report():
        print(line)
    print("summary " + json.dumps(summary, sort_keys=True))
    failed = outcome.failed_ops + log.failed
    result = {
        "correct": failed == 0,
        "attempted": outcome.ops + log.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
