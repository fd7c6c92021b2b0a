"""Span tracing of the program's layers, from the benchmark's own files.

:func:`install` monkeypatches the public entry point of each layer with a
wrapper that records one span per call -- name, start, end, parent span
and the id of the request it serves -- into an in-memory list; nothing
under ``src/`` changes.  Self time is a span's duration minus the time its
direct children cover.  Only the traced run (``--trace 1``) installs the
wrappers; end-to-end numbers come from untraced runs.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]


class Tracer:
    """Collects spans; single-threaded (the benchmark decides inline)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Request a root span serves; set by the workload runner (closed loop) or
        #: by the service's request handler (open loop).
        self.current_request: Optional[str] = None
        #: ``AdmissionResult.n_probes`` of every decision.
        self.probes: List[int] = []
        #: Every DelayAnalyzer / IncrementalDelayEngine built while tracing
        #: (their cache and reuse counters are read at the end).
        self.analyzers: List[Any] = []
        self.engines: List[Any] = []
        #: Cleared before the end-of-run checks so they record no spans.
        self.enabled = True

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            request = (
                self.current_request if parent is None else spans[parent].request
            )
            index = len(spans)
            # Placeholder carries the request id to children while running.
            spans.append(Span(name, 0.0, 0.0, parent, request))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, request)

        return traced


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: Dict[str, Tuple[int, float, float]] = {}
    for i, span in enumerate(spans):
        duration = span.end - span.start
        calls, total, own = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (calls + 1, total + duration, own + duration - child_time[i])
    return out


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

#: (module, attribute, span name) of module-level functions.  Functions
#: imported by name elsewhere in ``repro`` are patched there too.
_FUNCTIONS = (
    ("repro.envelopes.operations", "deconvolve", "envelopes.deconvolve"),
    ("repro.envelopes.operations", "busy_interval", "envelopes.busy_interval"),
    ("repro.envelopes.operations", "horizontal_deviation", "envelopes.horizontal_deviation"),
    ("repro.envelopes.operations", "vertical_deviation", "envelopes.vertical_deviation"),
    # The delay engine's shared-port analysis (OutputPortServer's FIFO
    # bound, computed once for all of a port's traversers).
    ("repro.core.delay", "_analyze_port", "atm.port_analyze"),
)
#: (module, class, method, span name).
_METHODS = (
    ("repro.fddi.mac_server", "FDDIMacServer", "analyze", "fddi.mac_analyze"),
    ("repro.interface_device.frame_cell", "FrameCellConversionServer", "analyze",
     "interface_device.frame_cell"),
    ("repro.core.delay", "DelayAnalyzer", "compute_with_resources", "core.delay.compute"),
    ("repro.core.delay", "DelayAnalyzer", "_solve_fixed_point", "core.delay.fixed_point"),
    ("repro.core.incremental", "IncrementalDelayEngine", "compute_with_resources",
     "core.incremental.compute"),
    ("repro.core.policies", "BetaPolicy", "select", "core.policies.select"),
    ("repro.core.cac", "AdmissionController", "request", "core.cac.request"),
    ("repro.core.cac", "AdmissionController", "release", "core.cac.release"),
    ("repro.service.journal", "JournalStore", "append", "service.journal_append"),
    ("repro.service.server", "AdmissionService", "_write_snapshot", "service.snapshot"),
    ("repro.service.shard", "ShardedAdmissionState", "resolve", "service.shard_resolve"),
    ("repro.service.server", "AdmissionService", "restore", "service.restore"),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every layer entry point; returns the function that undoes it."""
    import importlib

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for module_name, attr, span_name in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        traced = tracer.wrap(span_name, original)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module.__dict__.get(attr) is original:
                patch(module, attr, traced)

    for module_name, cls_name, method, span_name in _METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            patch(cls, method, classmethod(tracer.wrap(span_name, raw.__func__)))
        else:
            patch(cls, method, tracer.wrap(span_name, raw))

    from repro.core.cac import AdmissionController
    from repro.core.delay import DelayAnalyzer
    from repro.core.incremental import IncrementalDelayEngine
    from repro.service.server import AdmissionService

    traced_request = AdmissionController.__dict__["request"]

    def request(self, spec):
        result = traced_request(self, spec)
        if tracer.enabled:
            tracer.probes.append(result.n_probes)
        return result

    patch(AdmissionController, "request", request)

    def registering(cls: Any, registry: List[Any]) -> None:
        init = cls.__dict__["__init__"]

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if tracer.enabled:
                registry.append(self)

        patch(cls, "__init__", __init__)

    registering(DelayAnalyzer, tracer.analyzers)
    registering(IncrementalDelayEngine, tracer.engines)

    handle = AdmissionService.__dict__["_handle"]

    async def _handle(self, queued):
        tracer.current_request = queued.conn_id
        try:
            return await handle(self, queued)
        finally:
            tracer.current_request = None

    patch(AdmissionService, "_handle", _handle)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _hit_rate(analyzers: List[Any], cache: str) -> float:
    hits = misses = 0
    for analyzer in analyzers:
        stats = analyzer.cache_stats()[cache]
        hits += stats["hits"]
        misses += stats["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics the trace can give (see BENCHMARK.json)."""
    times = self_times(tracer.spans)

    def calls(name: str) -> float:
        return float(times.get(name, (0, 0.0, 0.0))[0])

    def total(name: str) -> float:
        return times.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return times.get(name, (0, 0.0, 0.0))[2]

    engine_stats = [e.stats() for e in tracer.engines]
    computed = sum(s["loads_computed"] for s in engine_stats)
    reused = sum(s["loads_reused"] for s in engine_stats)
    analysed = [p for p in tracer.probes if p > 0]
    decision_s = total("core.cac.request")
    return {
        "envelopes.deconvolve.calls": calls("envelopes.deconvolve"),
        "envelopes.deconvolve.self_s": own("envelopes.deconvolve"),
        "envelopes.busy_interval.self_s": own("envelopes.busy_interval"),
        "envelopes.deviation.self_s": own("envelopes.horizontal_deviation")
        + own("envelopes.vertical_deviation"),
        "fddi.mac_analyze.calls": calls("fddi.mac_analyze"),
        "fddi.mac_analyze.self_s": own("fddi.mac_analyze"),
        # Inclusive Theorem-1 time (its envelope kernels too) over decision
        # time: the quantity the ROADMAP's 55% profile share and its 25%
        # target describe.
        "fddi.mac_share": total("fddi.mac_analyze") / decision_s if decision_s else 0.0,
        "interface_device.frame_cell.self_s": own("interface_device.frame_cell"),
        "atm.port_analyze.calls": calls("atm.port_analyze"),
        "atm.port_analyze.self_s": own("atm.port_analyze"),
        "core.delay.compute.calls": calls("core.delay.compute"),
        "core.delay.compute.self_s": own("core.delay.compute"),
        "core.delay.fixed_point.calls": calls("core.delay.fixed_point"),
        "core.delay.fixed_point.self_s": own("core.delay.fixed_point"),
        "core.delay.stage_cache.hit_rate": _hit_rate(tracer.analyzers, "stage"),
        "core.delay.segment_cache.hit_rate": _hit_rate(tracer.analyzers, "segment"),
        "core.delay.chain_cache.hit_rate": _hit_rate(tracer.analyzers, "chain"),
        "core.incremental.reuse_fraction": reused / (computed + reused)
        if computed + reused
        else 0.0,
        "core.incremental.partial_computations": float(
            sum(s["partial_computations"] for s in engine_stats)
        ),
        "core.incremental.compute.self_s": own("core.incremental.compute"),
        "core.policies.probes_per_decision": sum(analysed) / len(analysed)
        if analysed
        else 0.0,
        "core.policies.select.self_s": own("core.policies.select"),
        "core.cac.request.self_s": own("core.cac.request"),
        "core.cac.release.calls": calls("core.cac.release"),
        "core.cac.release.self_s": own("core.cac.release"),
        "service.journal_append.calls": calls("service.journal_append"),
        "service.journal_append.self_s": own("service.journal_append"),
        "service.snapshot.calls": calls("service.snapshot"),
        "service.snapshot.self_s": own("service.snapshot"),
        "service.shard_resolve.self_s": own("service.shard_resolve"),
        "service.restore.self_s": own("service.restore"),
    }
