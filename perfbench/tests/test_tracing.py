"""Span bookkeeping: self time, parents, request ids, install/uninstall."""

import tracing
from tracing import Tracer, self_times


def _ticking_tracer():
    ticks = iter(range(1000))
    return Tracer(clock=lambda: float(next(ticks)))


def test_self_time_subtracts_direct_children_only():
    tracer = _ticking_tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def middle_body():
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        middle()
        leaf()

    outer = tracer.wrap("outer", outer_body)
    tracer.current_request = "req-1"
    outer()
    # Clock reads: outer 0, middle 1, leaf 2-3, middle end 4, leaf 5-6,
    # outer end 7.
    times = self_times(tracer.spans)
    assert times["outer"] == (1, 7.0, 7.0 - 3.0 - 1.0)
    assert times["middle"] == (1, 3.0, 2.0)
    assert times["leaf"] == (2, 2.0, 2.0)
    outer_span = tracer.spans[0]
    assert outer_span.parent is None
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert {s.request for s in tracer.spans} == {"req-1"}


def test_root_spans_take_the_current_request_and_survive_exceptions():
    tracer = _ticking_tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    tracer.current_request = "a"
    try:
        traced()
    except ValueError:
        pass
    tracer.current_request = "b"
    tracer.wrap("ok", lambda: 1)()
    assert [(s.name, s.request, s.end - s.start) for s in tracer.spans] == [
        ("boom", "a", 1.0),
        ("ok", "b", 1.0),
    ]
    assert tracer._stack == []


def test_disabled_tracer_records_nothing():
    tracer = _ticking_tracer()
    traced = tracer.wrap("x", lambda: 42)
    tracer.enabled = False
    assert traced() == 42
    assert tracer.spans == []


def test_install_wraps_every_layer_and_uninstall_restores_it():
    from repro.core.cac import AdmissionController
    from repro.envelopes import operations
    from repro.fddi import mac_server
    from repro.service.server import AdmissionService

    before = (
        AdmissionController.__dict__["request"],
        operations.deconvolve,
        mac_server.deconvolve,
        AdmissionService.__dict__["restore"],
    )
    tracer = Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert operations.deconvolve is not before[1]
        assert mac_server.deconvolve is operations.deconvolve
        assert isinstance(AdmissionService.__dict__["restore"], classmethod)
    finally:
        uninstall()
    after = (
        AdmissionController.__dict__["request"],
        operations.deconvolve,
        mac_server.deconvolve,
        AdmissionService.__dict__["restore"],
    )
    assert after == before


def test_layer_metrics_combine_spans_with_engine_and_cache_counters():
    class Engine:
        def stats(self):
            return {"loads_computed": 3, "loads_reused": 1, "partial_computations": 2}

    class Analyzer:
        def cache_stats(self):
            hits = {"hits": 3, "misses": 1}
            return {"stage": hits, "segment": hits, "chain": hits, "envelope": hits}

    tracer = _ticking_tracer()
    mac = tracer.wrap("fddi.mac_analyze", lambda: None)

    def decide():
        mac()

    tracer.wrap("core.cac.request", decide)()
    tracer.probes += [0, 4, 6]
    tracer.engines.append(Engine())
    tracer.analyzers += [Analyzer(), Analyzer()]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["fddi.mac_analyze.calls"] == 1.0
    assert metrics["fddi.mac_share"] == 1.0 / 3.0
    assert metrics["core.cac.request.self_s"] == 2.0
    assert metrics["core.policies.probes_per_decision"] == 5.0
    assert metrics["core.incremental.reuse_fraction"] == 0.25
    assert metrics["core.incremental.partial_computations"] == 2.0
    assert metrics["core.delay.stage_cache.hit_rate"] == 0.75
    assert metrics["core.delay.fixed_point.calls"] == 0.0
