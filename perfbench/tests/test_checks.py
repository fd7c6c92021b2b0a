"""Every correctness check passes on honest state and trips on a planted
violation."""

import dataclasses

import pytest

import checks


@pytest.fixture(scope="module")
def controller():
    from repro.config import CACConfig, build_network
    from repro.core.cac import AdmissionController
    from repro.network.connection import ConnectionSpec
    from repro.traffic.dual_periodic import DualPeriodicTraffic

    cac = AdmissionController(build_network(), cac_config=CACConfig(beta=0.5))
    traffic = DualPeriodicTraffic(c1=60_000.0, p1=0.015, c2=30_000.0, p2=0.005)
    for conn_id, src, dst in (("a", "host1-1", "host2-1"), ("b", "host2-2", "host3-2")):
        assert cac.request(ConnectionSpec(conn_id, src, dst, traffic, 0.09)).admitted
    return cac


def test_bounds_check(controller):
    assert checks.bounds_within_deadlines(checks.record_bounds(controller)) == []
    record = controller.connections["a"]
    honest = record.delay_bound
    try:
        record.delay_bound = record.spec.deadline * 1.5
        problems = checks.bounds_within_deadlines(checks.record_bounds(controller))
    finally:
        record.delay_bound = honest
    assert len(problems) == 1 and problems[0].startswith("a:")
    assert checks.bounds_within_deadlines([("x", None, 1.0)])


def test_incremental_equals_full_check(controller, monkeypatch):
    assert checks.incremental_matches_full(controller) == []
    honest = controller.evaluate

    def scaled(candidate):
        reports = dict(honest(candidate))
        reports["b"] = dataclasses.replace(
            reports["b"], total_delay=reports["b"].total_delay * 1.001
        )
        return reports

    monkeypatch.setattr(controller, "evaluate", scaled)
    problems = checks.incremental_matches_full(controller)
    assert len(problems) == 1 and problems[0].startswith("b:")
    monkeypatch.setattr(controller, "evaluate", lambda candidate: None)
    assert checks.incremental_matches_full(controller)


def test_leak_check(controller):
    assert checks.allocation_leaks(controller.audit_allocations()) == []
    ring = controller.topology.rings["ring1"]
    ring.allocate("phantom", 1e-4)
    try:
        problems = checks.allocation_leaks(controller.audit_allocations())
    finally:
        ring.release("phantom")
    assert len(problems) == 1 and problems[0].startswith("ring1:")


def test_signature_check():
    assert checks.signatures_match("abc", "abc") == []
    assert checks.signatures_match("abc", "abd")


def test_ladder_check():
    from repro.config import ServiceConfig
    from repro.service.degrade import DegradationLadder

    ladder = DegradationLadder(ServiceConfig())
    assert checks.ladder_stayed_exact(ladder) == []
    for _ in range(64):
        ladder.observe(10.0)
    assert ladder.transitions
    assert checks.ladder_stayed_exact(ladder)


def test_check_log_counts_attempts_and_failures():
    log = checks.CheckLog()
    log.record("fine", [])
    log.record("broken", ["x"])
    assert (log.attempted, log.failed) == (2, 1)
    assert log.report() == ["check fine: ok", "check broken: FAILED", "  x"]


def test_digest_check():
    assert checks.digest_matches("ab" * 32, "ab" * 32) == []
    assert checks.digest_matches("ab" * 32, "cd" * 32)


def test_recorded_digests_cover_the_proof_seeds():
    import run

    for name in ("paper-fresh", "service-repeat", "cyclic-fixedpoint"):
        for seed in list(range(1, 11)) + [1009]:
            assert len(run._recorded_digest(name, seed)) == 64
