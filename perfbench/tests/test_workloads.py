"""Input generation: determinism per seed, stratification, tail ranks."""

import math

import pytest

import workloads as wl
from stats import percentile, split_rounds, window_rates

#: Inputs digest of seed 1 per workload.  A change here changes what the
#: benchmark asks of the program and resets every baseline.
SEED_1_DIGESTS = {
    "paper-fresh": "bd2fbe178f93845d2652df65d42eecda24a13013b72ece52659a2b8cf8bea24a",
    "service-repeat": "c52fc5ee20eaf662439324ed218e4e3460aa3161024fde3ef9debf022ffa7a3a",
    "cyclic-fixedpoint": "93b920789039ed83b1d497e23b2051612f0931327bb1269ddf2c53415642e0b2",
}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    first = wl.inputs_digest(wl.inputs_of(name, 1))
    assert first == wl.inputs_digest(wl.inputs_of(name, 1))
    assert first == SEED_1_DIGESTS[name]
    assert first != wl.inputs_digest(wl.inputs_of(name, 2))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_recorded_tail_percentile_matches_the_op_count(name):
    workload = wl.WORKLOADS[name]
    assert workload.n_decisions % workload.tail_parts == 0
    assert workload.tail_q == wl.tail_percentile(workload.n_decisions // workload.tail_parts)


@pytest.mark.parametrize(
    "n, q",
    [(100, 90.0), (199, 90.0), (200, 95.0), (499, 95.0), (500, 98.0),
     (999, 98.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, q):
    assert wl.tail_percentile(n) == q
    beyond = n - math.ceil(q / 100.0 * n - 1e-9)
    assert beyond >= 10
    samples = list(range(n))
    assert sum(1 for s in samples if s > percentile(samples, q)) == beyond


def test_too_few_samples_have_no_tail():
    with pytest.raises(ValueError):
        wl.tail_percentile(99)


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50.0) == 3.0
    assert percentile(list(range(1, 101)), 90.0) == 90
    assert percentile(list(range(1, 101)), 99.0) == 99


def test_window_rates_use_consecutive_whole_windows():
    steps = [1.0, 1.0, 2.0, 4.0, 1.0]
    assert window_rates(steps, 2) == [2 / 2.0, 2 / 6.0]


def test_each_block_has_one_value_per_stratum():
    import random

    values = wl._strata(random.Random(3), 2 * wl.BLOCK + 5)
    for first, size in ((0, wl.BLOCK), (wl.BLOCK, wl.BLOCK), (2 * wl.BLOCK, 5)):
        block = values[first:first + size]
        assert sorted(int(v * size) for v in block) == list(range(size))


def test_paper_fresh_requests_cross_the_backbone_and_keep_arrival_order():
    warmup, measured = wl.paper_fresh_inputs(4)
    assert len(measured) == wl.PAPER_FRESH.n_decisions
    assert warmup == wl.paper_fresh_inputs(5)[0]
    times = [r.arrival for r in warmup + measured]
    assert times == sorted(times)
    for req in warmup + measured:
        assert req.source.split("-")[0] != req.dest.split("-")[0]
        assert wl.DEADLINE_MIN <= req.deadline <= wl.DEADLINE_MAX


def test_service_slots_have_a_fixed_refused_share():
    standing, pool, open_slots, closed_slots = wl.service_inputs(9)
    assert standing == wl.service_inputs(10)[0]
    for slots in (open_slots, closed_slots):
        refused = sum(1 for s in slots if s.pool is None)
        assert refused == round(wl.REFUSED_SHARE * len(slots))
        assert {s.pool for s in slots if s.pool is not None} == set(range(len(pool)))


def test_cyclic_requests_hold_for_a_fixed_number_of_requests():
    standing, warmup, measured = wl.cyclic_inputs(2)
    assert (standing, warmup) == wl.cyclic_inputs(3)[:2]
    arrivals = [r.arrival for r in warmup + measured]
    assert arrivals == [float(k) for k in range(1, len(arrivals) + 1)]
    assert {r.lifetime for r in warmup + measured} == {wl.CYCLIC_HOLD - 0.5}
    assert all(wl.CYCLIC_DEADLINE_MIN <= r.deadline <= wl.DEADLINE_MAX for r in measured)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_timed_phase_splits_into_whole_rounds(name):
    workload = wl.WORKLOADS[name]
    per_round = workload.n_decisions // wl.ROUNDS
    assert per_round * wl.ROUNDS == workload.n_decisions
    assert per_round >= workload.window


def test_split_rounds_cuts_equal_consecutive_parts():
    assert split_rounds(list(range(6)), 3) == [[0, 1], [2, 3], [4, 5]]
    with pytest.raises(ValueError):
        split_rounds(list(range(7)), 3)
