"""Unit tests for deviation / deconvolution operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelopes.curve import EPS, Curve
from repro.envelopes.operations import (
    busy_interval,
    deconvolve,
    horizontal_deviation,
    thin_index,
    vertical_deviation,
)
from repro.fddi import FDDIMacServer
from repro.fddi.token_ring_802_5 import TokenRing8025MacServer
from repro.traffic import DualPeriodicTraffic


class TestBusyInterval:
    def test_no_backlog_returns_zero(self):
        arrival = Curve.affine(0.0, 1.0)
        service = Curve.affine(0.0, 2.0)
        assert busy_interval(arrival, service) == 0.0

    def test_burst_drains_linearly(self):
        # 10 bits at t=0, service 2 bits/s: clears at t=5.
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        assert busy_interval(arrival, service) == pytest.approx(5.0)

    def test_unstable_returns_inf(self):
        arrival = Curve.affine(5.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(busy_interval(arrival, service))

    def test_staircase_service(self):
        # Burst of 10; service steps of 4 at t=1,2,3...
        arrival = Curve.constant(10.0)
        service = Curve(
            [0.0, 1.0, 2.0, 3.0], [0.0, 4.0, 8.0, 12.0], [0.0, 0.0, 0.0, 4.0]
        )
        # Caught up at t=3 (12 >= 10)... actually at the t=3 jump.
        assert busy_interval(arrival, service) == pytest.approx(3.0)

    def test_crossing_inside_segment(self):
        # Arrival: burst 10 then rate 1; service rate 3 -> crossing at t=5.
        arrival = Curve.affine(10.0, 1.0)
        service = Curve.affine(0.0, 3.0)
        assert busy_interval(arrival, service) == pytest.approx(5.0)

    def test_equal_rates_with_backlog_is_inf(self):
        arrival = Curve.affine(1.0, 2.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(busy_interval(arrival, service))


class TestVerticalDeviation:
    def test_simple_burst(self):
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        assert vertical_deviation(arrival, service) == pytest.approx(10.0)

    def test_zero_when_service_dominates(self):
        arrival = Curve.affine(0.0, 1.0)
        service = Curve.affine(5.0, 2.0)
        assert vertical_deviation(arrival, service) == 0.0

    def test_unstable_is_inf(self):
        arrival = Curve.affine(0.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(vertical_deviation(arrival, service))

    def test_supremum_before_service_jump(self):
        # Arrival climbs at rate 2; service jumps by 10 every 2s starting t=2.
        arrival = Curve.affine(0.0, 2.0)
        service = Curve([0.0, 2.0, 4.0], [0.0, 10.0, 20.0], [0.0, 0.0, 5.0])
        # Just before t=2 the backlog is 4; just before t=4, 8-10<0...
        assert vertical_deviation(arrival, service, t_max=4.0) == pytest.approx(4.0)

    def test_bounded_horizon(self):
        arrival = Curve.affine(0.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert vertical_deviation(arrival, service, t_max=10.0) == pytest.approx(10.0)


class TestHorizontalDeviation:
    def test_burst_over_link(self):
        # 10-bit burst, 2 bit/s link: last bit leaves after 5s.
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        assert horizontal_deviation(arrival, service) == pytest.approx(5.0)

    def test_token_bucket_through_rate_latency(self):
        # Classic result: delay = latency + burst / rate.
        arrival = Curve.affine(4.0, 1.0)
        service = Curve.rate_latency(rate=2.0, latency=3.0)
        assert horizontal_deviation(arrival, service) == pytest.approx(3.0 + 4.0 / 2.0)

    def test_zero_delay_when_service_instant(self):
        arrival = Curve.affine(0.0, 1.0)
        service = Curve.affine(100.0, 10.0)
        assert horizontal_deviation(arrival, service) == 0.0

    def test_unstable_is_inf(self):
        arrival = Curve.affine(0.0, 3.0)
        service = Curve.affine(0.0, 2.0)
        assert math.isinf(horizontal_deviation(arrival, service))

    def test_service_plateau_below_arrival_is_inf(self):
        arrival = Curve.constant(10.0)
        service = Curve.constant(5.0)  # never reaches 10
        assert math.isinf(horizontal_deviation(arrival, service))

    def test_staircase_service_delay(self):
        # One 10-bit burst at t=0; token staircase gives 6 bits at t=2, 12 at t=4.
        arrival = Curve.constant(10.0)
        service = Curve([0.0, 2.0, 4.0], [0.0, 6.0, 12.0], [0.0, 0.0, 3.0])
        assert horizontal_deviation(arrival, service) == pytest.approx(4.0)

    def test_continuous_arrival_across_plateau(self):
        # Arrival rate 1; staircase service: 5 at t=1, 10 at t=6 ...
        # A bit arriving just after t=5 (cumulative just over 5) waits until
        # t=6: delay just under 1.0 but the sup is ~1.0 (non-attained).
        arrival = Curve.affine(0.0, 1.0)
        service = Curve([0.0, 1.0, 6.0], [0.0, 5.0, 10.0], [0.0, 0.0, 1.0])
        d = horizontal_deviation(arrival, service)
        assert d == pytest.approx(1.0, abs=1e-6)


class TestDeconvolve:
    def test_infinite_busy_interval_rejected(self):
        a = Curve.affine(0.0, 2.0)
        s = Curve.affine(0.0, 1.0)
        with pytest.raises(ValueError):
            deconvolve(a, s, math.inf)

    def test_burst_through_link(self):
        # Burst 10 through a 2 bit/s link; busy interval 5.
        arrival = Curve.constant(10.0)
        service = Curve.affine(0.0, 2.0)
        out = deconvolve(arrival, service, t_limit=5.0)
        # Output in any window of length I is at most min(10, ...) and at
        # I=0 the whole backlog could already be in flight: O(0) >= A(0) - 0.
        assert out(0.0) >= 10.0 - 1e-9
        assert out.final_slope == pytest.approx(0.0)

    def test_output_dominates_necessary_lower_bound(self):
        # The output envelope must be at least A(I) - backlog-cleared bound;
        # in particular O(I) >= A(I) - A(0) shape-wise.  Check dominance over
        # a few sampled points against a brute-force sup.
        arrival = Curve.from_points([(0.0, 4.0), (2.0, 6.0)], final_slope=1.0)
        service = Curve.affine(0.0, 3.0)
        b = busy_interval(arrival, service)
        out = deconvolve(arrival, service, t_limit=b)

        for big_i in np.linspace(0.0, 8.0, 33):
            ts = np.linspace(0.0, b, 200)
            brute = max(arrival(t + big_i) - service(t) for t in ts)
            assert out(big_i) >= brute - 1e-6

    def test_smoothing_by_zero_busy_interval(self):
        # t_limit=0 reduces to O(I) = A(I).
        arrival = Curve.affine(5.0, 1.0)
        service = Curve.affine(0.0, 100.0)
        out = deconvolve(arrival, service, t_limit=0.0)
        for t in [0.0, 1.0, 3.0]:
            assert out(t) == pytest.approx(arrival(t))

    def test_monotone_nondecreasing(self):
        arrival = Curve.from_points([(0.0, 2.0), (1.0, 2.0), (1.5, 5.0)], final_slope=0.5)
        service = Curve.affine(0.0, 2.0)
        b = busy_interval(arrival, service)
        out = deconvolve(arrival, service, t_limit=b)

        grid = np.linspace(0, 10, 101)
        vals = out(grid)
        assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))


# ----------------------------------------------------------------------
# Banded branch 2 of deconvolve: bit-identical to the dense evaluation
# ----------------------------------------------------------------------

def _dense_deconvolve(arrival, service, t_limit, i_max=None, max_breakpoints=512):
    """``deconvolve`` as it was before branch 2 was banded.

    Branch 2 evaluates every cell of the |I| x |A| matrix and masks the
    invalid ones; the thinning index is the per-element set comprehension.
    """
    t_limit = max(0.0, t_limit)
    if i_max is None:
        i_max = arrival.last_breakpoint + t_limit + EPS
    inner = service.xs[(service.xs > 0.0) & (service.xs < t_limit)]
    nudge_src = np.concatenate([service.xs, [t_limit]])
    nudge_src = nudge_src[(nudge_src > 0.0) & (nudge_src <= t_limit)]
    nudged = np.maximum(0.0, nudge_src - 1e-9 * np.maximum(1.0, nudge_src))
    t_base = np.unique(np.concatenate([[0.0, t_limit], inner, nudged]))
    diffs = (arrival.xs[:, None] - t_base[None, :]).ravel()
    diffs = diffs[(diffs > 0.0) & (diffs < i_max)]
    ax_inner = arrival.xs[(arrival.xs > 0.0) & (arrival.xs < i_max)]
    i_arr = np.unique(np.concatenate([[0.0, float(i_max)], diffs, ax_inner]))
    thinned = len(i_arr) > max_breakpoints
    if thinned:
        step = len(i_arr) / float(max_breakpoints)
        idx = sorted({0, len(i_arr) - 1} | {int(k * step) for k in range(max_breakpoints)})
        i_arr = i_arr[np.asarray(idx)]
    pts = t_base[None, :] + i_arr[:, None]
    values = np.max(arrival(pts) - service(t_base)[None, :], axis=1)
    t_mat = arrival.xs[None, :] - i_arr[:, None]
    valid = (t_mat >= 0.0) & (t_mat <= t_limit)
    s_vals = service(np.where(valid, t_mat, 0.0).ravel()).reshape(t_mat.shape)
    branch2 = np.where(valid, arrival.ys[None, :] - s_vals, -math.inf)
    values = np.maximum.accumulate(np.maximum(values, np.max(branch2, axis=1)))
    if thinned:
        ys = np.concatenate([values[1:], values[-1:]])
        slopes = np.concatenate([np.zeros(len(i_arr) - 1), [arrival.final_slope]])
        return Curve(i_arr, ys, slopes, validate=False).simplify()
    return Curve.from_breakpoints(i_arr, values, final_slope=arrival.final_slope).simplify()


def _assert_matches_dense(arrival, service, t_limit, **kwargs):
    got = deconvolve(arrival, service, t_limit, **kwargs)
    want = _dense_deconvolve(arrival, service, t_limit, **kwargs)
    assert np.array_equal(got.xs, want.xs)
    assert np.array_equal(got.ys, want.ys)
    assert np.array_equal(got.slopes, want.slopes)


def _dual_periodic(c1, p1, n_bursts, duty, horizon):
    c2 = c1 / n_bursts
    return DualPeriodicTraffic(c1=c1, p1=p1, c2=c2, p2=duty * p1 / n_bursts).envelope(horizon)


def _mac_staircase(kind, alloc, period, n_steps):
    if kind == "fddi":
        return FDDIMacServer(alloc, period, 100e6).availability(n_steps)
    return TokenRing8025MacServer(alloc, period, 16e6).availability(n_steps)


class TestDeconvolveBandExactness:
    """``deconvolve`` equals the dense oracle bit for bit (``np.array_equal``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["fddi", "802.5"]),
        alloc_frac=st.floats(0.05, 0.5),
        period=st.floats(0.004, 0.02),
        n_steps=st.sampled_from([8, 32, 128]),
        c1=st.floats(2_000.0, 60_000.0),
        p1=st.floats(0.01, 0.2),
        n_bursts=st.integers(1, 6),
        duty=st.floats(0.2, 1.0),
        limit=st.sampled_from(["busy", "zero", "breakpoint", "fraction"]),
        frac=st.floats(0.0, 3.0),
        max_breakpoints=st.sampled_from([512, 64]),
    )
    def test_matches_dense_oracle(
        self, kind, alloc_frac, period, n_steps, c1, p1, n_bursts, duty, limit, frac,
        max_breakpoints,
    ):
        service = _mac_staircase(kind, alloc_frac * period, period, n_steps)
        arrival = _dual_periodic(c1, p1, n_bursts, duty, horizon=3 * p1)
        if limit == "zero":
            t_limit = 0.0
        elif limit == "breakpoint":
            t_limit = float(service.xs[min(len(service.xs) - 1, 1 + int(frac * 5))])
        elif limit == "busy":
            t_limit = busy_interval(arrival, service)
            if math.isinf(t_limit):
                t_limit = frac * period * n_steps
        else:
            t_limit = frac * period * n_steps
        _assert_matches_dense(arrival, service, t_limit, max_breakpoints=max_breakpoints)

    def test_zero_busy_interval(self):
        service = _mac_staircase("fddi", 0.002, 0.008, 32)
        _assert_matches_dense(_dual_periodic(40_000.0, 0.05, 4, 0.5, 0.2), service, 0.0)

    def test_limit_on_service_breakpoint(self):
        service = _mac_staircase("802.5", 0.001, 0.01, 32)
        arrival = _dual_periodic(8_000.0, 0.03, 3, 0.6, 0.1)
        for k in (1, 2, 5, 17):
            _assert_matches_dense(arrival, service, float(service.xs[k]))

    def test_rows_with_empty_band(self):
        # Arrival breakpoints 10 s apart, busy interval 1 s: every I in a gap
        # (and the horizon row) has no arrival breakpoint in [I, I + 1].
        arrival = Curve([0.0, 10.0, 20.0], [5.0, 10.0, 15.0], [0.0, 0.0, 0.2])
        service = Curve([0.0, 0.5], [0.0, 4.0], [0.0, 8.0])
        _assert_matches_dense(arrival, service, 1.0, i_max=50.0)

    def test_thinned_grid(self):
        service = _mac_staircase("fddi", 0.001, 0.004, 128)
        arrival = _dual_periodic(50_000.0, 0.02, 5, 0.5, 0.5)
        _assert_matches_dense(arrival, service, 0.3)
        out = deconvolve(arrival, service, 0.3)
        # Only the thinned path returns a staircase through <= 514 samples.
        assert len(out.xs) <= 514 and np.all(out.slopes[:-1] == 0.0)

    def test_thin_index_matches_set_comprehension(self):
        m = 512
        for n in range(m + 1, 5001):
            step = n / float(m)
            want = sorted({0, n - 1} | {int(k * step) for k in range(m)})
            assert np.array_equal(thin_index(n, m), want), n
