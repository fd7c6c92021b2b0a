"""Scaling of timed intervals by the ticks that bracket them."""

import pytest

import speed
from speed import REFERENCE_S, Speedometer


def _meter(refs):
    """A speedometer whose clock advances one second per read and whose
    ticks measure ``refs`` in turn."""
    reads = iter(range(1000))
    meter = Speedometer(measure=iter(refs).__next__)
    meter.clock = lambda: float(next(reads))
    return meter


def test_an_interval_is_scaled_by_the_faster_bracketing_tick():
    meter = _meter([4 * REFERENCE_S, 2 * REFERENCE_S, 8 * REFERENCE_S])
    meter.tick()                      # clock 0-1, ref 4x
    started = meter.clock()           # 2
    raw, factor = meter.lap(started)  # ended 3, tick 4-5 ref 2x
    assert raw == 1.0
    assert factor == 0.5
    # A later interval [6, 7] lies between the 2x tick and the next one.
    meter.clock()
    meter.clock()
    meter.tick()                      # clock 8-9, ref 8x
    assert meter.factor(6.0, 7.0) == 0.5
    # An interval that spans a tick is scaled by the outermost ones.
    assert meter.factor(1.0, 8.0) == 0.25


def test_an_interval_without_a_tick_on_each_side_is_refused():
    meter = _meter([REFERENCE_S])
    meter.tick()                      # clock 0-1
    with pytest.raises(ValueError):
        meter.factor(2.0, 3.0)
    with pytest.raises(ValueError):
        meter.factor(-1.0, 0.5)


def test_the_reference_loop_allocates_no_tracked_objects():
    import gc

    speed.reference(10)
    before = gc.get_count()[0]
    speed.reference()
    assert gc.get_count()[0] == before
