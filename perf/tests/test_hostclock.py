"""The host-speed clock: wall instants read against the probes around them."""

import pytest

from perf.hostclock import REFERENCE_S, SENSITIVITY, HostClock, WallClock


def _clock(*probes):
    clock = HostClock()
    clock.probes = list(probes)
    return clock


def test_on_a_quiet_host_the_clock_is_the_wall_clock_less_the_probes():
    quiet = REFERENCE_S
    clock = _clock((0.0, quiet), (1.0, 1.0 + quiet), (3.0, 3.0 + quiet))
    assert clock.reading(quiet) == 0.0
    assert clock.reading(0.5) == pytest.approx(0.5 - quiet)
    # Across a probe the clock stands still.
    assert clock.reading(1.0) == clock.reading(1.0 + quiet)
    assert clock.reading(2.0) - clock.reading(1.5) == pytest.approx(0.5)


def test_work_between_slow_probes_counts_for_less():
    slow = 2 * REFERENCE_S
    clock = _clock((0.0, slow), (1.0, 1.0 + slow), (2.0, 2.0 + REFERENCE_S))
    first = clock.reading(1.0) - clock.reading(slow)
    assert first == pytest.approx((1.0 - slow) / 2 ** SENSITIVITY)
    # The next interval lies between a slow probe and a quiet one.
    second = clock.reading(2.0) - clock.reading(1.0 + slow)
    assert second == pytest.approx((1.0 - slow) / 1.5 ** SENSITIVITY)


def test_an_instant_outside_the_probes_is_refused():
    clock = _clock((1.0, 1.1), (2.0, 2.1))
    with pytest.raises(ValueError):
        clock.reading(0.5)
    with pytest.raises(ValueError):
        clock.reading(2.5)


def test_timed_probes_on_both_sides_and_returns_the_result():
    clock = HostClock()
    result, seconds = clock.timed(lambda: sum(range(1000)))
    assert result == 499500 and seconds > 0 and len(clock.probes) == 2
    result, seconds = WallClock().timed(lambda: 7)
    assert result == 7 and seconds >= 0


def test_a_long_call_is_probed_from_inside_by_the_timer():
    import signal
    from time import perf_counter

    def busy():
        until = perf_counter() + 10 * HostClock.every_s
        while perf_counter() < until:
            pass

    clock = HostClock()
    before = signal.getsignal(signal.SIGALRM)
    _result, seconds = clock.timed(busy)
    assert len(clock.probes) >= 5
    assert clock.probes == sorted(clock.probes)
    assert seconds > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
