import pytest

import calibrate


def test_speed_is_nominal_over_the_mean_reference():
    clock = calibrate.HostClock()
    clock.refs = [0.020, 0.030, 0.040]
    assert clock.speed() == pytest.approx(calibrate.NOMINAL_S / 0.030)
    assert clock.speed(since=1) == pytest.approx(calibrate.NOMINAL_S / 0.035)


def test_tick_calibrates_only_when_the_last_reference_is_old(monkeypatch):
    monkeypatch.setattr(calibrate, "kernel", lambda: 0)
    clock = calibrate.HostClock()
    clock.tick()  # no reference yet
    clock.tick()  # the first is fresh
    assert len(clock.refs) == 1
    clock.last -= calibrate.EVERY_S + 1
    clock.tick()
    assert len(clock.refs) == 2
