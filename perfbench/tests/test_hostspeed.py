import gc

import pytest

from perfbench import hostspeed
from perfbench.workloads import _threshold


def test_scale_divides_by_the_kernel_around_the_span():
    speed = hostspeed.HostSpeed()
    speed.kernel = [0.002, 0.004, 0.006]
    # Mean kernel 3 ms around segment 0: the reference host's speed.
    assert speed.scale(0.5, 0) == pytest.approx(0.5)
    # Mean 5 ms around segment 1: a slower host, so fewer reference s.
    assert speed.scale(0.5, 1) == pytest.approx(0.3)


def test_kernel_is_timed_once_an_interval_has_run():
    speed = hostspeed.HostSpeed(interval_s=0.05)
    speed.calibrate()
    assert speed.segment == 0
    speed.spent(0.03)
    assert speed.segment == 0
    speed.spent(0.03)
    assert speed.segment == 1
    speed.spent(0.049)
    assert speed.segment == 1


def test_kernel_leaves_the_collector_alone():
    # A few tracked objects per call at most, none per loop step, so no
    # collection of the program's heap starts inside a kernel timing.
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        hostspeed.kernel()
        assert gc.get_count()[0] - before <= 4
    finally:
        gc.enable()


def test_timed_reports_host_and_reference_seconds():
    ran = []
    seconds, reference = hostspeed.timed(ran.append, 7)
    assert ran == [7]
    assert seconds >= 0 and reference >= 0


def test_threshold_keeps_the_asked_share_of_rows():
    ordered = sorted(range(0, 20_000, 2))  # 10,000 distinct values
    for sel, jitter in ((0.001, 0), (0.01, 3), (0.005, -4)):
        k = _threshold(ordered, sel, jitter)
        assert sum(v < k for v in ordered) == round(sel * 10_000) + jitter
    assert _threshold(ordered, 1.0, -4) > ordered[-1]
    assert _threshold(ordered, 0.0001, -4) == ordered[0]
