"""Host-speed scaling: which kernel samples a window is charged."""

import pytest

from perfbench.hostspeed import HostSpeed


def tiny(reference_s=1.0, sensitivity=1.0) -> HostSpeed:
    return HostSpeed(records=10, products=1, steps=10, reference_s=reference_s,
                     sensitivity=sensitivity)


def test_a_window_is_charged_the_samples_on_either_side():
    host = tiny()
    host.add(0.0, 1.0)  # kernel took 1 s
    host.add(5.0, 9.0)  # kernel took 4 s
    host.add(20.0, 21.0)
    # Window [2, 4]: after the first sample, before the second.
    assert host.slowness(2.0, 4.0) == pytest.approx(2.0)  # sqrt(1 * 4)
    assert host.scaled(6.0, 2.0, 4.0) == pytest.approx(3.0)
    # Window [10, 19]: between the second and the third.
    assert host.slowness(10.0, 19.0) == pytest.approx(2.0)


def test_a_window_touching_its_samples_still_uses_them():
    host = tiny()
    host.add(0.0, 2.0)
    host.add(5.0, 6.0)
    assert host.slowness(2.0, 5.0) == pytest.approx(2.0 ** 0.5)


def test_at_the_ends_of_a_run_one_sample_is_enough():
    host = tiny(reference_s=2.0)
    host.add(10.0, 13.0)
    assert host.slowness(0.0, 5.0) == pytest.approx(1.5)
    assert host.slowness(20.0, 25.0) == pytest.approx(1.5)


def test_without_samples_there_is_no_slowness():
    with pytest.raises(ValueError):
        tiny().slowness(0.0, 1.0)


def test_samples_must_come_in_time_order():
    host = tiny()
    host.add(5.0, 6.0)
    with pytest.raises(ValueError):
        host.add(1.0, 2.0)


def test_a_host_twice_as_slow_reads_the_same_after_scaling():
    # The same window of work on a host that runs everything twice as
    # slowly (the kernel too) scales to the same reference seconds.
    fast, slow = tiny(reference_s=0.5), tiny(reference_s=0.5)
    fast.add(0.0, 0.5)
    fast.add(3.5, 4.0)
    slow.add(0.0, 1.0)
    slow.add(7.0, 8.0)
    assert fast.scaled(3.0, 0.5, 3.5) == pytest.approx(slow.scaled(6.0, 1.0, 7.0)) == 3.0


def test_the_program_follows_the_kernel_at_its_sensitivity():
    # A program that slows by the square root of what the kernel does.
    host = tiny(reference_s=1.0, sensitivity=0.5)
    host.add(0.0, 4.0)
    host.add(10.0, 14.0)
    assert host.slowness(4.0, 10.0) == pytest.approx(2.0)
    assert host.scaled(6.0, 4.0, 10.0) == pytest.approx(3.0)


def test_sample_times_the_kernel_with_the_given_clock():
    ticks = iter([1.0, 1.25, 2.0, 2.5])
    host = HostSpeed(records=10, products=1, steps=10, reference_s=0.25,
                     sensitivity=1.0, clock=lambda: next(ticks))
    assert host.sample() == 0.25
    assert host.sample() == 0.5
    assert host.median_slowness() == pytest.approx(1.5)
