"""The median-of-windows estimator and open-loop accounting."""

import statistics

import pytest

from perfbench.stats import Windows, open_loop, percentile, quartiles


def test_median_of_windows_ignores_a_slow_episode_shorter_than_half():
    windows = Windows()
    for index in range(20):
        # Nine of twenty windows run during a 3x slowdown.
        seconds = 3.0 if 5 <= index < 14 else 1.0
        windows.add_rate(100, seconds)
    assert windows.median == 100.0
    total_rate = 20 * 100 / (11 * 1.0 + 9 * 3.0)
    assert total_rate < 60  # what work / time would have reported


def test_median_of_windows_moves_once_the_slow_episode_is_the_majority():
    windows = Windows()
    for index in range(20):
        windows.add_rate(100, 3.0 if index < 11 else 1.0)
    assert windows.median == pytest.approx(100 / 3)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    windows = Windows(values)
    assert windows.iqr == q3 - q1
    assert windows.summary()["windows"] == 6


def test_zero_length_window_is_rejected():
    with pytest.raises(ValueError):
        Windows().add_rate(1, 0.0)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


class FakeTime:
    """A clock that advances only when slept on or when work is charged."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_open_loop_times_predicts_from_their_due_time():
    fake = FakeTime()
    costs = {"submit": 0.001, "predict": 0.002}

    def submit(event):
        fake.now += costs["submit"]
        return True

    def predict(event):
        fake.now += costs["predict"]

    result = open_loop(range(40), 100.0, submit, predict, 10, clock=fake.clock, sleep=fake.sleep)
    assert result.submitted == 40
    assert len(result.latencies) == 4
    # On schedule: latency = submit + predict of the due event.
    assert result.latencies == pytest.approx([0.003] * 4)
    assert max(result.lateness) == pytest.approx(0.0)


def test_open_loop_charges_a_stall_to_later_requests():
    fake = FakeTime()

    def submit(event):
        if event == 10:
            fake.now += 0.5  # one stall of half a second

    def predict(event):
        pass

    result = open_loop(range(80), 100.0, submit, predict, 10, clock=fake.clock, sleep=fake.sleep)
    # Event 10 was due at 0.10 and its stall lasted until 0.60: events
    # 11..59, due before then, go out late; later ones on time again.
    assert result.lateness[11] == pytest.approx(0.60 - 0.11)
    assert result.lateness[59] == pytest.approx(0.60 - 0.59)
    assert max(result.lateness[60:]) == pytest.approx(0.0)
    assert result.latencies[0] == pytest.approx(0.0)  # predict after event 9
    assert result.latencies[1] == pytest.approx(0.60 - 0.19)  # event 19 due at 0.19


def test_open_loop_counts_predict_errors():
    fake = FakeTime()

    def predict(event):
        if event == 19:
            raise KeyError(event)

    result = open_loop(
        range(30), 100.0, lambda e: True, predict, 10, (KeyError,),
        clock=fake.clock, sleep=fake.sleep,
    )
    assert result.predict_errors == 1
    assert len(result.latencies) == 2
