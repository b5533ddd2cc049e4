"""Tail selection and the sustained-rate ladder rule."""

from stats import LadderStep, Tail, sustained_rate, tail


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    result = tail(samples)
    assert result == Tail(value=90.0, percentile=90.0, beyond=10, count=100)
    assert sum(1 for s in samples if s > result.value) == 10


def test_tail_is_order_independent_and_grows_with_the_sample():
    samples = [float(v) for v in range(1000, 0, -1)]
    result = tail(samples)
    assert (result.value, result.percentile, result.beyond) == (990.0, 99.0, 10)


def test_tail_just_large_enough_sample():
    result = tail([5.0] * 10 + [7.0])
    assert (result.value, result.beyond, result.count) == (5.0, 10, 11)
    assert abs(result.percentile - 100.0 / 11) < 1e-9


def test_tail_of_too_small_sample_is_flagged_as_the_maximum():
    result = tail([3.0, 1.0, 2.0])
    assert (result.value, result.percentile, result.beyond, result.count) == (3.0, 100.0, 0, 3)
    assert tail([]).count == 0


def step(rate, tail_ms, backlog=0, failed=0):
    return LadderStep(rate=rate, hit_tail_ms=tail_ms, backlog=backlog, failed=failed)


def test_sustained_is_the_last_step_before_the_first_failure():
    steps = [step(10, 5), step(20, 8), step(40, 60), step(80, 9)]
    # 80/s passing after 40/s failed does not count.
    assert sustained_rate(steps, limit_ms=50, backlog_allowance=2) == 20


def test_sustained_rejects_a_growing_backlog_and_failures():
    assert sustained_rate([step(10, 5), step(20, 5, backlog=3)], 50, 2) == 10
    assert sustained_rate([step(10, 5), step(20, 5, backlog=2)], 50, 2) == 20
    assert sustained_rate([step(10, 5), step(20, 5, failed=1)], 50, 2) == 10


def test_sustained_sorts_steps_and_reports_zero_when_nothing_passes():
    assert sustained_rate([step(20, 5), step(10, 5)], 50, 2) == 20
    assert sustained_rate([step(10, 51)], 50, 2) == 0.0
