"""The percentile and tail rules the benchmark reports latencies with."""

import pytest

from perfbench import stats


def test_harrell_davis_percentile():
    assert stats.percentile([7.0], 50) == pytest.approx(7.0)
    assert stats.percentile([3.0] * 50, 98.0) == pytest.approx(3.0)
    # Symmetric weights: the median of an odd evenly spaced sample is its middle.
    assert stats.percentile(list(range(1, 102)), 50) == pytest.approx(51.0)
    samples = [float(i) for i in range(1, 601)]
    assert stats.percentile(samples, 98.3) == pytest.approx(0.983 * 600 + 0.5, abs=0.01)
    with pytest.raises(ValueError):
        stats.percentile(samples, 100)


def test_one_outlier_barely_moves_the_tail():
    samples = [float(i) for i in range(1, 601)]
    value = stats.tail(samples)[0]
    samples[-1] = 1e6
    assert stats.tail(samples)[0] - value < 1.0


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (100, 90.0), (420, 97.6), (600, 98.3), (700, 98.5), (1000, 99.0)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    assert stats.beyond(p, n) >= stats.MIN_BEYOND
    # One grid step higher would leave fewer than ten beyond.
    assert stats.beyond(round(p + stats.PERCENTILE_STEP, 1), n) < stats.MIN_BEYOND


def test_tail_refuses_fewer_than_ten_beyond_the_median():
    with pytest.raises(stats.ThinTailError):
        stats.tail_percentile(19)
    with pytest.raises(stats.ThinTailError):
        stats.tail([1.0] * 15)


def test_tail_checks_the_samples_actually_used():
    # The percentile is chosen at the op count, and the rule is enforced
    # on the samples given: 30 samples cannot back a p99 chosen for 1000 ops.
    with pytest.raises(stats.ThinTailError):
        stats.tail([float(i) for i in range(30)], op_count=1000)


def test_tail_over_repeated_passes():
    one_pass = [float(i) for i in range(1, 201)]
    value, p, beyond = stats.tail(one_pass * 2, op_count=200)
    assert p == 95.0
    assert beyond == 20
    assert value == pytest.approx(190.5, abs=0.1)


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    q1, median, q3 = 92.5, 100.0, 107.5  # statistics.quantiles, exclusive method
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
