"""The percentile rule and the spread arithmetic."""

import statistics

import pytest

import stats


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 0.50) == 50
    assert stats.percentile(ordered, 0.99) == 99
    assert stats.percentile(ordered, 1.0) == 100
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # not even a median has ten samples beyond it
        (20, 0.5),
        (99, 0.5),
        (100, 0.9),
        (999, 0.9),
        (1000, 0.99),
        (9999, 0.99),
        (10000, 0.999),
        (100000, 0.9999),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_supported_counts_samples_beyond_the_percentile():
    assert stats.supported(1000, 0.99)
    assert not stats.supported(999, 0.99)


def test_quartile_spread_is_the_drivers_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / statistics.median(values)


def test_differs_by_is_symmetric():
    assert stats.differs_by(100.0, 110.0) == pytest.approx(0.10)
    assert stats.differs_by(100.0, 90.0) == pytest.approx(0.10)
    assert stats.differs_by(0.0, 0.0) == 0.0
    assert stats.differs_by(0.0, 1.0) == float("inf")
