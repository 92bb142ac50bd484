import random
import statistics

import pytest

from stats import percentile, samples_for, spread, tail_percentile


def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(5)
    values = [rng.expovariate(1.0) for _ in range(137)]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in (1, 25, 50, 90, 98, 99):
        assert percentile(values, p) == pytest.approx(cuts[p - 1])


def test_percentile_of_small_samples():
    assert percentile([3.0], 98) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([4.0, 1.0, 2.0, 3.0], 100) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0),
     (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_samples_for_is_the_smallest_count_for_the_percentile():
    for p in (99.0, 98.0, 95.0, 90.0):
        n = samples_for(p)
        assert tail_percentile(n) >= p
        assert tail_percentile(n - 1) < p


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 3.0)
