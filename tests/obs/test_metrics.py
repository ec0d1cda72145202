"""Histogram math used by the observability layer."""

from repro.obs import Histogram


def test_empty_histogram_summary():
    hist = Histogram()
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.percentile(50) == 0.0
    assert hist.summary() == {"count": 0, "mean": 0.0, "p50": 0.0,
                              "p95": 0.0, "p99": 0.0, "max": 0.0}


def test_single_value_every_percentile_is_that_value():
    hist = Histogram()
    hist.record(0.125)
    for pct in (1, 50, 95, 99, 100):
        assert hist.percentile(pct) == 0.125


def test_percentiles_are_clamped_to_observed_max():
    hist = Histogram()
    hist.extend([3.0] * 10)  # lands in the (2.097152, 4.194304] bucket
    # the bucket bound over-estimates; the clamp brings it back to 3.0
    assert hist.percentile(50) == 3.0
    assert hist.percentile(99) == 3.0
    assert hist.max_value == 3.0


def test_percentiles_are_ordered_and_bucketed():
    hist = Histogram()
    hist.extend(float(i) for i in range(1, 101))
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["p50"] <= summary["p95"] <= summary["p99"] <= \
        summary["max"] == 100.0
    # log-scale buckets: p50 is the bound of the bucket holding sample 50,
    # which over-estimates by at most the growth factor (2x)
    assert 50.0 <= summary["p50"] <= 100.0
    assert abs(summary["mean"] - 50.5) < 1e-9


def test_values_outside_the_bounds_still_count():
    hist = Histogram(min_bound=1.0, max_bound=8.0)
    hist.record(0.001)   # below min_bound → first bucket (bound 1.0)
    hist.record(9999.0)  # above max_bound → overflow bucket (bound = max)
    assert hist.count == 2
    assert hist.percentile(1) == 1.0
    assert hist.percentile(100) == 9999.0
