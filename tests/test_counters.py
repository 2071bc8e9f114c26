"""Tests for the numpy-backed metrics (repro.observe.counters): the
Histogram edge cases the serving engine's summary depends on."""

import pytest

from repro.observe import Histogram
from repro.observe.counters import DEFAULT_BOUNDS


# ----------------------------------------------------------------------
# Histogram.quantile edge cases (the p50/p99 of a serving summary)
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_empty_histogram_quantile_is_zero(self):
        hist = Histogram("t.empty")
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0 and summary["p99"] == 0.0

    def test_single_sample_every_quantile_hits_its_bucket(self):
        hist = Histogram("t.single")
        hist.observe(0.01)
        p50, p99 = hist.quantile(0.5), hist.quantile(0.99)
        assert p50 == p99
        # The answer is the bucket's upper bound, so it never
        # underestimates the observation.
        assert p50 >= 0.01
        assert p50 in DEFAULT_BOUNDS

    def test_overflow_bucket_reports_observed_max(self):
        hist = Histogram("t.overflow")
        beyond = max(DEFAULT_BOUNDS) * 10  # past every bucket edge
        hist.observe(beyond)
        assert hist.quantile(0.99) == beyond
        assert hist.summary()["max"] == beyond

    def test_underflow_lands_in_first_bucket(self):
        hist = Histogram("t.underflow")
        hist.observe(min(DEFAULT_BOUNDS) / 10)
        assert hist.count == 1
        assert hist.quantile(0.5) == DEFAULT_BOUNDS[0]

    def test_quantile_ordering_on_mixed_population(self):
        hist = Histogram("t.mixed")
        for value in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            hist.observe(value)
        assert hist.quantile(0.5) <= hist.quantile(0.9) <= hist.quantile(0.99)
        assert hist.quantile(0.99) <= hist.summary()["max"] * 10

    def test_custom_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("t.bad", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("t.bad", bounds=())
