"""Tests for the telemetry time-series layer (repro.observe.timeseries)
plus the Histogram edge cases its samples depend on.  The poll that
writes a series is tested with its service (tests/test_serve.py)."""

import asyncio

import pytest

from repro.engine.telemetry import CampaignState, WorkerState
from repro.observe import Counter, Histogram
from repro.observe.counters import DEFAULT_BOUNDS
from repro.serve import TelemetryService
from repro.observe.timeseries import (
    SERIES_SCHEMA_VERSION,
    TelemetrySample,
    derive_rates,
    read_series,
    series_path,
)


# ----------------------------------------------------------------------
# Histogram.quantile edge cases (the p50/p99 every sample exports)
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


# ----------------------------------------------------------------------
# Counter-rate derivation
# ----------------------------------------------------------------------
class TestDeriveRates:
    def _sample(self, t, **counters):
        return TelemetrySample(t=t, counters=dict(counters))

    def test_basic_rate(self):
        prev = self._sample(10.0, done=100.0)
        cur = self._sample(20.0, done=150.0)
        assert derive_rates(prev, cur) == {"done": 5.0}

    def test_no_previous_sample_means_no_rates(self):
        assert derive_rates(None, self._sample(1.0, done=5.0)) == {}

    def test_non_advancing_time_means_no_rates(self):
        prev = self._sample(10.0, done=1.0)
        assert derive_rates(prev, self._sample(10.0, done=2.0)) == {}
        assert derive_rates(prev, self._sample(9.0, done=2.0)) == {}

    def test_counter_reset_restarts_from_current_value(self):
        # Prometheus convention: a decrease means the counter was reset,
        # so the rate restarts from the post-reset value.
        prev = self._sample(0.0, done=1000.0)
        cur = self._sample(10.0, done=30.0)
        assert derive_rates(prev, cur) == {"done": 3.0}

    def test_counter_absent_from_previous_sample_is_skipped(self):
        prev = self._sample(0.0, done=1.0)
        cur = self._sample(10.0, done=2.0, fresh=5.0)
        assert derive_rates(prev, cur) == {"done": 0.1}


# ----------------------------------------------------------------------
# Sample assembly and the flat namespace
# ----------------------------------------------------------------------
class TestBuildSample:
    def test_registry_counters_and_histograms(self):
        """Only a serving engine owns counters and histograms: each of
        its metrics is in its sample, in name order, and a campaign
        sample has none."""
        from repro.serving import InferenceSession, ServingEngine
        from repro.workloads import build_workload

        session = InferenceSession(build_workload("resnet", size="tiny"),
                                   train_iterations=1)
        engine = ServingEngine(session)
        engine.c_requests.inc(7)
        engine.h_latency.observe(0.5)
        sample = engine.sample()
        assert sample.counters["serving.requests"] == 7.0
        hist = sample.histograms["serving.latency_seconds"]
        assert hist["count"] == 1 and "p99" in hist
        assert [*sample.counters] == sorted(
            metric.name for metric in engine.metrics
            if isinstance(metric, Counter))
        assert [*sample.histograms] == ["serving.batch_size",
                                        "serving.latency_seconds"]
        empty = CampaignState(total=None).sample(now=123.0)
        assert empty.t == 123.0
        assert empty.counters == {} and empty.histograms == {}

    def test_progress_snapshot_gauges_and_outcomes(self):
        state = CampaignState(
            total=4, done=2, breakdown={"ok": 1, "latent_inf_nan": 1},
            throughput=0.2, eta=10.0,
            workers=[WorkerState(0, finished=1), WorkerState(1, finished=1)])
        sample = state.sample(now=1.0)
        g = sample.gauges
        assert g["campaign.total"] == 4.0
        assert g["campaign.done"] == 2.0
        assert g["campaign.divergence_rate"] == pytest.approx(0.5)
        assert g["workers.alive"] == 2.0
        assert g["workers.busy"] == 0.0
        assert sample.outcomes == {"latent_inf_nan": 1, "ok": 1}

    def test_flat_namespace_prefixes(self):
        sample = TelemetrySample(
            t=1.0,
            gauges={"campaign.done": 3.0},
            counters={"serving.requests": 3.0},
            rates={"serving.requests": 0.5},
            histograms={"lat": {"count": 2, "sum": 1.0, "mean": 0.5,
                                "max": 0.9, "p50": 0.4, "p99": 0.9}},
            outcomes={"ok": 3})
        flat = sample.flat()
        assert flat["campaign.done"] == 3.0
        assert flat["counter.serving.requests"] == 3.0
        assert flat["rate.serving.requests"] == 0.5
        assert flat["lat.p99"] == 0.9
        assert flat["outcome.ok"] == 3.0

    def test_roundtrip_via_dict(self):
        sample = TelemetrySample(t=5.0, gauges={"g": 1.0},
                                 counters={"c": 2.0}, outcomes={"ok": 1})
        clone = TelemetrySample.from_dict(sample.to_dict())
        assert clone.to_dict() == sample.to_dict()


# ----------------------------------------------------------------------
# Persistence (the format cases every log shares: tests/test_jsonl.py)
# ----------------------------------------------------------------------
class TestSeriesPersistence:
    def test_series_path_next_to_store(self, tmp_path):
        assert series_path(tmp_path / "camp.jsonl") == \
            tmp_path / "camp.series.jsonl"

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "camp.series.jsonl"
        written = iter([TelemetrySample(t=1.0, gauges={"g": 1.5}),
                        TelemetrySample(t=2.0, counters={"c": 3.0})])
        service = TelemetryService(
            lambda: next(written), store_path=tmp_path / "camp.jsonl",
            interval=0.01, meta={"workload": "resnet"})
        asyncio.run(service.run(lambda sample: sample.t == 2.0))
        header, samples = read_series(path)
        assert header["schema"] == SERIES_SCHEMA_VERSION
        assert header["meta"] == {"workload": "resnet"}
        assert [s.t for s in samples] == [1.0, 2.0]
        assert samples[0].gauges == {"g": 1.5}
        assert samples[1].counters == {"c": 3.0}
