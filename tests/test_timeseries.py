"""Tests for the telemetry time-series layer (repro.observe.timeseries)
plus the Histogram edge cases its samples depend on."""

import time

import pytest

from repro.engine.telemetry import CampaignState, ProgressTracker
from repro.observe import Counter, Histogram
from repro.observe.counters import DEFAULT_BOUNDS
from repro.observe.timeseries import (
    SERIES_SCHEMA_VERSION,
    TelemetrySample,
    TelemetrySampler,
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
        tracker = ProgressTracker(total=4, clock=lambda: 100.0)
        tracker._start = 90.0
        tracker.task_started(0, "k0")
        tracker.task_done(0, "ok")
        tracker.task_started(1, "k1")
        tracker.task_done(1, "latent_inf_nan")
        sample = tracker.snapshot().sample(now=1.0)
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
# Ring buffer
# ----------------------------------------------------------------------
class TestSeriesBuffer:
    def test_bounded_eviction(self):
        """The sampler's ring keeps the newest 720 samples."""
        sampler = TelemetrySampler(
            lambda: TelemetrySample(t=float(sampler.samples_taken)),
            interval=1.0)
        assert sampler.latest() is None
        for _ in range(725):
            sampler.sample_once()
        assert len(sampler.buffer) == 720
        assert sampler.buffer[0].t == 5.0
        assert sampler.latest().t == 724.0


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
        sampler = TelemetrySampler(lambda: next(written), interval=1.0,
                                   path=path, meta={"workload": "resnet"})
        sampler.sample_once()
        sampler.sample_once()
        sampler.stop(final_sample=False)
        header, samples = read_series(path)
        assert header["schema"] == SERIES_SCHEMA_VERSION
        assert header["meta"] == {"workload": "resnet"}
        assert [s.t for s in samples] == [1.0, 2.0]
        assert samples[0].gauges == {"g": 1.5}
        assert samples[1].counters == {"c": 3.0}


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
class TestTelemetrySampler:
    def test_sample_once_derives_rates_and_persists(self, tmp_path):
        path = tmp_path / "s.series.jsonl"
        samples = [TelemetrySample(t=0.0, counters={"c": 0.0}),
                   TelemetrySample(t=10.0, counters={"c": 20.0})]
        sampler = TelemetrySampler(lambda: samples[sampler.samples_taken],
                                   interval=5.0, path=path)
        assert sampler.sample_once().rates == {}
        assert sampler.sample_once().rates == {"c": 2.0}
        sampler.stop(final_sample=False)
        _, persisted = read_series(path)
        assert len(persisted) == 2
        assert persisted[1].rates == {"c": 2.0}

    def test_provider_errors_are_swallowed_and_counted(self):
        def provider():
            raise RuntimeError("registry on fire")
        sampler = TelemetrySampler(provider, interval=1.0)
        assert sampler.sample_once() is None
        assert sampler.errors == 1
        assert "registry on fire" in sampler.last_error
        assert len(sampler.buffer) == 0

    def test_background_thread_samples_and_final_sample_on_stop(self):
        sampler = TelemetrySampler(
            lambda: TelemetrySample(t=float(sampler.samples_taken)),
            interval=0.01)
        with sampler:
            deadline = 200
            while sampler.samples_taken < 2 and deadline:
                deadline -= 1
                time.sleep(0.01)
        # stop() takes one final sample so the series ends on the
        # campaign's terminal state.
        assert sampler.samples_taken >= 3

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TelemetrySampler(lambda: None, interval=0.0)
