"""Tests for the observability layer (``repro.observe``).

Covers the tracer ring buffer and its crash-tolerant JSONL round trip,
the counters/histograms with their disabled fast path, and the
end-to-end integration: one trainer run under injection + mitigation
must tell the whole story (fault_injected,
detector_fired, rollback, iteration_stats) through a single tracer —
each structural event exactly once, even though recovery re-executes
the faulty iteration.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.accelerator.ffs import FFDescriptor
from repro.cli import main
from repro.core.faults import FaultInjector, HardwareFault, OpSite
from repro.core.mitigation import (
    HardwareFailureDetector,
    MitigationHook,
    RecoveryManager,
)
from repro.observe import (
    DETECTOR_FIRED,
    FAULT_INJECTED,
    ITERATION_STATS,
    NULL_TRACER,
    ROLLBACK,
    TRACE_SCHEMA_VERSION,
    Counter,
    Histogram,
    Tracer,
    read_trace,
)


# ----------------------------------------------------------------------
# Tracer ring buffer
# ----------------------------------------------------------------------
class TestTracer:
    def test_emit_returns_typed_event(self):
        tracer = Tracer()
        event = tracer.emit(ITERATION_STATS, iteration=3, loss=0.5)
        assert event.type == ITERATION_STATS
        assert event.iteration == 3
        assert event.data == {"loss": 0.5}
        assert event.seq == 0

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event type"):
            Tracer().emit("not_a_real_event")

    def test_disabled_emit_is_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.emit(ITERATION_STATS, loss=1.0) is None
        assert len(tracer) == 0
        assert tracer.emitted == 0

    def test_null_tracer_is_shared_and_disabled(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(ITERATION_STATS, loss=1.0)
        assert len(NULL_TRACER) == 0

    def test_ring_drops_oldest_and_accounts_them(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit(ITERATION_STATS, iteration=i)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        # The survivors are the newest events, ordering preserved.
        assert [e.iteration for e in tracer.events()] == [6, 7, 8, 9]
        assert [e.seq for e in tracer.events()] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_filtering_by_type_and_iteration(self):
        tracer = Tracer()
        for i in range(6):
            tracer.emit(ITERATION_STATS, iteration=i)
        tracer.emit(ROLLBACK, iteration=3, resume_iteration=1)
        assert len(tracer.events(ROLLBACK)) == 1
        assert [e.iteration for e in
                tracer.events(ITERATION_STATS, min_iteration=2,
                              max_iteration=4)] == [2, 3, 4]
        assert tracer.type_counts() == {ITERATION_STATS: 6, ROLLBACK: 1}

    def test_clear_resets_accounting(self):
        tracer = Tracer(capacity=2)
        for _ in range(5):
            tracer.emit(ITERATION_STATS)
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0 and tracer.dropped == 0


# ----------------------------------------------------------------------
# JSONL export (the format cases every log shares: tests/test_jsonl.py)
# ----------------------------------------------------------------------
class TestTraceExport:
    def _traced(self, tmp_path, n=5):
        tracer = Tracer(meta={"workload": "resnet"})
        for i in range(n):
            tracer.emit(ITERATION_STATS, iteration=i, loss=1.0 / (i + 1))
        path = tmp_path / "run.trace.jsonl"
        tracer.export(path, meta={"devices": 2})
        return tracer, path

    def test_round_trip(self, tmp_path):
        tracer, path = self._traced(tmp_path)
        trace = read_trace(path)
        assert trace.meta == {"workload": "resnet", "devices": 2}
        assert trace.emitted == 5 and trace.dropped == 0
        assert trace.truncated is False
        assert [e.iteration for e in trace.events] == list(range(5))
        assert [e.data["loss"] for e in trace.events] == \
            [e.data["loss"] for e in tracer.events()]

    def test_header_follows_store_conventions(self, tmp_path):
        _, path = self._traced(tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["record"] == "header"
        assert header["kind"] == "trace"
        assert header["schema"] == TRACE_SCHEMA_VERSION

    def test_numpy_scalars_in_payload_export_cleanly(self, tmp_path):
        tracer = Tracer()
        tracer.emit(ITERATION_STATS, iteration=0, loss=np.float32(0.25),
                    count=np.int64(3))
        path = tmp_path / "np.trace.jsonl"
        tracer.export(path)
        event = read_trace(path).events[0]
        assert event.data == {"loss": 0.25, "count": 3}


# ----------------------------------------------------------------------
# Counters / histograms
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_increments(self):
        c = Counter("t.c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        c.reset()
        assert c.value == 0.0

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram("t.h", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 2.0, 3.0, 20.0, 500.0):
            h.observe(v)
        assert h.count == 5
        assert h.counts.tolist() == [1, 2, 1, 1]
        assert h.total == pytest.approx(525.5)
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == 500.0  # overflow bucket reports the max
        summary = h.summary()
        assert summary["type"] == "histogram" and summary["count"] == 5

    def test_histogram_no_per_observation_allocation(self):
        h = Histogram("t.alloc")
        buckets_before = h.counts
        for v in np.linspace(0.0, 5.0, 100):
            h.observe(float(v))
        assert h.counts is buckets_before  # same fixed int64 array

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("t.bad", bounds=(1.0, 1.0))


# ----------------------------------------------------------------------
# End-to-end integration: one tracer tells the whole experiment story
# ----------------------------------------------------------------------
class TestTrainerIntegration:
    def test_iteration_stats_emitted_per_iteration(self, make_trainer):
        tracer = Tracer()
        trainer = make_trainer(num_devices=2, tracer=tracer)
        trainer.train(4)
        stats = tracer.events(ITERATION_STATS)
        assert [e.iteration for e in stats] == [0, 1, 2, 3]
        record = trainer.record
        assert [e.data["loss"] for e in stats] == \
            [float(v) for v in record.train_loss]

    def test_default_trainer_uses_null_tracer(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        assert trainer.tracer is NULL_TRACER
        trainer.train(2)
        assert len(NULL_TRACER) == 0

    def test_mitigated_injection_story(self, make_trainer):
        """Injection under mitigation: each structural event exactly once,
        even though recovery re-executes the faulty iteration."""
        tracer = Tracer()
        trainer = make_trainer(num_devices=2, tracer=tracer,
                               stop_on_nonfinite=False)
        fault = HardwareFault(
            ff=FFDescriptor("global_control", group=1, has_feedback=True),
            site=OpSite("1.conv1", "weight_grad"), iteration=5, device=1,
            seed=3)
        detector = HardwareFailureDetector()
        trainer.add_hook(FaultInjector(fault))
        trainer.add_hook(MitigationHook(detector, RecoveryManager()))
        trainer.train(20)

        assert detector.fired, "group-1 fault must be detected"
        counts = tracer.type_counts()
        assert counts[FAULT_INJECTED] == 1
        assert counts[DETECTOR_FIRED] == len(detector.events)
        assert counts[ROLLBACK] == len(trainer.record.recoveries) == 1
        injected = tracer.events(FAULT_INJECTED)[0]
        assert injected.iteration == 5
        assert injected.data["device"] == 1
        assert injected.data["site"] == "1.conv1"
        fired = tracer.events(DETECTOR_FIRED)[0]
        assert fired.data["condition"] in ("first_moment", "second_moment",
                                           "mvar")
        rollback = tracer.events(ROLLBACK)[0]
        assert rollback.data["resume_iteration"] <= fired.iteration
        # Ordering: the rollback is the last act of the faulty iteration
        # (detection fires at after_step, the injector attributes its
        # record at disarm, and the mitigation hook rewinds last).
        assert fired.seq < rollback.seq
        assert injected.seq < rollback.seq


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestObserveCli:
    def test_train_trace_export_and_render(self, capsys, tmp_path):
        trace_path = tmp_path / "run.trace.jsonl"
        rc = main(["train", "resnet", "--iterations", "4", "--devices", "2",
                   "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"trace: 4 events -> {trace_path}" in out

        rc = main(["trace", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 events recovered" in out
        assert "iteration_stats" in out

        rc = main(["trace", str(trace_path), "--summary"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iteration_stats" in out and "4" in out

        rc = main(["trace", str(trace_path), "--type", "rollback"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rollback" not in out.splitlines()[-1]

    def test_trace_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_corrupt_file_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record":"header","kind":"nope"}\n')
        assert main(["trace", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
