"""Tests for trace analytics (repro.observe.analysis) and the
engine-vs-direct reporting parity the flight recorder promises."""

import pytest

from repro.core.analysis import render_propagation_report, render_trace_analysis
from repro.core.faults import Campaign
from repro.core.faults.serialization import fault_to_dict
from repro.engine import experiment_key
from repro.engine.worker import UnitCapture
from repro.observe import (
    DETECTOR_FIRED,
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    FAULT_INJECTED,
    ITERATION_STATS,
    Tracer,
    read_trace,
)
from repro.observe import analysis
from repro.workloads import build_workload

CAMPAIGN_SEED = 12  # chosen so the detector fires in some experiments
NUM_EXPERIMENTS = 4


# ----------------------------------------------------------------------
# Synthetic traces: analytics semantics without training anything.
# ----------------------------------------------------------------------
def _experiment(tracer, key, fault_iter, outcome, detect_at=None,
                spike=1e6, total=12):
    """Emit one synthetic experiment's event story into ``tracer``."""
    capture = UnitCapture(tracer, 0)
    view = capture.start(key)
    for it in range(total):
        spiked = fault_iter is not None and it >= fault_iter
        magnitude = spike if spiked else 0.01
        view.emit(ITERATION_STATS, iteration=it, loss=1.0 / (it + 1),
                  acc=0.5, history_magnitude=magnitude,
                  mvar_magnitude=magnitude / 2)
        if it == fault_iter:
            view.emit(FAULT_INJECTED, iteration=it, device=1,
                      site="2.conv1", kind="forward", op="conv",
                      ff_category="transient", model="bitflip",
                      num_faulty=3, max_abs_faulty=spike)
        if detect_at is not None and it == detect_at:
            view.emit(DETECTOR_FIRED, iteration=it,
                      condition="gradient_history", magnitude=magnitude,
                      bound=1.0)
    capture.done(view, {"outcome": outcome})


@pytest.fixture
def synthetic_trace():
    tracer = Tracer()
    _experiment(tracer, "exp0", fault_iter=2, outcome="latent_inf_nan",
                detect_at=3)
    _experiment(tracer, "exp1", fault_iter=8, outcome="masked_improved")
    _experiment(tracer, "exp2", fault_iter=5, outcome="masked_improved",
                detect_at=6)
    _experiment(tracer, "exp3", fault_iter=None, outcome="masked_improved")
    return tracer.events()


class TestAnalysisSemantics:
    def test_experiments_groups_by_key(self, synthetic_trace):
        groups = analysis.experiments(synthetic_trace)
        assert list(groups) == ["exp0", "exp1", "exp2", "exp3"]

    def test_experiment_summary(self, synthetic_trace):
        summary = analysis.experiment_summary(
            analysis.experiments(synthetic_trace)["exp0"])
        assert summary["key"] == "exp0"
        assert summary["fault"]["iteration"] == 2
        assert summary["fault"]["site"] == "2.conv1"
        assert summary["iterations"] == list(range(12))
        assert summary["outcome"] == "latent_inf_nan"
        # Both necessary conditions fire right at the fault iteration.
        assert {o["condition"] for o in summary["onsets"]} == \
            {"gradient_history", "mvar"}
        assert all(o["latency_from_fault"] == 0 for o in summary["onsets"])
        assert summary["condition_window"]["max_history"] == 1e6
        assert summary["detection_latency"] == 1

    def test_unfaulted_experiment_has_no_propagation(self, synthetic_trace):
        summary = analysis.experiment_summary(
            analysis.experiments(synthetic_trace)["exp3"])
        assert summary["fault"] is None
        assert summary["onsets"] == []
        assert summary["detection_latency"] is None

    def test_detection_latencies(self, synthetic_trace):
        rows = {r["key"]: r for r in
                analysis.detection_latencies(synthetic_trace)}
        assert set(rows) == {"exp0", "exp1", "exp2"}  # exp3 had no fault
        assert rows["exp0"]["latency"] == 1
        assert rows["exp1"]["latency"] is None
        assert rows["exp2"]["latency"] == 1
        assert analysis.detection_latency_histogram(synthetic_trace) == {1: 2}

    def test_condition_tallies(self, synthetic_trace):
        tallies = analysis.condition_tallies(synthetic_trace)
        assert tallies["experiments"] == 3
        assert tallies["onset_any"] == 3
        assert tallies["onset_within_window"] == 3
        by_outcome = tallies["by_outcome"]
        assert by_outcome["latent_inf_nan"]["count"] == 1
        assert by_outcome["masked_improved"]["count"] == 2

    def test_phase_vulnerability(self, synthetic_trace):
        buckets = analysis.phase_vulnerability(synthetic_trace, phases=3)
        assert [b["experiments"] for b in buckets] == [1, 1, 1]
        # exp0 (fault @ 2) is unexpected and detected; exp1/exp2 are benign.
        assert [b["unexpected"] for b in buckets] == [1, 0, 0]
        assert buckets[0]["unexpected_rate"] == 1.0
        assert [b["intervals"]["unexpected_rate"]["n"] for b in buckets] == \
            [1, 1, 1]
        assert [b["detected"] for b in buckets] == [1, 1, 0]

    def test_phase_vulnerability_rejects_bad_phases(self, synthetic_trace):
        with pytest.raises(ValueError):
            analysis.phase_vulnerability(synthetic_trace, phases=0)

    def test_campaign_summary(self, synthetic_trace):
        summary = analysis.campaign_summary(synthetic_trace)
        assert summary["experiments"] == 4
        assert summary["with_fault"] == 3
        assert summary["detected"] == 2
        assert summary["mean_detection_latency"] == 1.0
        assert summary["detection_coverage"] == 2 / 3
        assert summary["intervals"]["detection_coverage"]["n"] == 3
        assert summary["outcomes"] == {"latent_inf_nan": 1,
                                       "masked_improved": 3}
        rendered = render_trace_analysis(summary)
        assert "4 experiments (3 with fault)" in rendered
        assert "detection: 2/3 faults detected, coverage 66.67% [" in rendered
        assert "] (n=3), mean latency 1.00 iterations" in rendered
        assert "unexpected rate 100.00% [" in rendered
        assert "Table 4" in rendered


# ----------------------------------------------------------------------
# Acceptance: a real traced campaign through the engine, analyzed from
# the merged trace, must reproduce the direct single-run reports.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    campaign = Campaign(build_workload("resnet", size="tiny", seed=0),
                        num_devices=2, seed=0, warmup_iterations=6,
                        horizon=10, inject_window=4, test_every=5,
                        detect=True)
    campaign.prepare()
    store = tmp_path_factory.mktemp("traced") / "results.jsonl"
    result = campaign.run(NUM_EXPERIMENTS, seed=CAMPAIGN_SEED, parallel=2,
                          store=store, trace=True)
    return campaign, result, result.engine_report.trace_path


class TestTracedCampaign:
    def test_merged_trace_has_worker_side_events(self, traced_campaign):
        _, result, trace_path = traced_campaign
        assert len(result.results) == NUM_EXPERIMENTS
        trace = read_trace(trace_path)  # schema-validating read
        counts = trace.type_counts()
        assert counts[EXPERIMENT_STARTED] == NUM_EXPERIMENTS
        assert counts[EXPERIMENT_FINISHED] == NUM_EXPERIMENTS
        assert counts[FAULT_INJECTED] == NUM_EXPERIMENTS
        assert counts[ITERATION_STATS] >= NUM_EXPERIMENTS * 10
        assert counts[DETECTOR_FIRED] > 0  # seed chosen to trigger it
        workers = {e.data.get("worker") for e in trace.events}
        assert len(workers) >= 2  # events really came from both workers

    def test_campaign_summary_matches_engine_outcomes(self, traced_campaign):
        _, result, trace_path = traced_campaign
        summary = analysis.campaign_summary(read_trace(trace_path))
        assert summary["experiments"] == NUM_EXPERIMENTS
        assert summary["with_fault"] == NUM_EXPERIMENTS
        expected = {}
        for experiment in result.results:
            outcome = experiment.report.outcome.value
            expected[outcome] = expected.get(outcome, 0) + 1
        assert summary["outcomes"] == expected

    def test_propagation_report_bit_identical_to_direct_run(
            self, traced_campaign):
        campaign, _, trace_path = traced_campaign
        merged = analysis.propagation_summaries(read_trace(trace_path))
        faults = campaign.sample_faults(NUM_EXPERIMENTS, seed=CAMPAIGN_SEED)
        for index, fault in enumerate(faults):
            key = experiment_key(index, fault_to_dict(fault))
            engine_report = render_propagation_report(merged[key])
            tracer = Tracer()
            campaign.run_experiment(fault, tracer=tracer)
            direct_report = render_propagation_report(
                analysis.experiment_summary(tracer.events()))
            assert direct_report == engine_report, (
                f"engine-traced and direct reports differ for {key}")
