"""Tests for the statistical FI campaign runner."""

import numpy as np
import pytest

from repro.accelerator.ffs import FF_CLASSES
from repro.core.analysis import campaign_report_dict
from repro.core.analysis.classify import Outcome
from repro.core.faults import Campaign, InferenceCampaign
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def small_campaign():
    """A shared prepared campaign (training the baseline is the slow part)."""
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=2, seed=0, warmup_iterations=10,
                        horizon=20, inject_window=6, test_every=5)
    campaign.prepare()
    return campaign


class TestPreparation:
    def test_prepare_idempotent(self, small_campaign):
        snapshot = small_campaign._snapshot
        small_campaign.prepare()
        assert small_campaign._snapshot is snapshot

    def test_reference_spans_horizon(self, small_campaign):
        assert small_campaign.reference.num_iterations == 30  # warmup + horizon


class TestSampling:
    def test_faults_in_injection_window(self, small_campaign):
        rng = np.random.default_rng(0)
        for _ in range(30):
            fault = small_campaign.sample_experiment(rng)
            assert 10 <= fault.iteration < 16
            assert 0 <= fault.device < 2


class TestExperiments:
    def test_run_experiment_produces_report(self, small_campaign):
        rng = np.random.default_rng(1)
        fault = small_campaign.sample_experiment(rng)
        result = small_campaign.run_experiment(fault)
        assert isinstance(result.outcome, Outcome)
        assert result.condition_window["max_history"] >= 0

    def test_experiments_independent(self, small_campaign):
        """Each experiment restores the same baseline: running the same
        fault twice gives the same outcome."""
        rng = np.random.default_rng(2)
        fault = small_campaign.sample_experiment(rng)
        r1 = small_campaign.run_experiment(fault)
        r2 = small_campaign.run_experiment(fault)
        assert r1.outcome == r2.outcome
        assert r1.num_faulty_elements == r2.num_faulty_elements

    def test_run_aggregates(self, small_campaign):
        result = small_campaign.run(num_experiments=6, seed=5)
        assert result.num_experiments == 6
        assert [p["index"] for p in result.payloads] == list(range(6))
        assert [r.outcome.value for r in result.results] == \
            [p["outcome"] for p in result.payloads]
        report = campaign_report_dict(result.payloads)
        assert sum(report["breakdown"].values()) == 6
        interval = report["intervals"]["unexpected_rate"]
        assert interval["n"] == 6
        assert interval["low"] <= report["unexpected_rate"] <= interval["high"]

    def test_ff_class_shares_sum_to_one(self, small_campaign):
        result = small_campaign.run(num_experiments=5, seed=6)
        report = campaign_report_dict(result.payloads)
        shares = [report[f"{name}_share"] for name in FF_CLASSES]
        assert sum(shares) == pytest.approx(1.0)
        assert [r.fault.ff.ff_class for r in result.results].count(
            "other") == round(report["other_share"] * 5)


class TestInferenceCampaign:
    def test_sdc_rates_and_breakdown(self):
        spec = build_workload("resnet", size="tiny", seed=0)
        campaign = InferenceCampaign(spec, seed=0, train_iterations=20, num_devices=2)
        stats = campaign.run(num_experiments=15, seed=3)
        assert 0.0 <= stats["sdc_rate"] <= 1.0
        assert 0.0 <= stats["nonfinite_rate"] <= 1.0
        # Full Table 5 taxonomy: counts cover every experiment, and the
        # rates are the same numbers the breakdown normalizes to.
        assert stats["num_experiments"] == 15
        assert set(stats["breakdown"]) == {"masked", "sdc", "nonfinite"}
        assert sum(stats["breakdown"].values()) == 15
        assert stats["masked_rate"] == stats["breakdown"]["masked"] / 15
        assert stats["sdc_rate"] == stats["breakdown"]["sdc"] / 15
        # SDC takes precedence: nonfinite_rate counts all nonfinite
        # experiments, so it bounds the nonfinite breakdown bucket.
        assert stats["breakdown"]["nonfinite"] <= stats["nonfinite_rate"] * 15
