"""Tests for the outcome classifier (Table 3 taxonomy)."""

import numpy as np
import pytest

from repro.core.analysis import campaign_report_dict
from repro.core.analysis.classify import (
    ClassifierThresholds,
    Outcome,
    classify_outcome,
)
from repro.training.metrics import ConvergenceRecord


def make_record(train_acc, test_acc=None, nonfinite_at=None) -> ConvergenceRecord:
    rec = ConvergenceRecord()
    for i, acc in enumerate(train_acc):
        rec.record_train(i, 1.0 - acc, acc)
    if test_acc is not None:
        for i, acc in enumerate(test_acc):
            rec.record_test(i * 10, acc)
    if nonfinite_at is not None:
        rec.nonfinite_at = nonfinite_at
    return rec


@pytest.fixture
def reference():
    """Fault-free reference: rises to 0.95 and stays there."""
    curve = np.concatenate([np.linspace(0.2, 0.95, 50), np.full(100, 0.95)])
    return make_record(curve, test_acc=np.full(15, 0.9))


T = 60  # injection iteration used throughout


class TestInfNanLatency:
    def test_immediate(self, reference):
        faulty = make_record(np.full(61, 0.9), nonfinite_at=T)
        report = classify_outcome(faulty, reference, T)
        assert report.outcome == Outcome.IMMEDIATE_INF_NAN

    def test_immediate_next_iteration(self, reference):
        # Backward-pass fault: INFs appear in the next forward pass.
        faulty = make_record(np.full(62, 0.9), nonfinite_at=T + 1)
        assert classify_outcome(faulty, reference, T).outcome == Outcome.IMMEDIATE_INF_NAN

    def test_short_term(self, reference):
        faulty = make_record(np.full(63, 0.9), nonfinite_at=T + 2)
        assert classify_outcome(faulty, reference, T).outcome == Outcome.SHORT_TERM_INF_NAN

    def test_latent_inf(self, reference):
        faulty = make_record(np.full(100, 0.9), nonfinite_at=T + 30)
        assert classify_outcome(faulty, reference, T).outcome == Outcome.LATENT_INF_NAN


class TestLatentOutcomes:
    def test_slow_degrade(self, reference):
        """Gradual decline over tens of iterations, stays low."""
        curve = np.concatenate([
            np.linspace(0.2, 0.95, 50), np.full(10, 0.95),
            np.linspace(0.95, 0.3, 40),  # slow decline
            np.full(50, 0.3),
        ])
        faulty = make_record(curve, test_acc=np.full(15, 0.3))
        report = classify_outcome(faulty, reference, T)
        assert report.outcome == Outcome.SLOW_DEGRADE
        assert not report.sharp_drop_at_injection

    def test_sharp_degrade(self, reference):
        """Immediate drop at the fault, then flat."""
        curve = np.concatenate([
            np.linspace(0.2, 0.95, 50), np.full(10, 0.95),
            np.full(90, 0.25),
        ])
        faulty = make_record(curve, test_acc=np.full(15, 0.25))
        report = classify_outcome(faulty, reference, T)
        assert report.outcome == Outcome.SHARP_DEGRADE
        assert report.sharp_drop_at_injection

    def test_sharp_slow_degrade(self, reference):
        """Sharp drop at the fault plus continued decline afterwards."""
        curve = np.concatenate([
            np.linspace(0.2, 0.95, 50), np.full(10, 0.95),
            np.full(6, 0.55),             # sharp drop
            np.linspace(0.55, 0.15, 40),  # continued slow degradation
            np.full(44, 0.15),
        ])
        faulty = make_record(curve, test_acc=np.full(15, 0.15))
        report = classify_outcome(faulty, reference, T)
        assert report.outcome == Outcome.SHARP_SLOW_DEGRADE

    def test_low_test_accuracy(self, reference):
        """Training accuracy normal; test accuracy visibly degraded —
        the mvar signature of Sec. 4.2.5."""
        curve = np.concatenate([np.linspace(0.2, 0.95, 50), np.full(100, 0.95)])
        faulty = make_record(curve, test_acc=np.concatenate(
            [np.full(6, 0.9), np.full(9, 0.2)]
        ))
        report = classify_outcome(faulty, reference, T)
        assert report.outcome == Outcome.LOW_TEST_ACCURACY


def test_classification_does_not_depend_on_where_the_record_starts(reference):
    """The same drop at absolute iteration 25, in a record that starts at
    iteration 0 and in one that starts at iteration 20."""
    curve = np.concatenate([np.full(25, 0.95), np.full(125, 0.3)])
    whole = make_record(curve)
    tail = ConvergenceRecord()
    for i in range(20, len(curve)):
        tail.record_train(i, 1.0 - curve[i], curve[i])
    a = classify_outcome(whole, reference, 25)
    b = classify_outcome(tail, reference, 25)
    assert a.sharp_drop_at_injection and a.outcome == Outcome.SHARP_DEGRADE
    assert (b.sharp_drop_at_injection, b.outcome) == \
        (a.sharp_drop_at_injection, a.outcome)


class TestBenignOutcomes:
    def test_masked_improved(self, reference):
        curve = np.concatenate([np.linspace(0.2, 0.96, 50), np.full(100, 0.97)])
        faulty = make_record(curve, test_acc=np.full(15, 0.91))
        assert classify_outcome(faulty, reference, T).outcome == Outcome.MASKED_IMPROVED

    def test_masked_slight_degrade(self, reference):
        curve = np.concatenate([np.linspace(0.2, 0.95, 50), np.full(100, 0.92)])
        faulty = make_record(curve, test_acc=np.full(15, 0.87))
        report = classify_outcome(faulty, reference, T)
        assert report.outcome == Outcome.MASKED_SLIGHT_DEGRADE
        assert not report.is_unexpected


class TestTaxonomyProperties:
    def test_unexpected_flags(self):
        assert not Outcome.MASKED_IMPROVED.is_unexpected
        assert not Outcome.MASKED_SLIGHT_DEGRADE.is_unexpected
        assert Outcome.SLOW_DEGRADE.is_unexpected
        assert Outcome.IMMEDIATE_INF_NAN.is_unexpected

    def test_latent_flags(self):
        assert Outcome.SLOW_DEGRADE.is_latent
        assert Outcome.LOW_TEST_ACCURACY.is_latent
        assert not Outcome.IMMEDIATE_INF_NAN.is_latent
        assert not Outcome.MASKED_IMPROVED.is_latent

    def test_breakdown_sums_to_one(self, reference):
        ff = {"category": "datapath", "group": None, "bit": 3,
              "has_feedback": False}
        payloads = []
        for nf in [T, T + 2, None]:
            faulty = make_record(np.full(150, 0.95), nonfinite_at=nf)
            outcome = classify_outcome(faulty, reference, T).outcome
            payloads.append({"outcome": outcome.value, "fault": {"ff": ff},
                             "condition_window": {}})
        breakdown = campaign_report_dict(payloads)["breakdown"]
        assert set(breakdown) == {o.value for o in Outcome}
        assert sum(breakdown.values()) == 3

    def test_breakdown_empty(self):
        breakdown = campaign_report_dict([])["breakdown"]
        assert breakdown == {o.value: 0 for o in Outcome}

    def test_custom_thresholds(self, reference):
        th = ClassifierThresholds(slight_degrade=0.5)
        curve = np.concatenate([np.linspace(0.2, 0.95, 50), np.full(100, 0.6)])
        faulty = make_record(curve, test_acc=np.full(15, 0.6))
        # With a huge slight-degrade threshold, a 0.35 drop counts benign.
        report = classify_outcome(faulty, reference, T, th)
        assert not report.is_unexpected
