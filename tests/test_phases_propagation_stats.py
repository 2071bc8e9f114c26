"""Tests for phase decomposition (Fig. 5), propagation tracing (Fig. 4 /
Table 4), and campaign statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.phases import decompose_phases, expected_stagnation_iterations
from repro.core.analysis.propagation import PropagationTracer
from repro.core.analysis.stats import (
    experiments_for_interval,
    unobserved_outcome_bound,
    wilson_interval,
)


class TestPhaseDecomposition:
    def _three_phase_curve(self):
        return np.concatenate([
            np.full(50, 0.9),             # pre-fault
            np.linspace(0.9, 0.3, 20),    # phase 1: degrade
            np.full(60, 0.3),             # phase 2: stagnate
            np.linspace(0.3, 0.88, 30),   # phase 3: recover
            np.full(10, 0.89),
        ])

    def test_detects_three_phases(self):
        analysis = decompose_phases(self._three_phase_curve(), 50, reference_level=0.9)
        assert analysis.has_three_phases
        assert analysis.recovered
        d, s, r = analysis.degrade_span, analysis.stagnation_span, analysis.recovery_span
        assert d[0] == 50
        assert d[1] <= s[0] + 1
        assert s[1] == r[0]

    def test_no_recovery(self):
        curve = np.concatenate([
            np.full(50, 0.9), np.linspace(0.9, 0.3, 20), np.full(100, 0.3)
        ])
        analysis = decompose_phases(curve, 50, reference_level=0.9)
        assert analysis.degrade_span is not None
        assert analysis.stagnation_span is not None
        assert analysis.recovery_span is None
        assert not analysis.recovered

    def test_never_degraded(self):
        curve = np.full(100, 0.9)
        analysis = decompose_phases(curve, 50, reference_level=0.9)
        assert analysis.recovered
        assert analysis.degrade_span is None

    def test_short_trace(self):
        analysis = decompose_phases(np.full(52, 0.9), 50, reference_level=0.9)
        assert analysis.details["reason"] == "trace too short"


class TestStagnationMath:
    def test_paper_example(self):
        """Decay 0.9999 with a 1e19 faulty value: ~4.4e5 iterations to
        decay below O(1) — "may require millions of iterations"."""
        iters = expected_stagnation_iterations(1e19, 0.9999)
        assert 3e5 < iters < 6e5

    def test_faster_decay_recovers_sooner(self):
        slow = expected_stagnation_iterations(1e10, 0.999)
        fast = expected_stagnation_iterations(1e10, 0.9)
        assert fast < slow

    def test_no_stagnation_below_normal(self):
        assert expected_stagnation_iterations(0.5, 0.999) == 0.0

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            expected_stagnation_iterations(1e10, 1.0)


class TestPropagationTracer:
    def test_records_magnitudes(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        tracer = PropagationTracer()
        trainer.add_hook(tracer)
        trainer.train(5)
        arrays = tracer.trace.as_arrays()
        assert arrays["iterations"].tolist() == [0, 1, 2, 3, 4]
        assert np.all(arrays["max_weight"] > 0)
        assert np.all(arrays["max_history"] > 0)  # Adam history present
        assert np.all(arrays["max_mvar"] > 0)     # BatchNorm present

    def test_condition_onset_detection(self, make_trainer):
        from repro.accelerator.ffs import FFDescriptor
        from repro.core.faults import FaultInjector, HardwareFault, OpSite

        trainer = make_trainer(num_devices=2)
        tracer = PropagationTracer()
        ff = FFDescriptor("global_control", group=1, has_feedback=True)
        fault = HardwareFault(ff=ff, site=OpSite("1.conv1", "weight_grad"),
                              iteration=5, device=1, seed=3)
        trainer.add_hook(FaultInjector(fault))
        trainer.add_hook(tracer)
        trainer.train(10)
        onsets = tracer.condition_onsets(fault_iteration=5)
        history = [o for o in onsets if o.condition == "gradient_history"]
        assert history
        # The paper's key claim: conditions appear within 2 iterations.
        assert history[0].latency_from_fault <= 2

    def test_window_magnitudes(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        tracer = PropagationTracer()
        trainer.add_hook(tracer)
        trainer.train(6)
        window = tracer.condition_magnitude_in_window(2, window=2)
        assert set(window) == {"max_history", "max_mvar"}
        assert window["max_history"] > 0


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        est = wilson_interval(30, 100)
        assert est.low <= est.point <= est.high
        assert est.point == pytest.approx(0.3)

    @given(st.integers(1, 1000), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_bounds_valid(self, trials, successes):
        if successes > trials:
            return
        est = wilson_interval(successes, trials)
        assert 0.0 <= est.low <= est.point <= est.high <= 1.0

    def test_interval_shrinks_with_trials(self):
        small = wilson_interval(10, 100)
        large = wilson_interval(1000, 10_000)
        assert large.half_width < small.half_width

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestUnobservedBound:
    def test_paper_scale(self):
        """At the paper's 2.9M experiments the bound is < 0.004% at 99.5%
        confidence — exactly what Sec. 4.1 claims."""
        assert unobserved_outcome_bound(2_900_000, 0.995) < 4e-5

    def test_monotone_in_trials(self):
        assert unobserved_outcome_bound(1000) < unobserved_outcome_bound(100)

    def test_invalid(self):
        with pytest.raises(ValueError):
            unobserved_outcome_bound(0)


class TestExperimentBudget:
    def test_paper_interval_needs_millions(self):
        """A +-0.1% interval at 99% needs ~1.7M worst-case experiments —
        the scale of the paper's campaign."""
        n = experiments_for_interval(0.001, 0.99)
        assert 1e6 < n < 3e6

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            experiments_for_interval(0.0)


class TestPhasesVsReference:
    def test_stalled_learning_detected(self):
        """A faulty run that stays flat while the reference climbs shows
        the three phases in deficit space even though its own accuracy
        never falls."""
        from repro.core.analysis.phases import decompose_phases_vs_reference

        reference = np.concatenate([np.linspace(0.2, 0.95, 100), np.full(100, 0.95)])
        faulty = np.concatenate([
            np.linspace(0.2, 0.5, 40),   # normal until the fault at 40
            np.full(80, 0.5),            # stalls while reference climbs
            np.linspace(0.5, 0.95, 60),  # catches up
            np.full(20, 0.95),
        ])
        analysis = decompose_phases_vs_reference(faulty, reference, 40)
        assert analysis.has_three_phases
        assert analysis.recovered

    def test_no_fault_no_phases(self):
        from repro.core.analysis.phases import decompose_phases_vs_reference

        curve = np.concatenate([np.linspace(0.2, 0.9, 80), np.full(40, 0.9)])
        analysis = decompose_phases_vs_reference(curve, curve, 40)
        assert analysis.degrade_span is None
        assert analysis.recovered

    def test_length_mismatch_truncates(self):
        from repro.core.analysis.phases import decompose_phases_vs_reference

        reference = np.full(100, 0.9)
        faulty = np.full(80, 0.9)
        analysis = decompose_phases_vs_reference(faulty, reference, 10)
        assert analysis.recovered
