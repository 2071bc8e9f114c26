"""Outcome classification, phase decomposition, propagation tracing."""

from repro.core.analysis.classify import (
    ClassifierThresholds,
    InferenceOutcome,
    Outcome,
    OutcomeReport,
    classify_inference_experiment,
    classify_inference_rows,
    classify_outcome,
    inference_breakdown,
)
from repro.core.analysis.phases import (
    PhaseAnalysis,
    decompose_phases,
    decompose_phases_vs_reference,
    expected_stagnation_iterations,
)
from repro.core.analysis.propagation import (
    ConditionOnset,
    PropagationTrace,
    PropagationTracer,
    condition_magnitude_in_window,
    condition_onsets,
)
from repro.core.analysis.report import (
    campaign_report_dict,
    inference_report_dict,
    rate_interval,
    rates_with_intervals,
    render_campaign,
    render_convergence,
    render_inference,
    render_propagation_report,
    render_rate,
    render_trace_analysis,
    stable_floats,
)
from repro.core.analysis.stats import (
    ProportionEstimate,
    experiments_for_interval,
    unobserved_outcome_bound,
    wilson_interval,
)

__all__ = [
    "ClassifierThresholds",
    "ConditionOnset",
    "InferenceOutcome",
    "Outcome",
    "OutcomeReport",
    "PhaseAnalysis",
    "PropagationTrace",
    "PropagationTracer",
    "ProportionEstimate",
    "campaign_report_dict",
    "classify_inference_experiment",
    "classify_inference_rows",
    "classify_outcome",
    "inference_breakdown",
    "inference_report_dict",
    "condition_magnitude_in_window",
    "condition_onsets",
    "decompose_phases",
    "decompose_phases_vs_reference",
    "expected_stagnation_iterations",
    "experiments_for_interval",
    "rate_interval",
    "rates_with_intervals",
    "render_campaign",
    "render_convergence",
    "render_inference",
    "render_propagation_report",
    "render_rate",
    "render_trace_analysis",
    "stable_floats",
    "unobserved_outcome_bound",
    "wilson_interval",
]
