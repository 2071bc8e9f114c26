"""Textual reports for campaign results.

The paper's artifact emits ``replay_inj_*.txt`` files recording training
loss/accuracy per iteration and flagged anomalies.  This module renders
equivalent human-readable summaries for :class:`ConvergenceRecord` and
:class:`CampaignResult` objects, so examples and operators can inspect
experiments without plotting.

Each text renderer has a ``*_dict`` twin returning the same content as
a JSON-safe dict (the CLI's ``--json`` output), and the trace-analysis
renderers work on the plain dicts produced by
:mod:`repro.observe.analysis`, so a single merged campaign trace can be
turned into Fig. 4-style propagation stories and Table 4 tallies
without re-running anything.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.analysis.classify import (
    InferenceOutcome,
    classify_inference_experiment,
    inference_breakdown,
)
from repro.core.analysis.stats import experiments_for_interval, wilson_interval
from repro.training.metrics import ConvergenceRecord

if TYPE_CHECKING:  # import cycle: campaign.py imports sibling modules
    from repro.core.faults.campaign import CampaignResult


def render_convergence(record: ConvergenceRecord, every: int = 1,
                       title: str = "training run") -> str:
    """Render a run's convergence trace, artifact-style."""
    lines = [f"# {title}"]
    for i in range(0, record.num_iterations, max(int(every), 1)):
        lines.append(
            f"iter {record.iterations[i]:>5d}  "
            f"loss {record.train_loss[i]:>10.4f}  "
            f"train_acc {record.train_acc[i]:.4f}"
        )
    for iteration, acc in zip(record.test_iterations, record.test_acc):
        lines.append(f"test @ iter {iteration:>5d}  test_acc {acc:.4f}")
    if record.nonfinite_at is not None:
        lines.append(f"!! INFs/NaNs observed at iteration {record.nonfinite_at}")
    for iteration in record.detections:
        lines.append(f"!! hardware failure detected at iteration {iteration}")
    for iteration in record.recoveries:
        lines.append(f">> recovery: re-executed from iteration {iteration}")
    return "\n".join(lines)


def stable_floats(value, digits: int = 12):
    """Normalize floats to ``digits`` significant digits, recursively.

    JSON reports that feed diffs (``repro report --json``, ``repro
    monitor --json``, ``diff-campaign``) must not churn on sub-ULP repr
    noise between platforms or numpy builds; 12 significant digits keep
    every meaningful delta while washing that noise out.  Non-finite
    floats and non-float leaves pass through unchanged.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: stable_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [stable_floats(v, digits) for v in value]
    return value


def render_campaign(result: CampaignResult) -> str:
    """Render a campaign's aggregate statistics (Fig. 3 / Table 4 style)."""
    lines = [f"# campaign: {result.workload} "
             f"({result.num_experiments} experiments)"]
    lines.append("## outcome breakdown (normalized to total)")
    for outcome, fraction in sorted(result.breakdown().items(),
                                    key=lambda kv: -kv[1]):
        if fraction > 0:
            lines.append(f"  {outcome:<24s} {fraction:7.2%}")
    interval = result.unexpected_interval()
    lines.append(
        f"## unexpected rate {result.unexpected_fraction():.2%} "
        f"(99% CI [{interval.low:.2%}, {interval.high:.2%}])"
    )
    lines.append("## contribution by FF class (Sec. 4.3.1)")
    for category, stats in result.by_ff_category().items():
        lines.append(
            f"  {category:<18s} population {stats['population_fraction']:6.2%}  "
            f"share of unexpected {stats['unexpected_share']:6.2%}"
        )
    ranges = result.condition_ranges()
    if ranges:
        lines.append("## necessary-condition ranges (Table 4)")
        for outcome, (lo, hi) in ranges.items():
            lines.append(f"  {outcome:<24s} {lo:.3e} .. {hi:.3e}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSON mirrors of the text reports (the CLI's --json output)
# ----------------------------------------------------------------------
def campaign_report_dict(result: CampaignResult) -> dict:
    """:func:`render_campaign` as a JSON-safe dict."""
    interval = result.unexpected_interval()
    return {
        "workload": result.workload,
        "num_experiments": result.num_experiments,
        "breakdown": {k: float(v) for k, v in result.breakdown().items()},
        "unexpected_rate": float(result.unexpected_fraction()),
        "unexpected_interval": {"low": float(interval.low),
                                "high": float(interval.high),
                                "confidence": float(interval.confidence)},
        "by_ff_category": result.by_ff_category(),
        "condition_ranges": {k: [float(lo), float(hi)]
                             for k, (lo, hi) in
                             result.condition_ranges().items()},
    }


#: The interval the minimum-n warning holds a rate report to: worst
#: case (p = 0.5) half-width and confidence.
INTERVAL_HALF_WIDTH = 0.02
INTERVAL_CONFIDENCE = 0.99


def inference_report_dict(payloads: list[dict]) -> dict:
    """Table 5's inference summary from ``kind="inference"`` store
    payloads; rates are over the experiments that completed, each with
    its Wilson interval and n under ``intervals``.  Records written
    before the outcome taxonomy landed lack ``outcome``; the ``sdc`` /
    ``nonfinite`` flags they do carry reconstruct it exactly.  (SDC
    takes precedence, so ``nonfinite_rate`` — every non-finite output —
    can exceed the ``nonfinite`` share of the breakdown.)
    ``masked_at_site_rate`` is the share of units whose fault changed no
    byte at its site, over the records that say (``rows_touched``).  A
    rate over no records is None."""
    breakdown = inference_breakdown([
        p.get("outcome") or classify_inference_experiment(
            sdc=bool(p.get("sdc")), nonfinite=bool(p.get("nonfinite"))).value
        for p in payloads])
    located = [p["rows_touched"] for p in payloads if "rows_touched" in p]
    n = len(payloads)
    counts = {
        "sdc_rate": (sum(bool(p.get("sdc")) for p in payloads), n),
        "nonfinite_rate": (sum(bool(p.get("nonfinite")) for p in payloads), n),
        "masked_rate": (breakdown[InferenceOutcome.MASKED.value], n),
        "masked_at_site_rate": (sum(rows == 0 for rows in located),
                                len(located)),
    }
    return {
        "num_experiments": n,
        **{name: hits / trials if trials else None
           for name, (hits, trials) in counts.items()},
        "intervals": {name: rate_interval(hits, trials)
                      for name, (hits, trials) in counts.items() if trials},
        "min_experiments": experiments_for_interval(
            INTERVAL_HALF_WIDTH, INTERVAL_CONFIDENCE),
        "breakdown": breakdown,
    }


def rate_interval(hits: int, trials: int) -> dict:
    """``hits / trials``'s Wilson interval and n, as a report's
    ``intervals`` entry holds them (what :func:`render_rate` prints)."""
    interval = wilson_interval(hits, trials, INTERVAL_CONFIDENCE)
    return {"low": float(interval.low), "high": float(interval.high),
            "confidence": float(interval.confidence), "n": trials}


def render_rate(report: dict, name: str) -> str:
    """One rate of a ``*_report_dict`` as ``estimate [lo, hi] (n=...)``."""
    interval = report["intervals"][name]
    return (f"{report[name]:.2%} [{interval['low']:.2%}, "
            f"{interval['high']:.2%}] (n={interval['n']})")


def render_inference(report: dict) -> str:
    """:func:`inference_report_dict` as text (Table 5 taxonomy)."""
    n = max(report["num_experiments"], 1)
    lines = ["outcome breakdown (Table 5 taxonomy):"] + [
        f"  {name:<10} {count:>6}  ({count / n:.2%})"
        for name, count in sorted(report["breakdown"].items())]
    intervals = report["intervals"]
    if intervals:
        lines.append(f"rates ({INTERVAL_CONFIDENCE:.0%} Wilson interval):")
        lines += [f"  {name:<20} {render_rate(report, name)}"
                  for name in intervals]
    if report["num_experiments"] < report["min_experiments"]:
        lines.append(
            f"!! {report['num_experiments']} experiments < "
            f"{report['min_experiments']}: too few for "
            f"+-{INTERVAL_HALF_WIDTH:.0%} at {INTERVAL_CONFIDENCE:.0%} "
            f"confidence on every rate")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace-analysis renderers (dicts from repro.observe.analysis)
# ----------------------------------------------------------------------
def render_propagation_report(summary: dict) -> str:
    """Fig. 4-style propagation story for one traced experiment.

    ``summary`` is an :func:`repro.observe.analysis.experiment_summary`
    dict.  Attribution stamps (experiment key, engine outcome) are
    deliberately not rendered, so the same experiment produces the
    identical report whether it was traced through engine workers or in
    a direct run.
    """
    lines = []
    fault = summary.get("fault")
    if fault is None:
        lines.append("# propagation: no fault_injected event in trace")
    else:
        lines.append(
            f"# propagation: fault @ iter {fault['iteration']} "
            f"(site {fault.get('site')}, kind {fault.get('kind')}, "
            f"op {fault.get('op')}, ff {fault.get('ff_category')}, "
            f"device {fault.get('device')})")
        lines.append(
            f"fault model {fault.get('model')}: "
            f"{fault.get('num_faulty')} elements, "
            f"max |value| {float(fault.get('max_abs_faulty') or 0.0):.3e}")
    for i, iteration in enumerate(summary["iterations"]):
        lines.append(
            f"iter {iteration:>5d}  loss {summary['loss'][i]:>12.4e}  "
            f"|history| {summary['max_history'][i]:>10.3e}  "
            f"|mvar| {summary['max_mvar'][i]:>10.3e}")
    if summary["onsets"]:
        lines.append("condition onsets:")
        for onset in summary["onsets"]:
            lines.append(
                f"  {onset['condition']} @ iter {onset['iteration']} "
                f"(latency {onset['latency_from_fault']}, "
                f"magnitude {onset['magnitude']:.3e})")
    window = summary.get("condition_window") or {}
    if window:
        lines.append(
            "necessary-condition window: "
            + "  ".join(f"{k}={v:.3e}" for k, v in sorted(window.items())))
    for detection in summary["detections"]:
        lines.append(
            f"!! detector fired @ iter {detection['iteration']} "
            f"({detection['condition']}, "
            f"magnitude {float(detection['magnitude'] or 0.0):.3e})")
    if summary["detection_latency"] is not None:
        lines.append(f"detection latency: "
                     f"{summary['detection_latency']} iterations")
    for rollback in summary["rollbacks"]:
        lines.append(f">> rollback @ iter {rollback['iteration']} "
                     f"({rollback['strategy']})")
    if summary["divergence_at"] is not None:
        lines.append(f"!! divergence at iteration {summary['divergence_at']}")
    return "\n".join(lines)


def render_trace_analysis(summary: dict) -> str:
    """Campaign-level analytics of a merged trace, artifact-style.

    ``summary`` is a :func:`repro.observe.analysis.campaign_summary`
    dict (detection latencies, Table 4 tallies, phase vulnerability).
    """
    lines = [f"# campaign trace analysis: {summary['experiments']} "
             f"experiments ({summary['with_fault']} with fault)"]
    if summary["outcomes"]:
        lines.append("## outcomes")
        for outcome, count in sorted(summary["outcomes"].items(),
                                     key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {outcome:<24s} {count:>6}")
    mean = summary["mean_detection_latency"]
    lines.append(
        f"## detection: {summary['detected']}/{summary['with_fault']} "
        f"faults detected"
        + (f", mean latency {mean:.2f} iterations" if mean is not None
           else ""))
    if summary["latency_histogram"]:
        lines.append("## detection-latency histogram (iterations -> count)")
        for latency, count in summary["latency_histogram"].items():
            lines.append(f"  {latency:>4}  {'#' * count} ({count})")
    tallies = summary["condition_tallies"]
    lines.append(f"## necessary conditions (Table 4, "
                 f"window {tallies['window']})")
    lines.append(
        f"  onsets: {tallies['onset_any']}/{tallies['experiments']} "
        f"experiments, {tallies['onset_within_window']} within "
        f"{tallies['window']} iterations of the fault")
    for outcome, tally in tallies["by_outcome"].items():
        line = (f"  {outcome:<24s} count {tally['count']:>4}  "
                f"fired {tally['condition_fired']:>4}")
        if tally["history_range"] is not None:
            lo, hi = tally["history_range"]
            line += f"  |history| {lo:.3e} .. {hi:.3e}"
        if tally["mvar_range"] is not None:
            lo, hi = tally["mvar_range"]
            line += f"  |mvar| {lo:.3e} .. {hi:.3e}"
        lines.append(line)
    lines.append("## vulnerability by training phase")
    for bucket in summary["phase_vulnerability"]:
        lines.append(
            f"  phase {bucket['phase']} "
            f"[{bucket['start']:>4}, {bucket['end']:>4})  "
            f"{bucket['experiments']:>4} experiments  "
            f"{bucket['unexpected']:>4} unexpected "
            f"({bucket['unexpected_rate']:.0%})  "
            f"{bucket['detected']:>4} detected")
    if summary["divergences"]:
        lines.append(f"## divergences observed: {summary['divergences']}")
    return "\n".join(lines)
