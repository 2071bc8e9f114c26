"""Textual reports for campaign results.

The paper's artifact emits ``replay_inj_*.txt`` files recording training
loss/accuracy per iteration and flagged anomalies.  This module renders
equivalent human-readable summaries of a :class:`ConvergenceRecord` and
of a campaign's store payloads, so examples and operators can inspect
experiments without plotting.

A campaign summary is a JSON-safe ``*_report_dict`` over store payloads
(the CLI's ``--json`` output) with a ``render_*`` text twin, and the
trace-analysis renderers work on the plain dicts produced by
:mod:`repro.observe.analysis`, so a single merged campaign trace can be
turned into Fig. 4-style propagation stories and Table 4 tallies
without re-running anything.
"""

from __future__ import annotations

import math

from repro.accelerator.ffs import FF_CLASSES, FFDescriptor
from repro.core.analysis.classify import (
    InferenceOutcome,
    Outcome,
    classify_inference_experiment,
    inference_breakdown,
)
from repro.core.analysis.stats import experiments_for_interval, wilson_interval
from repro.training.metrics import ConvergenceRecord


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


#: The interval the minimum-n warning holds a rate report to: worst
#: case (p = 0.5) half-width and confidence.
INTERVAL_HALF_WIDTH = 0.02
INTERVAL_CONFIDENCE = 0.99


def rates_with_intervals(counts: dict[str, tuple[int, int]]) -> dict:
    """Rates from ``name -> (hits, trials)``: one float per rate (None
    over no trials) and, under ``intervals``, the Wilson interval and n
    of each rate that has trials — what :func:`render_rate` prints."""
    return {
        **{name: hits / trials if trials else None
           for name, (hits, trials) in counts.items()},
        "intervals": {name: rate_interval(hits, trials)
                      for name, (hits, trials) in counts.items() if trials},
    }


def _report(n: int, counts: dict[str, tuple[int, int]]) -> dict:
    """The fields every ``*_report_dict`` shares: n, the rates and the
    n the minimum-n warning asks for."""
    return {"num_experiments": n, **rates_with_intervals(counts),
            "min_experiments": experiments_for_interval(
                INTERVAL_HALF_WIDTH, INTERVAL_CONFIDENCE)}


def campaign_report_dict(payloads: list[dict]) -> dict:
    """The training summary (Fig. 3, Sec. 4.3.1, Table 4) from
    ``kind="campaign"`` store payloads.

    ``breakdown`` counts experiments per :class:`Outcome`.  The rates are
    the unexpected rate and, per Sec. 4.3.1 FF class (``FF_CLASSES``),
    its unexpected rate, its share of the experiments and its share of
    the unexpected outcomes; each carries its Wilson interval and n under
    ``intervals``, and a rate over no records is None.
    ``condition_ranges`` holds Table 4's observed [min, max] magnitude
    per latent (and short-term INF/NaN) outcome, read from each payload's
    ``condition_window``: optimizer history for the SlowDegrade family,
    mvar for the rest."""
    # Imported here: repro.core.faults.campaign imports this module.
    from repro.core.faults.serialization import _from_json_number

    outcomes = [Outcome(p["outcome"]) for p in payloads]
    unexpected = [o.is_unexpected for o in outcomes]
    classes = [FFDescriptor(**p["fault"]["ff"]).ff_class for p in payloads]
    n, hits = len(payloads), sum(unexpected)
    counts = {"unexpected_rate": (hits, n)}
    for name in FF_CLASSES:
        members = [u for u, c in zip(unexpected, classes) if c == name]
        counts[f"{name}_share"] = (len(members), n)
        counts[f"{name}_unexpected_share"] = (sum(members), hits)
        counts[f"{name}_unexpected_rate"] = (sum(members), len(members))
    ranges: dict[str, list[float]] = {}
    for outcome, payload in zip(outcomes, payloads):
        if not (outcome.is_latent or outcome == Outcome.SHORT_TERM_INF_NAN):
            continue
        field = ("max_history" if outcome in (
            Outcome.SLOW_DEGRADE, Outcome.SHARP_SLOW_DEGRADE) else "max_mvar")
        value = _from_json_number(payload["condition_window"].get(field, 0.0))
        if value <= 0.0:
            continue
        lo, hi = ranges.get(outcome.value, (value, value))
        ranges[outcome.value] = [min(lo, value), max(hi, value)]
    return {**_report(n, counts),
            "breakdown": {o.value: outcomes.count(o) for o in Outcome},
            "condition_ranges": ranges}


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
    return {**_report(n, counts), "breakdown": breakdown}


def rate_interval(hits: int, trials: int) -> dict:
    """``hits / trials``'s Wilson interval and n, as a report's
    ``intervals`` entry holds them (what :func:`render_rate` prints)."""
    interval = wilson_interval(hits, trials, INTERVAL_CONFIDENCE)
    return {"low": float(interval.low), "high": float(interval.high),
            "confidence": float(interval.confidence), "n": trials}


def render_rate(report: dict, name: str) -> str:
    """One rate of a ``*_report_dict`` as ``estimate [lo, hi] (n=...)``;
    a rate over no records as ``n/a (n=0)``."""
    if report[name] is None:
        return "n/a (n=0)"
    interval = report["intervals"][name]
    return (f"{report[name]:.2%} [{interval['low']:.2%}, "
            f"{interval['high']:.2%}] (n={interval['n']})")


def _render_summary(report: dict, taxonomy: str) -> list[str]:
    """What every ``*_report_dict`` renders alike: the outcome counts,
    each rate that has an interval, and the minimum-n warning."""
    n = report["num_experiments"]
    width = max(map(len, report["breakdown"])) + 1
    lines = [f"outcome breakdown ({taxonomy}):"] + [
        f"  {name:<{width}} {count:>6}  ({count / max(n, 1):.2%})"
        for name, count in sorted(report["breakdown"].items())]
    intervals = report["intervals"]
    if intervals:
        width = max(map(len, intervals)) + 1
        lines.append(f"rates ({INTERVAL_CONFIDENCE:.0%} Wilson interval):")
        lines += [f"  {name:<{width}} {render_rate(report, name)}"
                  for name in intervals]
    if n < report["min_experiments"]:
        lines.append(
            f"!! {n} experiments < {report['min_experiments']}: too few for "
            f"+-{INTERVAL_HALF_WIDTH:.0%} at {INTERVAL_CONFIDENCE:.0%} "
            f"confidence on every rate")
    return lines


def render_inference(report: dict) -> str:
    """:func:`inference_report_dict` as text (Table 5 taxonomy)."""
    return "\n".join(_render_summary(report, "Table 5 taxonomy"))


def render_campaign(report: dict, workload: str) -> str:
    """:func:`campaign_report_dict` as text (Fig. 3, Sec. 4.3.1 and
    Table 4)."""
    lines = [f"# campaign: {workload} ({report['num_experiments']} "
             f"experiments)"]
    lines += _render_summary(report, "Table 3 taxonomy")
    if report["condition_ranges"]:
        lines.append("necessary-condition ranges (Table 4):")
        lines += [f"  {outcome:<24s} {lo:.3e} .. {hi:.3e}"
                  for outcome, (lo, hi) in report["condition_ranges"].items()]
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
    dict (detection coverage and latencies, Table 4 condition onsets,
    phase vulnerability); its rates print as ``estimate [lo, hi] (n=...)``.
    Table 4's magnitude ranges are the store's (:func:`render_campaign`).
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
        f", coverage {render_rate(summary, 'detection_coverage')}"
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
    lines += [f"  {outcome:<24s} count {tally['count']:>4}  "
              f"fired {tally['condition_fired']:>4}"
              for outcome, tally in tallies["by_outcome"].items()]
    lines.append("## vulnerability by training phase")
    for bucket in summary["phase_vulnerability"]:
        lines.append(
            f"  phase {bucket['phase']} "
            f"[{bucket['start']:>4}, {bucket['end']:>4})  "
            f"{bucket['experiments']:>4} experiments  "
            f"{bucket['unexpected']:>4} unexpected  "
            f"{bucket['detected']:>4} detected  "
            f"unexpected rate {render_rate(bucket, 'unexpected_rate')}")
    if summary["divergences"]:
        lines.append(f"## divergences observed: {summary['divergences']}")
    return "\n".join(lines)
