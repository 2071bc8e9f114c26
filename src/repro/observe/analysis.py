"""Trace analytics: paper-style reports from structured trace files.

Pure functions over trace events (a :class:`~repro.observe.TraceFile`
or a plain event list) that reconstruct the paper's campaign-level
results from one merged campaign trace instead of bespoke
per-benchmark reruns:

* :func:`propagation_summaries` — Fig. 4-style propagation stories per
  experiment (state-magnitude series, necessary-condition onsets,
  detection latency, rollbacks, divergence), reusing the condition
  analytics of :mod:`repro.core.analysis.propagation`;
* :func:`detection_latencies` / :func:`detection_latency_histogram` —
  Sec. 5.1 fault-to-detection latencies;
* :func:`condition_tallies` — Table 4 necessary-condition incidence per
  outcome (the magnitude ranges are the store's: every payload carries
  its ``condition_window``, and a trace is optional);
* :func:`phase_vulnerability` — per-phase vulnerability breakdown (which
  third of training the fault hit vs. how it ended);
* :func:`campaign_summary` — everything above in one dict, the payload
  behind ``repro trace FILE --analyze``.

Every function is deterministic in the event payloads alone (wall-clock
timestamps and worker attribution stamps are ignored), so the same
experiment analyzed from a merged campaign trace and from a direct
single-run trace produces bit-identical results.
"""

from __future__ import annotations

from repro.core.analysis.propagation import (
    PropagationTrace,
    condition_magnitude_in_window,
    condition_onsets,
)
from repro.core.analysis.report import rates_with_intervals
from repro.core.mitigation.guard import first_detection
from repro.observe.events import (
    DETECTOR_FIRED,
    DIVERGENCE,
    EXPERIMENT_FINISHED,
    FAULT_INJECTED,
    ITERATION_STATS,
    ROLLBACK,
    TraceEvent,
)
from repro.observe.tracer import TraceFile

#: Outcome labels counted as benign in vulnerability breakdowns
#: (the Table 3 taxonomy's two masked classes plus the engine's toy
#: "ok"; everything else is unexpected).
BENIGN_OUTCOMES = frozenset({"masked_improved", "masked_slight_degrade",
                             "masked", "ok"})


def _events(trace) -> list[TraceEvent]:
    if isinstance(trace, TraceFile):
        return trace.events
    return list(trace)


def experiments(trace) -> dict[str | None, list[TraceEvent]]:
    """Group events by their experiment ``key`` stamp, order preserved.

    Events without a key (a direct, single-experiment trace) group under
    ``None``."""
    groups: dict[str | None, list[TraceEvent]] = {}
    for event in _events(trace):
        key = event.data.get("key")
        groups.setdefault(key if isinstance(key, str) else None,
                          []).append(event)
    return groups


def propagation_trace(trace) -> PropagationTrace:
    """Rebuild a :class:`PropagationTrace` from ``iteration_stats`` events.

    The trace events carry the two necessary-condition series (optimizer
    history and BatchNorm moving-statistic extrema); the weight/gradient
    series are not traced per iteration and are filled with zeros.
    """
    out = PropagationTrace()
    for event in _events(trace):
        if event.type != ITERATION_STATS or event.iteration is None:
            continue
        out.iterations.append(int(event.iteration))
        out.max_weight.append(0.0)
        out.max_gradient.append(0.0)
        out.max_history.append(float(event.data.get("history_magnitude")
                                     or 0.0))
        out.max_mvar.append(float(event.data.get("mvar_magnitude") or 0.0))
    return out


#: Fault attributes copied verbatim from a ``fault_injected`` event
#: (attribution stamps like key/worker/attempt are deliberately not
#: part of the summary, so engine and direct traces analyze alike).
_FAULT_FIELDS = ("device", "site", "kind", "op", "ff_category", "model",
                 "num_faulty", "max_abs_faulty")


def experiment_summary(events: list[TraceEvent],
                       condition_window: int = 2) -> dict:
    """One experiment's Fig. 4-style propagation story as a plain dict."""
    ptrace = propagation_trace(events)
    summary: dict = {
        "key": next((e.data["key"] for e in events
                     if isinstance(e.data.get("key"), str)), None),
        "iterations": [int(i) for i in ptrace.iterations],
        "loss": [float(e.data.get("loss", 0.0)) for e in events
                 if e.type == ITERATION_STATS],
        "acc": [float(e.data.get("acc", 0.0)) for e in events
                if e.type == ITERATION_STATS],
        "max_history": [float(v) for v in ptrace.max_history],
        "max_mvar": [float(v) for v in ptrace.max_mvar],
        "fault": None,
        "onsets": [],
        "condition_window": {},
        "detections": [{"iteration": e.iteration,
                        "condition": e.data.get("condition"),
                        "magnitude": e.data.get("magnitude"),
                        "bound": e.data.get("bound")}
                       for e in events if e.type == DETECTOR_FIRED],
        "detection_latency": None,
        "rollbacks": [{"iteration": e.iteration,
                       "resume_iteration": e.data.get("resume_iteration"),
                       "strategy": e.data.get("strategy")}
                      for e in events if e.type == ROLLBACK],
        "divergence_at": next((e.iteration for e in events
                               if e.type == DIVERGENCE), None),
        "outcome": next((e.data.get("outcome") for e in events
                         if e.type == EXPERIMENT_FINISHED), None),
    }
    injected = next((e for e in events if e.type == FAULT_INJECTED), None)
    if injected is not None:
        fault_iteration = int(injected.iteration)
        summary["fault"] = {"iteration": fault_iteration,
                            **{f: injected.data.get(f)
                               for f in _FAULT_FIELDS}}
        summary["onsets"] = [
            {"condition": o.condition, "iteration": o.iteration,
             "magnitude": o.magnitude,
             "latency_from_fault": o.latency_from_fault}
            for o in condition_onsets(ptrace, fault_iteration)]
        summary["condition_window"] = condition_magnitude_in_window(
            ptrace, fault_iteration, window=condition_window)
        first = first_detection(
            (e for e in events if e.type == DETECTOR_FIRED), fault_iteration)
        if first is not None:
            summary["detection_latency"] = int(first.iteration) - fault_iteration
    return summary


def propagation_summaries(trace, condition_window: int = 2) \
        -> dict[str | None, dict]:
    """Per-experiment Fig. 4-style summaries, keyed by experiment key."""
    return {key: experiment_summary(events, condition_window)
            for key, events in experiments(trace).items()}


def detection_latencies(trace) -> list[dict]:
    """Fault-to-detection latency per experiment (Sec. 5.1).

    Only experiments carrying a ``fault_injected`` event contribute.  The
    detection is the first ``detector_fired`` at or after the fault
    iteration (a firing before the fault is not a detection of it,
    :func:`~repro.core.mitigation.guard.first_detection`); the latency
    is ``None`` for faults no guard caught."""
    out = []
    for key, events in experiments(trace).items():
        injected = next((e for e in events if e.type == FAULT_INJECTED), None)
        if injected is None:
            continue
        t = int(injected.iteration)
        fired = first_detection(
            (e for e in events if e.type == DETECTOR_FIRED), t)
        out.append({
            "key": key,
            "fault_iteration": t,
            "detected_at": None if fired is None else int(fired.iteration),
            "latency": None if fired is None else int(fired.iteration) - t,
            "condition": None if fired is None else fired.data.get("condition"),
        })
    return out


def detection_latency_histogram(trace) -> dict[int, int]:
    """Detection-latency histogram: latency (iterations) -> count."""
    histogram: dict[int, int] = {}
    for row in detection_latencies(trace):
        if row["latency"] is not None:
            histogram[row["latency"]] = histogram.get(row["latency"], 0) + 1
    return dict(sorted(histogram.items()))


def condition_tallies(trace, window: int = 2) -> dict:
    """Table 4: necessary-condition incidence.

    For every experiment with a fault, how many per outcome label had a
    condition onset, and how many had one within ``window`` iterations
    of the injection (the paper's "within two training iterations"
    claim)."""
    by_outcome: dict[str, dict] = {}
    experiments_with_fault = 0
    onset_within_window = 0
    onset_any = 0
    for summary in propagation_summaries(trace, condition_window=window).values():
        if summary["fault"] is None:
            continue
        experiments_with_fault += 1
        if summary["onsets"]:
            onset_any += 1
            if any(o["latency_from_fault"] <= window
                   for o in summary["onsets"]):
                onset_within_window += 1
        outcome = summary["outcome"] or "unknown"
        tally = by_outcome.setdefault(outcome,
                                      {"count": 0, "condition_fired": 0})
        tally["count"] += 1
        if summary["onsets"]:
            tally["condition_fired"] += 1
    return {
        "window": int(window),
        "experiments": experiments_with_fault,
        "onset_any": onset_any,
        "onset_within_window": onset_within_window,
        "by_outcome": dict(sorted(by_outcome.items())),
    }


def phase_vulnerability(trace, phases: int = 3) -> list[dict]:
    """Vulnerability by training phase of the injection (Fig. 5 flavor).

    The observed iteration range is split into ``phases`` equal spans;
    each experiment is bucketed by its fault iteration, and the bucket
    tallies outcomes (benign vs. unexpected, per
    :data:`BENIGN_OUTCOMES`) and detections; its ``unexpected_rate`` is
    None when no fault landed in it, else carries its interval and n
    under ``intervals``."""
    if phases < 1:
        raise ValueError(f"phases must be >= 1: {phases}")
    summaries = [s for s in propagation_summaries(trace).values()
                 if s["fault"] is not None]
    max_iteration = 0
    for event in _events(trace):
        if event.iteration is not None:
            max_iteration = max(max_iteration, int(event.iteration))
    span = max(max_iteration + 1, 1)
    buckets = []
    for p in range(phases):
        start = p * span // phases
        end = (p + 1) * span // phases if p < phases - 1 else span
        buckets.append({"phase": p, "start": start, "end": end,
                        "experiments": 0, "unexpected": 0, "detected": 0})
    for summary in summaries:
        it = summary["fault"]["iteration"]
        index = min(it * phases // span, phases - 1)
        bucket = buckets[index]
        bucket["experiments"] += 1
        if (summary["outcome"] or "unknown") not in BENIGN_OUTCOMES:
            bucket["unexpected"] += 1
        if summary["detections"]:
            bucket["detected"] += 1
    for bucket in buckets:
        bucket.update(rates_with_intervals({"unexpected_rate": (
            bucket["unexpected"], bucket["experiments"])}))
    return buckets


def campaign_summary(trace, condition_window: int = 2,
                     phases: int = 3) -> dict:
    """Everything the trace can tell about a campaign, in one dict.

    ``detection_coverage`` is the share of faulted experiments the
    detector caught (None with no fault), with its interval and n under
    ``intervals``."""
    groups = experiments(trace)
    latencies = detection_latencies(trace)
    detected = [r for r in latencies if r["latency"] is not None]
    outcomes: dict[str, int] = {}
    divergences = 0
    for events in groups.values():
        outcome = next((e.data.get("outcome") for e in events
                        if e.type == EXPERIMENT_FINISHED), None)
        if outcome is not None:
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if any(e.type == DIVERGENCE for e in events):
            divergences += 1
    mean_latency = (sum(r["latency"] for r in detected) / len(detected)
                    if detected else None)
    return {
        "experiments": len(groups),
        "with_fault": len(latencies),
        "detected": len(detected),
        **rates_with_intervals(
            {"detection_coverage": (len(detected), len(latencies))}),
        "mean_detection_latency": mean_latency,
        "latency_histogram": detection_latency_histogram(trace),
        "outcomes": dict(sorted(outcomes.items())),
        "divergences": divergences,
        "condition_tallies": condition_tallies(trace, window=condition_window),
        "phase_vulnerability": phase_vulnerability(trace, phases=phases),
    }
