"""Per-layer metrics from a traced run's spans and counts.

Times are self time in reference seconds (see :mod:`hostclock`) summed
over the traced phase, whose size is fixed, so two commits did the same
work.  Three serving times are *inclusive* because their self time says
nothing: ``serving.session.forward_s`` and ``serving.shadow_s`` are the
primary and the shadow forward with the ``nn`` layers inside them, and
``serving.executor_busy_frac`` is the whole batch.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from probes import covered_seconds, self_times

#: metric -> span names whose self time it sums.
SELF_TIME = {
    "nn.conv.forward_s": ("nn.conv.forward",),
    "nn.conv.backward_s": ("nn.conv.backward",),
    "nn.batchnorm.forward_s": ("nn.batchnorm.forward",),
    "nn.batchnorm.backward_s": ("nn.batchnorm.backward",),
    "nn.dense.forward_s": ("nn.dense.forward",),
    "nn.dense.backward_s": ("nn.dense.backward",),
    "nn.activation.forward_s": ("nn.activation.forward",),
    "nn.activation.backward_s": ("nn.activation.backward",),
    "nn.loss_s": ("nn.loss",),
    "nn.forward_s": ("nn.conv.forward", "nn.batchnorm.forward",
                     "nn.dense.forward", "nn.activation.forward",
                     "nn.other.forward"),
    "nn.backward_s": ("nn.conv.backward", "nn.batchnorm.backward",
                      "nn.dense.backward", "nn.activation.backward",
                      "nn.other.backward"),
    "backend.inprocess.step_s": ("backend.inprocess.step",),
    "backend.broadcast_s": ("backend.broadcast",),
    "optim.step_s": ("optim.step",),
    "backend.batched.lockstep_s": ("backend.batched.lockstep",),
    "backend.batched.compute_s": ("backend.batched.compute",),
    "distributed.trainer_build_s": ("distributed.trainer_build",),
    "distributed.evaluate_s": ("distributed.evaluate",),
    "distributed.condition_probe_s": ("distributed.condition_probe",),
    "distributed.train_loop_s": ("distributed.train_loop",),
    "state.restore_s": ("state.restore",),
    "state.snapshot_s": ("state.snapshot",),
    "state.digest_s": ("state.digest",),
    "faults.sample_s": ("faults.sample",),
    "faults.inject_s": ("faults.inject",),
    "faults.propagation_s": ("faults.propagation",),
    "faults.experiment_self_s": ("faults.run_experiment",),
    "mitigation.detector_check_s": ("mitigation.detector_check",),
    "analysis.classify_s": ("analysis.classify",),
    "engine.run_self_s": ("engine.run",),
    "engine.store_append_s": ("engine.store_append",),
    "observe.trace_emit_s": ("observe.trace_emit",),
    "observe.trace_merge_s": ("observe.trace_merge",),
    "serving.loop_step_s": ("serving.loop_step",),
    "serving.execute_s": ("serving.execute",),
    "serving.session.gather_s": ("serving.session.gather",),
    "serving.faultplane.arm_s": ("serving.faultplane.arm",),
}

#: metric -> span name whose calls it counts.
CALLS = {
    "nn.conv.calls": "nn.conv.forward",
    "optim.steps": "optim.step",
    "faults.sample_calls": "faults.sample",
    "mitigation.detector_checks": "mitigation.detector_check",
    "engine.store_appends": "engine.store_append",
}


def _split_shadow(spans: list[list]) -> None:
    """Within one batch, the second session forward is the shadow
    re-execution: rename it so the two are told apart."""
    seen: defaultdict[int, int] = defaultdict(int)
    for span in spans:
        if span[0] == "serving.session.forward" and span[3] >= 0:
            seen[span[3]] += 1
            if seen[span[3]] > 1:
                span[0] = "serving.shadow"


def layer_metrics(ctx, spans: list[list]) -> dict:
    """Every per-layer metric of the traced run in ``ctx``; a metric
    whose probes are all missing is ``None``."""
    probes, clock, marks, result = ctx.probes, ctx.clock, ctx.marks, ctx.result
    _split_shadow(spans)
    window = (marks["timed_start"], marks["timed_end"])
    host = float(clock.speed(*window)[0])
    own = self_times(spans)
    self_s: defaultdict[str, float] = defaultdict(float)
    total_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for span, self_time in zip(spans, own):
        # Set-up is outside the window, but it is where the warm-up
        # snapshot is taken.
        if span[1] >= window[0] or span[0] == "state.snapshot":
            self_s[span[0]] += self_time * host
            total_s[span[0]] += (span[2] - span[1]) * host
            calls[span[0]] += 1

    def known(*span_names) -> bool:
        return any(name in probes.installed for name in span_names)

    out: dict[str, float | None] = {}
    for metric, span_names in SELF_TIME.items():
        out[metric] = sum(self_s[n] for n in span_names) \
            if known(*span_names) else None
    # The execute callable is an instance probe, placed only where an
    # engine exists; the batcher class stands in for "could be placed".
    if known("serving.batcher.submit") and out["serving.execute_s"] is None:
        out["serving.execute_s"] = 0.0
    for metric, span_name in CALLS.items():
        out[metric] = calls[span_name] if known(span_name) else None
    counters = probes.counters
    out["state.restore_bytes"] = counters["state.restore_bytes"] \
        if known("state.restore") else None
    out["observe.trace_events"] = counters["observe.trace_events"] \
        if known("observe.trace_emit") else None
    compute_calls = calls["backend.batched.compute"]
    out["backend.batched.lanes_per_call"] = (
        counters["backend.batched.lanes"] / compute_calls
        if compute_calls else 0.0) if known("backend.batched.compute") else None
    out["engine.store_bytes"] = result.get("store_bytes", 0)

    # Serving: counts from the engine's own summary, waits from spans.
    serving = result.get("serving", {})
    out["serving.batcher.batches"] = serving.get("batches", 0)
    out["serving.batcher.shed"] = serving.get("shed", 0)
    out["serving.batcher.batch_size_mean"] = serving.get("batch_size_mean", 0.0)
    out["serving.faults_fired"] = serving.get("faults_fired", 0)
    out["serving.shadow_execs"] = serving.get("shadow_execs", 0)
    out["serving.recovered_batches"] = serving.get("recovered_batches", 0)
    out["serving.session.forward_s"] = total_s["serving.session.forward"] \
        if known("serving.session.forward") else None
    out["serving.shadow_s"] = total_s["serving.shadow"] \
        if known("serving.session.forward") else None
    out["serving.batcher.queue_wait_p50_ms"] = _queue_wait_p50_ms(
        spans, probes.batch_requests) if known("serving.batcher.submit") else None
    open_loop = result.get("detail", {}).get("open_loop", {})
    out["serving.open.latency_p90_ms"] = open_loop.get("latency_p90_ms", 0.0)
    out["serving.open.latency_p99_ms"] = open_loop.get("latency_p99_ms", 0.0)
    out["serving.open.late_p99_ms"] = open_loop.get("late_p99_ms", 0.0)

    # The saturated part of the run: all of a campaign, phase A of a
    # serve workload (phase B idles by design at a fifth of capacity).
    busy_end = marks.get("phase_a_end", window[1])
    busy_wall = busy_end - window[0]
    executing = sum(
        min(s[2], busy_end) - s[1] for s in spans
        if s[0] == "serving.execute" and window[0] <= s[1] < busy_end)
    out["serving.executor_busy_frac"] = executing / busy_wall \
        if known("serving.execute", "serving.batcher.submit") else None
    out["trace.unattributed_frac"] = 1.0 - covered_seconds(
        spans, window[0], busy_end) / busy_wall

    # Overhead: the same child ran one untraced segment first.
    untraced = result["untraced_n"] / float(clock.normalise(
        marks["untraced_start"], marks["untraced_end"])[0])
    traced = result["traced_n"] / float(clock.normalise(
        window[0], busy_end)[0])
    out["trace.overhead_frac"] = 1.0 - traced / untraced
    result["trace"] = {"spans": len(spans), "host_speed": host,
                       "untraced_per_s": untraced, "traced_per_s": traced}
    return out


def _queue_wait_p50_ms(spans: list[list], batch_requests: list[list[int]]) -> float:
    submitted = {span[4]: span[1] for span in spans
                 if span[0] == "serving.batcher.submit"}
    waits = []
    for span in spans:
        if span[0] != "serving.execute":
            continue
        batch = int(span[4][1:])
        for request in batch_requests[batch]:
            sent = submitted.get(f"r{request}")
            if sent is not None:
                waits.append(span[1] - sent)
    return float(np.median(waits)) * 1e3 if waits else 0.0


def write_trace(path: Path, ctx, spans: list[list]) -> None:
    """The raw spans, for reading a slow run without re-running it."""
    names = sorted({span[0] for span in spans})
    number = {name: i for i, name in enumerate(names)}
    origin = ctx.marks["timed_start"]
    payload = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "fields": ["name", "start_s", "end_s", "parent", "key", "thread"],
        "names": names,
        "batch_requests": ctx.probes.batch_requests,
        "probes_missing": ctx.probes.missing,
        "spans": [[number[name], round(start - origin, 7),
                   round(end - origin, 7), parent,
                   f"u{key}" if isinstance(key, int) else key, thread]
                  for name, start, end, parent, key, thread in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
