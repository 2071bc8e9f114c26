"""Unified observability layer: tracing and counters.

Every empirical claim reproduced from the paper rests on observing what
a fault does iteration by iteration — the Fig. 4/5 propagation stories,
the Table 4 necessary conditions, and the Sec. 5 detection latencies.
This subsystem gives all of that one backbone instead of per-benchmark
plumbing:

* :class:`Tracer` — typed, structured events (``fault_injected``,
  ``detector_fired``, ``rollback``, ``iteration_stats``, ``divergence``,
  plus the engine's ``experiment_started`` / ``experiment_finished``
  unit markers) in a bounded ring buffer with schema-versioned JSONL
  export and a crash-tolerant reader.  A tracer is always passed, never
  installed: each experiment emits into the sink it was handed, and the
  campaign engine hands each unit of a lease a :class:`StampedView` of
  its worker's shard tracer (DESIGN.md decision 23);
* :mod:`~repro.observe.counters` — numpy-backed :class:`Counter` and
  :class:`Histogram` metrics, held as attributes by the one object that
  updates them (a serving engine); there is no registry, because a
  campaign's numbers are its ``CampaignState`` (workers are forked
  processes);
* :mod:`~repro.observe.export` and :mod:`~repro.observe.slo` — the
  ``/metrics`` and ``/progress`` renderings of that ``CampaignState``
  and the SLO rules over its flat namespace.  They are handed the
  state, so this package never imports :mod:`repro.engine` when it
  loads.

Where the wall-clock went is not answered here: ``benchmarks/perf/run.py
--trace`` attributes it from outside the package (DESIGN.md decision 8).

The layer is *numerically invisible* (it only reads already-computed
values; pinned by ``tests/test_golden_traces.py``) and cheap enough to
leave on (pinned by ``benchmarks/bench_observe_overhead.py``).
"""

from repro.observe.counters import Counter, Histogram
from repro.observe.events import (
    DETECTOR_FIRED,
    DIVERGENCE,
    EVENT_TYPES,
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    FAULT_INJECTED,
    ITERATION_STATS,
    ROLLBACK,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
)
from repro.observe.export import (
    dumps_json,
    metric_name,
    render_prometheus,
    validate_exposition,
)
from repro.observe.merge import (
    SHARD_PREFIX,
    TraceMergeResult,
    campaign_trace_path,
    merge_campaign_shards,
    merge_traces,
    shard_path,
    shard_paths,
)
from repro.observe.slo import (
    SLOConfigError,
    SLOEngine,
    SLORule,
    SLOStatus,
    load_rules,
)
from repro.observe.tracer import (
    NULL_TRACER,
    StampedView,
    TraceFile,
    Tracer,
    read_trace,
)

__all__ = [
    "DETECTOR_FIRED",
    "DIVERGENCE",
    "EVENT_TYPES",
    "EXPERIMENT_FINISHED",
    "EXPERIMENT_STARTED",
    "FAULT_INJECTED",
    "ITERATION_STATS",
    "NULL_TRACER",
    "ROLLBACK",
    "SHARD_PREFIX",
    "SLOConfigError",
    "SLOEngine",
    "SLORule",
    "SLOStatus",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Histogram",
    "StampedView",
    "TraceEvent",
    "TraceFile",
    "TraceMergeResult",
    "Tracer",
    "campaign_trace_path",
    "dumps_json",
    "load_rules",
    "metric_name",
    "merge_campaign_shards",
    "merge_traces",
    "read_trace",
    "render_prometheus",
    "shard_path",
    "shard_paths",
    "validate_exposition",
]
