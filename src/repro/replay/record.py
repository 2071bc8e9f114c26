"""Replay records: reconstructing one experiment from a campaign trace.

The flight recorder (PR 4) already captures everything an experiment
*did*; this module makes the trace a *reconstruction* record.  A merged
campaign trace carries, per experiment key:

* the ``experiment_started`` marker with the full work-unit payload
  (``{"index", "fault": <descriptor>}``) — the exact seeded fault;
* the ``experiment_finished`` marker with the classified outcome and the
  final training-state digest (``arena_sha256``);
* the campaign config in the trace header's ``store_meta`` (workload,
  size, seeds, warm-up/horizon, thresholds, backend) — everything
  :meth:`~repro.core.faults.campaign.Campaign.from_config` needs.

:func:`replay_record` extracts one experiment's :class:`ReplayRecord`
from a trace, failing with a clean :class:`ReplayError` on any record
that cannot support a faithful replay: missing/duplicated attempts,
missing markers, truncated payloads, unreadable traces.  A wrong replay
is strictly worse than no replay, so every ambiguity is an error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import jsonl
from repro.observe.events import (
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    TraceEvent,
)
from repro.observe.tracer import read_trace


class ReplayError(ValueError):
    """A trace record cannot support a faithful replay."""


#: Engine bookkeeping events: markers of *scheduling*, not of training.
#: They are stripped before event-stream comparison, since a replay runs
#: outside the engine and never re-emits them.
ENGINE_EVENT_TYPES = frozenset({
    EXPERIMENT_STARTED,
    EXPERIMENT_FINISHED,
})

#: Shard-capture attribution stamps merged under event data by each
#: unit's view of the shard tracer.  A replay tracer carries no stamp, so
#: they are stripped before comparison.
CONTEXT_KEYS = ("key", "worker", "attempt")


@dataclass
class ReplayRecord:
    """Everything needed to re-run and verify one experiment."""

    key: str
    index: int
    #: Serialized :class:`~repro.core.faults.hardware.HardwareFault`.
    fault: dict
    #: :meth:`Campaign.config_dict` record from the trace/store header.
    config: dict
    #: Backend the experiment was originally executed on.
    backend: str
    #: Classified outcome value recorded at completion (Table 3 label).
    outcome: str | None = None
    #: Final training-state digest recorded at completion.
    arena_sha256: str | None = None
    #: Canonicalized training-event lines (see :func:`normalize_events`);
    #: empty for a corpus entry, which pins the digest alone.
    events: list[str] = field(default_factory=list)
    #: Digest over :attr:`events`; ``None`` when no events were stored.
    events_sha256: str | None = None


def canonical_event(event: TraceEvent) -> str:
    """One event as a canonical JSON line, stable across emitters.

    Drops the emission counter and wall-clock stamp (both vary run to
    run), strips the shard-capture context, and serializes with sorted
    keys through one dumps/loads round trip so numpy scalars and
    non-finite floats compare by their serialized form.
    """
    data = {k: v for k, v in event.data.items() if k not in CONTEXT_KEYS}
    payload = {"type": event.type, "iteration": event.iteration,
               "data": json.loads(jsonl.dumps(data))}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def normalize_events(events: list[TraceEvent]) -> list[str]:
    """The comparable training-event story: canonical lines, in order,
    with engine scheduling markers removed."""
    return [canonical_event(e) for e in events
            if e.type not in ENGINE_EVENT_TYPES]


def events_digest(lines: list[str]) -> str:
    """sha256 over a normalized event stream."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _campaign_config(meta: dict, path: Path) -> dict:
    store_meta = meta.get("store_meta")
    if not isinstance(store_meta, dict) or \
            not isinstance(store_meta.get("config"), dict):
        raise ReplayError(
            f"{path}: trace header carries no campaign config "
            "(store_meta.config); the campaign predates replay support — "
            "re-run it with tracing on to produce a replayable trace")
    return store_meta["config"]


def _experiment_events(trace, key: str, path: Path) -> list[TraceEvent]:
    """One experiment's single complete attempt, or a clean error.

    Merged campaign traces hold exactly one attempt per key; raw shard
    files (or hand-concatenated traces) may hold several.  Replaying an
    ambiguous story silently would be wrong, so >1 complete attempt is
    an error, as is a story with no completed attempt at all.
    """
    attempts: dict[object, list[TraceEvent]] = {}
    for event in trace.events:
        if event.data.get("key") != key:
            continue
        attempts.setdefault(event.data.get("attempt"), []).append(event)
    if not attempts:
        raise ReplayError(
            f"{path}: no events for experiment {key!r}; known keys can be "
            "listed with `repro trace FILE --analyze`")
    complete = [
        events for events in attempts.values()
        if any(e.type == EXPERIMENT_FINISHED and e.data.get("status") == "done"
               for e in events)
    ]
    if not complete:
        raise ReplayError(
            f"{path}: experiment {key!r} has no completed attempt "
            "(crashed or quarantined mid-run); its story cannot be replayed")
    if len(complete) > 1:
        raise ReplayError(
            f"{path}: experiment {key!r} has {len(complete)} completed "
            "attempts; merge the trace (repro merge / merge_campaign_shards) "
            "before replaying")
    return complete[0]


def replay_record(trace_path: str | Path, key: str) -> ReplayRecord:
    """Extract one experiment's :class:`ReplayRecord` from a trace file."""
    trace_path = Path(trace_path)
    try:
        trace = read_trace(trace_path)
    except jsonl.LogFormatError as exc:
        raise ReplayError(f"unreadable trace: {exc}") from exc
    config = _campaign_config(trace.meta, trace_path)
    events = _experiment_events(trace, key, trace_path)

    started = next((e for e in events if e.type == EXPERIMENT_STARTED), None)
    if started is None:
        raise ReplayError(
            f"{trace_path}: experiment {key!r} has no experiment_started "
            "marker; the record is incomplete and cannot seed a replay")
    unit = started.data.get("unit")
    if not isinstance(unit, dict) or "index" not in unit or \
            not isinstance(unit.get("fault"), dict):
        raise ReplayError(
            f"{trace_path}: experiment {key!r} was recorded without its "
            "work-unit payload (pre-replay trace format); re-run the "
            "campaign with this build to produce a replayable trace")

    finished = next(e for e in events if e.type == EXPERIMENT_FINISHED
                    and e.data.get("status") == "done")
    lines = normalize_events(events)
    return ReplayRecord(
        key=key,
        index=int(unit["index"]),
        fault=unit["fault"],
        config=config,
        backend=str(config.get("backend", "inprocess")),
        outcome=finished.data.get("outcome"),
        arena_sha256=finished.data.get("arena_sha256"),
        events=lines,
        events_sha256=events_digest(lines) if lines else None,
    )


def replay_keys(trace_path: str | Path) -> list[str]:
    """All experiment keys present in a trace, in first-seen order."""
    trace_path = Path(trace_path)
    try:
        trace = read_trace(trace_path)
    except jsonl.LogFormatError as exc:
        raise ReplayError(f"unreadable trace: {exc}") from exc
    seen: dict[str, None] = {}
    for event in trace.events:
        key = event.data.get("key")
        if isinstance(key, str):
            seen.setdefault(key)
    return list(seen)
