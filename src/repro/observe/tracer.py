"""The Tracer: a bounded ring buffer of structured events.

Design constraints, in order:

1. **Numerically invisible** — the tracer only ever *reads* values the
   training loop already computed; ``tests/test_golden_traces.py`` pins
   traced and untraced runs to bit-identical convergence records.
2. **Near-zero cost** — ``emit`` on a disabled tracer is one attribute
   load and a return; enabled, it is one dataclass allocation and a
   ``deque.append`` (the ring drops the oldest event once full, so a
   runaway trace cannot exhaust memory).  The overhead budget is pinned
   by ``benchmarks/bench_observe_overhead.py`` (<=5% per iteration on
   the 8-device trainer; the committed full-size run is
   ``BENCH_observe_overhead.json``).
3. **Durable** — :meth:`export` writes the ring as schema-versioned
   JSONL following the :class:`~repro.engine.store.ResultStore`
   conventions (header line, one record per line, flush per line), and
   :func:`read_trace` recovers every complete event from a file whose
   writer was killed mid-line, reporting the truncation.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.observe.events import (
    EVENT,
    EVENT_TYPES,
    HEADER,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    TraceFormatError,
    TraceSchemaError,
)


def _json_default(value):
    """Make numpy scalars/arrays JSON-safe without touching the hot path."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


class Tracer:
    """Bounded, typed event buffer with JSONL export.

    One tracer serves a whole experiment: the trainer, the injector, the
    detector, the recovery manager, and the campaign engine all emit
    into it, so the resulting trace is a single ordered story of the
    experiment.  ``enabled=False`` turns :meth:`emit` into a no-op
    (:data:`NULL_TRACER` is the shared always-disabled instance every
    component defaults to).
    """

    def __init__(self, capacity: int = 65536, enabled: bool = True,
                 meta: dict | None = None, clock=time.perf_counter,
                 stream: str | Path | None = None):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1: {capacity}")
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        self.meta = dict(meta or {})
        self._clock = clock
        self._start = clock()
        self._ring: deque[TraceEvent] = deque(maxlen=self.capacity)
        #: Total events emitted (including ones the ring has dropped).
        self.emitted = 0
        #: The stamped views of the lease in flight, in unit order (the
        #: engine's capture opens and closes them): a campaign running
        #: that lease hands experiment *i* view *i* as its event sink.
        self.views: list[StampedView] = []
        #: Streaming sink: when a path is given, the header is written
        #: immediately and every event is appended + flushed as it is
        #: emitted, so a killed process loses at most the line in flight
        #: (the shard files of the campaign flight recorder).
        self.stream_path = Path(stream) if stream is not None else None
        self._stream_fh = None
        if self.stream_path is not None:
            self.stream_path.parent.mkdir(parents=True, exist_ok=True)
            self._stream_fh = open(self.stream_path, "w", encoding="utf-8")
            header = {"record": HEADER, "schema": TRACE_SCHEMA_VERSION,
                      "kind": "trace", "meta": self.meta}
            self._stream_fh.write(
                json.dumps(header, separators=(",", ":"),
                           default=_json_default) + "\n")
            self._stream_fh.flush()

    # ------------------------------------------------------------------
    # Emission (the hot path)
    # ------------------------------------------------------------------
    def emit(self, event_type: str, iteration: int | None = None,
             **data) -> TraceEvent | None:
        """Record one event; returns it, or ``None`` when disabled."""
        if not self.enabled:
            return None
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown trace event type {event_type!r}; known: "
                f"{sorted(EVENT_TYPES)}")
        event = TraceEvent(type=event_type, seq=self.emitted,
                           t=self._clock() - self._start,
                           iteration=iteration, data=data)
        self.emitted += 1
        self._ring.append(event)
        if self._stream_fh is not None:
            self._stream_fh.write(
                json.dumps(event.to_record(), separators=(",", ":"),
                           default=_json_default) + "\n")
            self._stream_fh.flush()
        return event

    # ------------------------------------------------------------------
    # Streaming lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the streaming sink, if any (buffered events remain)."""
        if self._stream_fh is not None and not self._stream_fh.closed:
            self._stream_fh.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events the ring has evicted to stay within capacity."""
        return self.emitted - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self, event_type: str | None = None,
               min_iteration: int | None = None,
               max_iteration: int | None = None) -> list[TraceEvent]:
        """Buffered events, optionally filtered by type and iteration."""
        out = []
        for event in self._ring:
            if event_type is not None and event.type != event_type:
                continue
            if min_iteration is not None and (
                    event.iteration is None or event.iteration < min_iteration):
                continue
            if max_iteration is not None and (
                    event.iteration is None or event.iteration > max_iteration):
                continue
            out.append(event)
        return out

    def type_counts(self) -> dict[str, int]:
        """Buffered event count per type (for summaries)."""
        counts: dict[str, int] = {}
        for event in self._ring:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts

    def clear(self) -> None:
        self._ring.clear()
        self.emitted = 0
        self._start = self._clock()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, path: str | Path, meta: dict | None = None) -> int:
        """Write the buffered events as JSONL; returns the event count.

        Line 1 is a header record carrying the schema version and
        metadata (tracer meta merged with ``meta``, plus emitted/dropped
        accounting); each following line is one event record, flushed
        per line so a killed writer loses at most the line in flight.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        merged_meta = {**self.meta, **(meta or {})}
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            header = {"record": HEADER, "schema": TRACE_SCHEMA_VERSION,
                      "kind": "trace", "meta": merged_meta,
                      "emitted": self.emitted, "dropped": self.dropped}
            fh.write(json.dumps(header, separators=(",", ":"),
                                default=_json_default) + "\n")
            for event in self._ring:
                fh.write(json.dumps(event.to_record(), separators=(",", ":"),
                                    default=_json_default) + "\n")
                fh.flush()
                count += 1
        return count


class StampedView:
    """One experiment's sink on a tracer it shares with others.

    ``stamp`` (the engine's experiment key / worker id / attempt) is
    merged under the data of every event emitted through the view,
    explicit ``emit`` keywords winning on collision; the event itself is
    the tracer's — one ring, one stream, one ``seq``.  ``enabled`` and
    ``emit`` are all a trainer and its hooks use of a tracer, so each of
    the experiments stepping through one lease holds its own view and
    their interleaved events stay attributable after the shard merge.
    """

    def __init__(self, tracer: Tracer, **stamp):
        self.tracer = tracer
        self.stamp = stamp

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def emit(self, event_type: str, iteration: int | None = None,
             **data) -> TraceEvent | None:
        return self.tracer.emit(event_type, iteration,
                                **{**self.stamp, **data})


#: The shared always-disabled tracer every component defaults to, so the
#: untraced hot path pays exactly one attribute check per emit call.
NULL_TRACER = Tracer(capacity=1, enabled=False)

#: Process-wide "current" tracer.  Engine workers install their shard
#: tracer here after the fork; components that build their own trainers
#: deep inside a worker (e.g. ``Campaign.run_experiment``) pick it up
#: without the payload-agnostic engine having to thread it through.
_CURRENT_TRACER: Tracer = NULL_TRACER


def set_current_tracer(tracer: Tracer | None) -> Tracer:
    """Install the process-wide current tracer; returns the previous one.

    Passing ``None`` resets to :data:`NULL_TRACER`."""
    global _CURRENT_TRACER
    previous = _CURRENT_TRACER
    _CURRENT_TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


def current_tracer() -> Tracer:
    """The process-wide current tracer (default: :data:`NULL_TRACER`)."""
    return _CURRENT_TRACER


class TraceFile:
    """A parsed trace: header metadata plus the recovered events."""

    def __init__(self, path: Path, meta: dict, events: list[TraceEvent],
                 emitted: int, dropped: int, truncated: bool):
        self.path = path
        self.meta = meta
        self.events = events
        #: Emission accounting recorded by the writer at export time.
        self.emitted = emitted
        self.dropped = dropped
        #: True when the final line was cut mid-write (killed writer);
        #: every complete event before it has still been recovered.
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self.events)

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts


def read_trace(path: str | Path) -> TraceFile:
    """Parse a trace file, validating the header schema.

    Mirrors :func:`repro.engine.store.read_records`: a truncated final
    line (a writer killed mid-stream) is recovered *around* — all
    complete events are returned and :attr:`TraceFile.truncated` is set
    — while a malformed line anywhere else is a hard error.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file")
    records: list[dict] = []
    truncated = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines):
                truncated = True
                break  # partial trailing write from a killed run
            raise TraceFormatError(
                f"{path}:{lineno}: corrupt trace record") from None
    if not records:
        raise TraceFormatError(f"{path}: no parseable records")
    header = records[0]
    if header.get("record") != HEADER or header.get("kind") != "trace":
        raise TraceFormatError(
            f"{path}: first record is not a trace header "
            f"(got record={header.get('record')!r} kind={header.get('kind')!r})")
    schema = header.get("schema")
    if schema != TRACE_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"{path}: trace schema version {schema!r} is not supported "
            f"(this build reads version {TRACE_SCHEMA_VERSION})")
    events = []
    for record in records[1:]:
        if record.get("record") == EVENT:
            events.append(TraceEvent.from_record(record))
    return TraceFile(path=path, meta=header.get("meta") or {}, events=events,
                     emitted=int(header.get("emitted", len(events))),
                     dropped=int(header.get("dropped", 0)),
                     truncated=truncated)
