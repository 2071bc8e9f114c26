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
3. **Durable** — :meth:`export` and the streaming sink write a
   :mod:`repro.jsonl` record log of kind ``trace`` (flushed per line),
   and :func:`read_trace` recovers every complete event from a file
   whose writer was killed mid-line, reporting the truncation.
4. **Passed, never installed** — a component emits into the sink it was
   handed (a :class:`Tracer`, a :class:`StampedView` of one, or
   :data:`NULL_TRACER`); there is no process-wide current tracer.  The
   campaign engine hands each unit of a lease its own stamped view
   (DESIGN.md decision 23).
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path

from repro import jsonl
from repro.observe.events import EVENT, EVENT_TYPES, TraceEvent


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
        #: Streaming sink: when a path is given, the header is written
        #: immediately and every event is appended + flushed as it is
        #: emitted, so a killed process loses at most the line in flight
        #: (the shard files of the campaign flight recorder).
        self._stream = (jsonl.create(stream, jsonl.TRACE, self.meta)
                        if stream is not None else None)

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
        if self._stream is not None:
            self._stream.append(event.to_record())
        return event

    # ------------------------------------------------------------------
    # Streaming lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the streaming sink, if any (buffered events remain)."""
        if self._stream is not None:
            self._stream.close()

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
        """Write the buffered events as a trace log; returns the event
        count.  The header's meta is the tracer meta merged with
        ``meta``, plus emitted/dropped accounting."""
        with jsonl.create(path, jsonl.TRACE, {**self.meta, **(meta or {})},
                          emitted=self.emitted, dropped=self.dropped) as log:
            for event in self._ring:
                log.append(event.to_record())
        return len(self._ring)


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
    """Parse a trace log (:func:`repro.jsonl.read`): a final line cut by
    a killed writer is recovered *around* — all complete events are
    returned and :attr:`TraceFile.truncated` is set."""
    log = jsonl.read(path, jsonl.TRACE)
    events = [TraceEvent.from_record(record) for record in log.records
              if record.get("record") == EVENT]
    header = log.header
    return TraceFile(path=log.path, meta=header.get("meta") or {},
                     events=events,
                     emitted=int(header.get("emitted", len(events))),
                     dropped=int(header.get("dropped", 0)),
                     truncated=log.torn)
