"""Typed trace events: the vocabulary of the observability layer.

Every experiment in the paper is characterized by *when* things happened
relative to the fault: the injection itself, the iteration statistics
that carry the necessary conditions (optimizer-history and BatchNorm
moving-statistic extrema, Table 4), the detector firing (Sec. 5.1), the
recovery rollback (Sec. 5.2), and divergence to INFs/NaNs.  Those are
the canonical event types; the campaign engine's workers add two unit
markers (an attempt started / finished) so a single trace can cover a
whole campaign.

Events are plain records (type + iteration + payload dict) so emitting
one costs a single small allocation and exporting one is a single
encode.  On disk a trace is a :mod:`repro.jsonl` record log of kind
``trace``: the header line, then one event record per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import jsonl

TRACE_SCHEMA_VERSION = jsonl.SCHEMA[jsonl.TRACE]

#: Record type tag of an event line.
EVENT = "event"

# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
#: A fault model perturbed a tensor (data: device, site, kind, ff
#: category, num_faulty, max_abs_faulty).
FAULT_INJECTED = "fault_injected"
#: The bound-checking detector observed a violation (data: condition,
#: magnitude, bound).
DETECTOR_FIRED = "detector_fired"
#: The recovery manager rewound training state (data: resume_iteration,
#: strategy, recoveries).
ROLLBACK = "rollback"
#: Per-iteration convergence statistics (data: loss, acc, and the
#: necessary-condition extrema history_magnitude / mvar_magnitude).
ITERATION_STATS = "iteration_stats"
#: The training state became non-finite (data: loss).
DIVERGENCE = "divergence"
#: Engine worker: one attempt of an experiment began executing (data:
#: key, worker, attempt — the shard-capture context stamp).
EXPERIMENT_STARTED = "experiment_started"
#: Engine worker: one attempt finished (data: key, worker, attempt,
#: status "done"/"error", plus outcome or error).  The shard merge uses
#: this marker to pick the completed attempt when a unit was retried.
EXPERIMENT_FINISHED = "experiment_finished"

#: Every known event type; :meth:`Tracer.emit` rejects others so trace
#: consumers can rely on a closed vocabulary.
EVENT_TYPES = frozenset({
    FAULT_INJECTED,
    DETECTOR_FIRED,
    ROLLBACK,
    ITERATION_STATS,
    DIVERGENCE,
    EXPERIMENT_STARTED,
    EXPERIMENT_FINISHED,
})


@dataclass
class TraceEvent:
    """One structured observation.

    ``seq`` is the tracer's monotonically increasing emission counter
    (it keeps ordering unambiguous even when the ring buffer drops the
    oldest events), ``t`` is seconds since the tracer was created, and
    ``iteration`` is the training iteration the event refers to (``None``
    for scheduler-level events).
    """

    type: str
    seq: int
    t: float
    iteration: int | None = None
    data: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """The JSONL line payload for this event."""
        record = {"record": EVENT, "type": self.type, "seq": self.seq,
                  "t": round(self.t, 6)}
        if self.iteration is not None:
            record["iteration"] = self.iteration
        if self.data:
            record["data"] = self.data
        return record

    @classmethod
    def from_record(cls, record: dict) -> "TraceEvent":
        """Rebuild an event from a parsed JSONL record."""
        event_type = record.get("type")
        if not isinstance(event_type, str):
            raise jsonl.LogFormatError(
                f"event record without a type: {record!r}")
        return cls(
            type=event_type,
            seq=int(record.get("seq", 0)),
            t=float(record.get("t", 0.0)),
            iteration=(int(record["iteration"])
                       if record.get("iteration") is not None else None),
            data=record.get("data") or {},
        )

    def render(self) -> str:
        """One human-readable line, for the CLI ``trace`` subcommand."""
        where = f"it {self.iteration:>4}" if self.iteration is not None else "      -"
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in self.data.items())
        return f"[{self.t:10.4f}s] {where}  {self.type:<22} {detail}".rstrip()


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
