"""Merging per-worker trace shards into one campaign trace.

The campaign flight recorder has every engine worker stream its events
into a private shard file (``trace-worker<N>.jsonl`` next to the
:class:`~repro.engine.store.ResultStore`).  Shards are crash artifacts
by design — a worker killed on a timeout leaves a half-told story, a
retried unit appears in several shards, a resumed session adds new
shards next to old ones.  :func:`merge_traces` folds all of that into
one ordered, schema-versioned campaign trace:

* every event must carry an experiment ``key`` stamp (the worker's
  capture context); unkeyed events are dropped and counted;
* a unit that was attempted several times (worker restart, retry after
  a crash, resume re-execution) is deduplicated to **one attempt**: the
  first attempt carrying an ``experiment_finished`` marker with status
  ``done``, falling back to the last attempt seen (so a quarantined
  unit keeps its final, most-informative story);
* shards are read with the crash-tolerant reader, so a final line cut
  mid-write by a killed worker is recovered around;
* the merge is idempotent — the existing campaign trace can be re-fed
  as the first source and already-merged experiments keep their events
  and their order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import jsonl
from repro.observe.events import EXPERIMENT_FINISHED, TraceEvent
from repro.observe.tracer import read_trace

#: Filename prefix of per-worker shard files (next to the result store).
SHARD_PREFIX = "trace-worker"


def shard_path(directory: str | Path, worker_id: int) -> Path:
    """The shard file a given engine worker streams into."""
    return Path(directory) / f"{SHARD_PREFIX}{worker_id}.jsonl"


def shard_paths(directory: str | Path) -> list[Path]:
    """All worker shard files in ``directory``, sorted by worker id."""
    def worker_id(path: Path) -> int:
        stem = path.name[len(SHARD_PREFIX):-len(".jsonl")]
        return int(stem) if stem.isdigit() else 1 << 30

    return sorted(Path(directory).glob(f"{SHARD_PREFIX}*.jsonl"),
                  key=lambda p: (worker_id(p), p.name))


def campaign_trace_path(store_path: str | Path) -> Path:
    """The merged campaign trace written next to a result store."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem + ".trace.jsonl")


@dataclass
class TraceMergeResult:
    """Accounting for one :func:`merge_traces` call."""

    dest: Path
    #: Number of experiments (distinct keys) in the merged trace.
    experiments: int = 0
    #: Total events written to the merged trace.
    events: int = 0
    #: Events dropped because they carried no experiment key stamp.
    unkeyed_dropped: int = 0
    #: Keys merged from an attempt that never finished (e.g. quarantined
    #: after repeated timeouts); their story may stop mid-experiment.
    incomplete: list[str] = field(default_factory=list)
    #: Sources skipped as unreadable (e.g. a shard whose header line was
    #: cut by a kill before the first flush).
    skipped_sources: list[Path] = field(default_factory=list)


@dataclass
class _Attempt:
    source: int
    first_seq: int
    complete: bool = False
    events: list[TraceEvent] = field(default_factory=list)


def merge_traces(sources: list[str | Path], dest: str | Path,
                 meta: dict | None = None) -> TraceMergeResult:
    """Merge trace shards into one ordered campaign trace at ``dest``.

    ``sources`` are read in order; to make the merge idempotent across
    resume sessions, pass the existing campaign trace as the first
    source (its experiments then win the per-key dedup and keep their
    position).  ``dest`` may be one of the sources — the output is
    written to a temporary file and atomically renamed over it.
    """
    dest = Path(dest)
    result = TraceMergeResult(dest=dest)
    # key -> list of attempts in encounter order.
    attempts: dict[str, list[_Attempt]] = {}
    for source_index, source in enumerate(sources):
        try:
            trace = read_trace(source)
        except jsonl.LogFormatError:
            result.skipped_sources.append(Path(source))
            continue
        per_key: dict[tuple[str, object], _Attempt] = {}
        for event in trace.events:
            key = event.data.get("key")
            if not isinstance(key, str):
                result.unkeyed_dropped += 1
                continue
            attempt_id = (key, event.data.get("attempt"))
            attempt = per_key.get(attempt_id)
            if attempt is None:
                attempt = _Attempt(source=source_index, first_seq=event.seq)
                per_key[attempt_id] = attempt
                attempts.setdefault(key, []).append(attempt)
            attempt.events.append(event)
            if event.type == EXPERIMENT_FINISHED and \
                    event.data.get("status") == "done":
                attempt.complete = True

    # Per-key winner: first complete attempt, else the last attempt seen.
    winners: dict[str, _Attempt] = {}
    for key, candidates in attempts.items():
        winner = next((a for a in candidates if a.complete), candidates[-1])
        winners[key] = winner
        if not winner.complete:
            result.incomplete.append(key)
    ordered_keys = sorted(winners,
                          key=lambda k: (winners[k].source,
                                         winners[k].first_seq))

    merged_meta = {"merged_sources": len(sources),
                   "experiments": len(ordered_keys), **(meta or {})}
    total_events = sum(len(winners[k].events) for k in ordered_keys)
    tmp = dest.with_name(dest.name + ".tmp")
    with jsonl.create(tmp, jsonl.TRACE, merged_meta, emitted=total_events,
                      dropped=0) as log:
        seq = 0
        for key in ordered_keys:
            for event in winners[key].events:
                record = event.to_record()
                record["seq"] = seq
                seq += 1
                log.append(record)
    os.replace(tmp, dest)
    result.experiments = len(ordered_keys)
    result.events = total_events
    result.incomplete.sort()
    return result


def merge_campaign_shards(store_path: str | Path) -> TraceMergeResult | None:
    """Fold worker shards next to ``store_path`` into the campaign trace.

    Sources are the existing campaign trace (if any) followed by every
    ``trace-worker*.jsonl`` shard in the store's directory; consumed
    shards are deleted afterwards.
    Returns ``None`` when there is nothing to merge (no shards and no
    existing trace).  The store's header meta (workload, seed, campaign
    config) is embedded as ``store_meta`` so the merged trace is a
    self-contained replay record.
    """
    store_path = Path(store_path)
    dest = campaign_trace_path(store_path)
    shards = shard_paths(store_path.parent)
    sources: list[Path] = [dest] if dest.exists() else []
    sources.extend(shards)
    if not sources:
        return None
    meta: dict = {"store": store_path.name}
    try:
        store_meta = jsonl.read(store_path, jsonl.STORE).header.get("meta")
    except (OSError, jsonl.LogFormatError):
        store_meta = None  # no store yet, or one without a readable header
    if isinstance(store_meta, dict):
        meta["store_meta"] = store_meta
    result = merge_traces(sources, dest, meta=meta)
    for shard in shards:
        try:
            shard.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    return result
