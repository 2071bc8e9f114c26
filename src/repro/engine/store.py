"""Persistent, append-only result store for campaign execution.

The paper's characterization rests on >2.9M fault-injection experiments
(Sec. 3.3); at that scale a campaign cannot hold results in memory or
restart from scratch after a crash.  The store is a JSONL file:

* line 1 is a **header** record carrying the schema version and campaign
  metadata (workload, kind, configuration);
* every subsequent line is one **experiment** record (a stable
  experiment key plus the serialized result payload) or one
  **quarantine** record (an experiment that repeatedly crashed or timed
  out, kept so a resume does not retry it forever);
* between them the engine notes how it ran: a **session** record opens
  each run (its size and how many units it resumed), a **lease** record
  hands keys to a worker until a wall-clock deadline, a **retry** record
  sends a key back to the queue, and a **restart** record retires a
  worker.  They are what :func:`repro.engine.monitor.collect` reads a
  campaign's pool, retries and session rate from; every other reader
  skips them by their ``record`` tag.

The file is a :mod:`repro.jsonl` record log: each result is fsynced
before ``append`` returns, or with the rest of its :meth:`ResultStore.group`
(one lease's results), so a killed run loses at most the lease being
written, and a resume cuts a torn line off before appending.  Engine
records are only flushed: the next result group makes them durable.
Keys are content hashes of ``(index, fault descriptor)``, which makes
stores idempotent under resume and mergeable across machines.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro import jsonl

STORE_SCHEMA_VERSION = jsonl.SCHEMA[jsonl.STORE]

#: Record type tags: the two results, then the engine's own records.
EXPERIMENT = "experiment"
QUARANTINE = "quarantine"
SESSION = "session"
LEASE = "lease"
RETRY = "retry"
RESTART = "restart"

#: Config keys two runs of one campaign may differ in: outcomes are
#: bit-identical across backends and experiment batches (see
#: :meth:`repro.core.faults.Campaign.from_config`).
OVERRIDABLE_CONFIG = frozenset({"backend", "experiment_batch"})


def experiment_key(index: int, payload: dict) -> str:
    """Stable content key for one experiment: ``index`` x descriptor.

    The index disambiguates the (astronomically unlikely but possible)
    case of the same fault being sampled twice in one campaign, so a
    resumed run re-executes exactly the missing experiments.
    """
    canon = json.dumps({"index": int(index), "desc": payload},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canon.encode()).hexdigest()[:16]


class ResultStore:
    """Append-only JSONL result store with resume support.

    Open with ``resume=False`` (the default) to create a fresh store —
    refusing to clobber an existing non-empty one — or ``resume=True``
    to load completed/quarantined keys from an existing file and append
    to it.  ``kind`` names the runner; the trace log's kind (``trace``)
    is refused.
    """

    def __init__(self, path: str | Path, kind: str = "campaign",
                 meta: dict | None = None, resume: bool = False):
        if jsonl.log_of(kind) != jsonl.STORE:
            raise ValueError(f"{kind!r} is a {jsonl.log_of(kind)} log "
                             f"kind, not a result-store kind")
        self.path = Path(path)
        self.kind = kind
        self.meta = dict(meta or {})
        #: key -> result payload for completed experiments.
        self.completed: dict[str, dict] = {}
        #: key -> error string for quarantined experiments.
        self.quarantined: dict[str, str] = {}
        #: key -> fault payload for quarantined experiments (may be None).
        self.quarantine_payloads: dict[str, dict | None] = {}
        existing = self.path.exists() and self.path.stat().st_size > 0
        if existing:
            if not resume:
                raise FileExistsError(
                    f"{self.path} already holds campaign results; pass "
                    f"resume=True (CLI: --resume) to continue it, or "
                    f"choose a new store path")
            log = jsonl.read(self.path, jsonl.STORE)
            self.kind = log.header.get("kind", self.kind)
            self.meta = log.header.get("meta", {}) or self.meta
            for record in log.records:
                self._index(record)
            self._log = jsonl.reopen(log)
        else:
            self._log = jsonl.create(self.path, self.kind, self.meta)

    def append(self, key: str, payload: dict) -> None:
        """Persist one completed experiment (idempotent per key).

        Records carry a wall-clock ``ts`` stamp (additive; absent in
        older stores) so monitors can compute session throughput."""
        if key in self.completed:
            return
        self._keep({"record": EXPERIMENT, "key": key,
                    "payload": payload, "ts": time.time()})

    def note(self, record: str, **fields) -> None:
        """Append one engine record (:data:`SESSION`, :data:`LEASE`,
        :data:`RETRY`, :data:`RESTART`), stamped like a result; flushed,
        and made durable by the next result's ``fsync``."""
        self._log.write({"record": record, **fields, "ts": time.time()})

    def group(self):
        """Context in which appends share one ``fsync``, taken when it
        exits (:meth:`repro.jsonl.LogWriter.group`): the engine stores a
        lease's results through one, a merge its whole output."""
        return self._log.group()

    def quarantine(self, key: str, error: str,
                   payload: dict | None = None) -> None:
        """Persist a pathological experiment so resumes skip it."""
        if key in self.quarantined:
            return
        self._keep({"record": QUARANTINE, "key": key, "error": error,
                    "payload": payload, "ts": time.time()})

    def _keep(self, record: dict) -> None:
        """Persist one result record as it is (a merge keeps its source's
        ``ts``) and index it."""
        self._log.append(record)
        self._index(record)

    def _index(self, record: dict) -> None:
        """Index one result record; engine records are not indexed."""
        if record["record"] == EXPERIMENT:
            self.completed[record["key"]] = record["payload"]
        elif record["record"] == QUARANTINE:
            self.quarantined[record["key"]] = record.get("error", "")
            self.quarantine_payloads[record["key"]] = record.get("payload")

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self.completed or key in self.quarantined

    def __len__(self) -> int:
        return len(self.completed)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_records(path: str | Path) -> list[dict]:
    """A store file's header followed by its records (see
    :func:`repro.jsonl.read`: a torn final line is dropped)."""
    log = jsonl.read(path, jsonl.STORE)
    return [log.header, *log.records]


def campaign_size(records: list[dict]):
    """The campaign size a store's header and records name: its last
    ``session`` record's ``total`` (a resume may grow a campaign), else
    its header's ``num_experiments``; ``None`` when it names none."""
    for record in reversed(records[1:]):
        if record.get("record") == SESSION:
            return record.get("total")
    return (records[0].get("meta") or {}).get("num_experiments")


def config_difference(ours: dict, theirs: dict) -> list[str]:
    """The ``config`` keys two store headers' ``meta`` disagree on,
    apart from :data:`OVERRIDABLE_CONFIG`; none when either records no
    config.  What makes two stores one campaign, for a resume and a
    merge alike."""
    ours, theirs = ours.get("config") or {}, theirs.get("config") or {}
    if not ours or not theirs:
        return []
    return sorted(key for key in ours.keys() | theirs.keys()
                  if key not in OVERRIDABLE_CONFIG
                  and ours.get(key) != theirs.get(key))


def merge_stores(sources: list[str | Path], dest: str | Path) -> ResultStore:
    """Merge partial stores (e.g. shards from several machines) into one.

    Records are deduplicated by experiment key; an experiment completed
    in any shard wins over a quarantine record for the same key.  All
    shards must agree on ``kind``, on their campaign ``config``
    (:func:`config_difference`), on the sample ``seed`` and on the
    experiment at every payload ``index`` (two fault lists of one config
    share indices, not experiments); engine records are not carried
    over.  The merged header's ``num_experiments`` is the largest
    :func:`campaign_size` of the sources, and every result keeps its
    source's ``ts``.
    """
    if not sources:
        raise ValueError("nothing to merge")
    loaded = []
    for source in sources:
        records = read_records(source)
        loaded.append((Path(source), records))
    kinds = {records[0].get("kind") for _, records in loaded}
    if len(kinds) != 1:
        raise ValueError(f"cannot merge stores of different kinds: {sorted(kinds)}")
    first, first_meta = loaded[0][0], loaded[0][1][0].get("meta") or {}
    for source, records in loaded[1:]:
        meta = records[0].get("meta") or {}
        differ = config_difference(first_meta, meta)
        if meta.get("seed") != first_meta.get("seed"):
            differ.append("sample seed")
        if differ:
            raise ValueError(f"cannot merge {source}: its campaign config "
                             f"differs from {first}'s in {', '.join(differ)}")
    key_at: dict = {}
    for source, records in loaded:
        for record in records[1:]:
            if record["record"] not in (EXPERIMENT, QUARANTINE):
                continue
            index = (record.get("payload") or {}).get("index")
            if index is not None and \
                    key_at.setdefault(index, record["key"]) != record["key"]:
                raise ValueError(
                    f"cannot merge {source}: its experiment at index "
                    f"{index} is not the one another store holds there "
                    f"(another fault list)")
    meta = dict(first_meta)
    sizes = [size for size in (campaign_size(records) for _, records in loaded)
             if isinstance(size, int)]
    if sizes:
        meta["num_experiments"] = max(sizes)
    merged = ResultStore(dest, kind=kinds.pop(), meta=meta)
    quarantines: dict[str, dict] = {}
    with merged.group():
        for _, records in loaded:
            for record in records[1:]:
                if record["record"] == EXPERIMENT:
                    if record["key"] not in merged.completed:
                        merged._keep(record)
                elif record["record"] == QUARANTINE:
                    quarantines[record["key"]] = record
        for key, record in quarantines.items():
            if key not in merged.completed:
                merged._keep(record)
    return merged

