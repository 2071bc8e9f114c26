"""Campaign monitor: a campaign observed from its files, and the dashboard.

A paper-scale campaign runs for days with nothing watching but the
operator.  :func:`collect` is the one producer of a
:class:`~repro.engine.telemetry.CampaignState`: it reads what the
campaign leaves on disk — the append-only
:class:`~repro.engine.store.ResultStore` plus the per-worker trace
shards next to it — without touching the running engine:

* progress and the Table 3 outcome breakdown from the results;
* the current session's size, resumed units, retries, restarts,
  throughput and ETA from the scheduler's session, lease, retry and
  restart records and the ``ts`` stamps;
* per-worker health from the open leases (what each worker is
  executing, stalled once past its lease's deadline) and the shards
  (how long ago each last wrote, the ``stall_after`` flag);
* recent detector firings.

:func:`render_text`, :func:`render_markdown` and :func:`render_html`
draw a ``CampaignState`` together with the SLO statuses the watch
evaluated over it; whether a campaign that is eating itself stops a cron
job or CI gate is decided by those rules alone (:mod:`repro.observe.slo`,
:func:`repro.serve.watch_store`).

Everything is a pure function of the on-disk state, so the monitor can
run on a different machine than the campaign (shared filesystem) and is
safe to point at a finished or crashed run post mortem.
"""

from __future__ import annotations

import html
import time
from pathlib import Path

from repro import jsonl
from repro.engine.store import (
    EXPERIMENT,
    LEASE,
    QUARANTINE,
    RESTART,
    RETRY,
    SESSION,
    campaign_size,
    read_records,
)
from repro.engine.telemetry import CampaignState, WorkerState
from repro.engine.worker import OUTCOME_FIELD
from repro.observe import (
    DETECTOR_FIRED,
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    TraceEvent,
    campaign_trace_path,
    read_trace,
    shard_paths,
)
from repro.observe.slo import FIRING, PENDING, SLOStatus

#: How many recent completions / detector firings the dashboard keeps.
RECENT = 8


def _shard_worker_id(path: Path) -> int:
    digits = "".join(ch for ch in path.stem if ch.isdigit())
    return int(digits) if digits else -1


def _read_shard(path: Path, now: float, stall_after: float | None
                ) -> tuple[WorkerState, list[TraceEvent]]:
    """One worker's row, plus the shard's events (none if unreadable)."""
    shard = WorkerState(worker=_shard_worker_id(path))
    try:
        shard.last_write_age = max(now - path.stat().st_mtime, 0.0)
        trace = read_trace(path)
    except (OSError, jsonl.LogFormatError):
        shard.unreadable = True
        return shard, []
    shard.events = len(trace.events)
    shard.truncated = trace.truncated
    open_attempts: dict[tuple, str] = {}
    for event in trace.events:
        attempt = (event.data.get("key"), event.data.get("attempt"))
        if event.type == EXPERIMENT_STARTED:
            open_attempts[attempt] = event.data.get("key")
        elif event.type == EXPERIMENT_FINISHED:
            open_attempts.pop(attempt, None)
            shard.finished += 1
    if open_attempts:
        shard.busy_key = list(open_attempts.values())[-1]
    if stall_after is not None and shard.busy_key is not None \
            and shard.last_write_age > stall_after:
        shard.stalled = True
    return shard, trace.events


def _detections(events: list[TraceEvent]) -> list[dict]:
    return [{"key": event.data.get("key"),
             "iteration": event.iteration,
             "condition": event.data.get("condition"),
             "magnitude": event.data.get("magnitude")}
            for event in events if event.type == DETECTOR_FIRED][-RECENT:]


def _session(records: list[dict]) -> tuple[dict | None, list[dict]]:
    """The last session record (None: the store has none) and every
    record after it — the whole log when there is none."""
    for i in range(len(records) - 1, -1, -1):
        if records[i].get("record") == SESSION:
            return records[i], records[i + 1:]
    return None, records


def _pool(records: list[dict], now: float) -> dict[int, WorkerState]:
    """The session's workers by id from its lease, result and restart
    records: a lease's keys stay open until a result or retry settles
    them, and a restart retires the worker's id."""
    pool: dict[int, WorkerState] = {}
    #: key -> worker of every open lease; worker -> its lease deadline.
    owner: dict[str, int] = {}
    deadline: dict[int, float | None] = {}
    for record in records:
        tag = record.get("record")
        if tag == LEASE:
            worker = record.get("worker")
            pool.setdefault(worker, WorkerState(worker))
            owner.update(dict.fromkeys(record.get("keys") or (), worker))
            deadline[worker] = record.get("deadline")
        elif tag == RESTART:
            pool.pop(record.get("worker"), None)
            owner = {k: w for k, w in owner.items()
                     if w != record.get("worker")}
        elif tag in (EXPERIMENT, QUARANTINE, RETRY):
            worker = owner.pop(record.get("key"), None)
            if tag == EXPERIMENT and worker in pool:
                pool[worker].finished += 1
    for key, worker in owner.items():  # the last open key reads busy
        pool[worker].busy_key = key
    for worker in pool.values():
        due = deadline.get(worker.worker)
        worker.stalled = (worker.busy_key is not None and due is not None
                          and now > due)
    return pool


def collect(store_path: str | Path, stall_after: float | None = None,
            now: float | None = None) -> CampaignState:
    """Read the store + shards into a :class:`CampaignState`.

    Progress and the outcome breakdown count every result in the store;
    ``total``, ``skipped``, retries, restarts, the worker pool and the
    rate are the current session's (the last ``session`` record on;
    the whole store when it has none).  A worker is stalled when it is
    busy past its lease's deadline, or — ``stall_after`` — when its
    shard shows it busy but has not been written for that many seconds
    (a sensible value is the campaign's per-experiment timeout times its
    ``--experiment-batch``)."""
    store_path = Path(store_path)
    if now is None:
        now = time.time()
    records = read_records(store_path)
    header = records[0]
    meta = header.get("meta") or {}
    session, current = _session(records[1:])
    total = campaign_size(records)
    state = CampaignState(
        total=int(total) if isinstance(total, (int, float)) else None,
        store_path=store_path, kind=header.get("kind", "campaign"),
        meta=meta, observed_at=now)
    if session is not None:
        state.skipped = session.get("skipped")
        state.retries = sum(r.get("record") == RETRY for r in current)
        state.restarts = sum(r.get("record") == RESTART for r in current)

    last_result = None
    for record in records[1:]:
        ts = record.get("ts")
        if record.get("record") == EXPERIMENT:
            state.done += 1
            payload = record.get("payload")
            outcome = (payload.get(OUTCOME_FIELD)
                       if isinstance(payload, dict) else None)
            if outcome is not None:
                state.breakdown[outcome] = state.breakdown.get(outcome, 0) + 1
            state.recent.append({"key": record.get("key"),
                                 "outcome": outcome, "ts": ts})
        elif record.get("record") == QUARANTINE:
            state.quarantined += 1
            state.recent.append({"key": record.get("key"),
                                 "outcome": "quarantined",
                                 "error": record.get("error"), "ts": ts})
        else:
            continue
        if isinstance(ts, (int, float)):
            last_result = float(ts)
    state.recent = state.recent[-RECENT:]
    if last_result is not None:
        state.last_result_age = max(now - last_result, 0.0)

    # The session's rate: its results over the time since it began (at
    # its first result when the store records no session).
    timed = current if session is None else [session, *current]
    if session is not None:
        state.elapsed = timed[-1]["ts"] - session["ts"]
    stamps = [float(r["ts"]) for r in timed
              if r.get("record") in (SESSION, EXPERIMENT, QUARANTINE)
              and isinstance(r.get("ts"), (int, float))]
    if len(stamps) >= 2 and stamps[-1] > stamps[0]:
        state.throughput = (len(stamps) - 1) / (stamps[-1] - stamps[0])
    if state.throughput and state.total is not None:
        remaining = max(state.total - state.attempted, 0)
        state.eta = remaining / state.throughput

    # Each file is read once per call: detections come from the merged
    # trace, then from the parse that gave each shard its worker row.
    pool = _pool(current, now)
    events: list[TraceEvent] = []
    trace = campaign_trace_path(store_path)
    if trace.exists():
        state.trace_path = trace
        try:
            events += read_trace(trace).events
        except (OSError, jsonl.LogFormatError):
            pass
    for path in shard_paths(store_path.parent):
        shard, shard_events = _read_shard(path, now, stall_after)
        row = pool.setdefault(shard.worker, shard)
        if row is not shard:  # the store's row, plus what the shard says
            row.events, row.unreadable = shard.events, shard.unreadable
            row.truncated = shard.truncated
            row.last_write_age = shard.last_write_age
            row.stalled = row.stalled or shard.stalled
        events += shard_events
    state.workers = [pool[wid] for wid in sorted(pool)]
    state.detections = _detections(events)
    return state


def snapshot_dict(state: CampaignState,
                  statuses: list[SLOStatus] = ()) -> dict:
    """A deterministic machine-readable snapshot of one observation.

    Everything wall-clock-dependent (throughput, ETA, elapsed time,
    write ages, ``ts`` stamps, a rule's ``breach_since``) is excluded so two snapshots of
    the same on-disk state are byte-identical — the property ``repro
    monitor --json`` needs to be diffable in CI alongside
    ``diff-campaign``.  The two rates are the sample's gauges (``null``
    until defined, like on every other surface).  Floats are normalized
    by :func:`repro.core.analysis.report.stable_floats`.
    """
    from repro.core.analysis.report import stable_floats

    def without(row: dict, key: str) -> dict:
        return {k: v for k, v in sorted(row.items()) if k != key}

    gauges = state.gauges()
    return stable_floats({
        "store": state.store_path.name,
        "kind": state.kind,
        "meta": state.meta,
        "total": state.total,
        "completed": state.done,
        "quarantined": state.quarantined,
        "skipped": state.skipped,
        "retries": state.retries,
        "restarts": state.restarts,
        "quarantine_rate": gauges.get("campaign.quarantine_rate"),
        "divergence_rate": gauges.get("campaign.divergence_rate"),
        "breakdown": dict(sorted(state.breakdown.items())),
        "recent": [without(r, "ts") for r in state.recent],
        "workers": [{
            "worker": w.worker,
            "events": w.events,
            "finished": w.finished,
            "busy_key": w.busy_key,
            "unreadable": w.unreadable,
            "truncated": w.truncated,
            "stalled": w.stalled,
        } for w in state.workers],
        "detections": state.detections,
        "trace": None if state.trace_path is None else state.trace_path.name,
        "slo": [without(s.to_dict(), "breach_since") for s in statuses],
    })


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _title(state: CampaignState) -> str:
    return "?" if state.store_path is None else state.store_path.name


def _slo_lines(statuses: list[SLOStatus]) -> list[str]:
    """What the gate has to say: every rule breaching right now."""
    return [s.message() for s in statuses if s.state in (PENDING, FIRING)]


def _worker_row(worker: WorkerState, unreadable: str, stalled: str,
                busy: str) -> tuple[str, str, str]:
    """``(state, status text, last write)`` from the unreadable /
    stalled / busy / idle ladder; the templates format ``{key}``."""
    age = ("-" if worker.last_write_age is None
           else f"{worker.last_write_age:.0f}s ago")
    if worker.unreadable:
        return "unreadable", unreadable, age
    if worker.stalled:
        return "stalled", stalled.format(key=worker.busy_key), age
    if worker.busy_key is not None:
        return "busy", busy.format(key=worker.busy_key), age
    return "idle", "idle", age


def render_text(state: CampaignState, statuses: list[SLOStatus] = ()) -> str:
    """The terminal dashboard, one observation per call."""
    lines = [f"== campaign monitor: {_title(state)} (kind={state.kind}, "
             f"workload={state.meta.get('workload', '?')}) ==",
             f"  progress   {state.headline()}"]
    if state.breakdown:
        lines.append(f"  outcomes   {state.outcomes_line()}")
    if state.workers:
        lines.append(f"  workers    {state.worker_summary()}")
    for worker in state.workers:
        _, status, age = _worker_row(worker, "UNREADABLE", "STALLED key={key}",
                                     "busy key={key}")
        line = (f"  worker w{worker.worker:<3} {status} | "
                f"{worker.finished} finished | last write {age}")
        if worker.truncated:
            line += " | truncated shard"
        lines.append(line)
    if state.detections:
        last = state.detections[-1]
        lines.append(f"  detector   {len(state.detections)} recent firings"
                     f" | last: iter {last['iteration']}"
                     f" {last['condition']} key={last['key']}")
    if state.trace_path is not None:
        lines.append(f"  trace      {state.trace_path.name}")
    lines += [f"  SLO        {line}" for line in _slo_lines(statuses)]
    return "\n".join(lines)


def render_markdown(state: CampaignState,
                    statuses: list[SLOStatus] = ()) -> str:
    """A static markdown snapshot (for dropping into a report or issue)."""
    lines = [f"# Campaign monitor: `{_title(state)}`", "",
             f"- kind: `{state.kind}`, "
             f"workload: `{state.meta.get('workload', '?')}`",
             f"- progress: {state.headline()}"]
    if state.breakdown:
        lines += ["", "| outcome | count |", "| --- | --- |"]
        for outcome, count in state.ranked():
            lines.append(f"| {outcome} | {count} |")
    if state.workers:
        lines += ["", "| worker | status | finished | last write |",
                  "| --- | --- | --- | --- |"]
        for worker in state.workers:
            _, status, age = _worker_row(worker, "unreadable",
                                         "**STALLED** `{key}`", "busy `{key}`")
            lines.append(f"| w{worker.worker} | {status} | {worker.finished} "
                         f"| {age} |")
    for line in _slo_lines(statuses):
        lines += ["", f"> **SLO**: {line}"]
    return "\n".join(lines) + "\n"


def render_html(state: CampaignState, statuses: list[SLOStatus] = ()) -> str:
    """A dependency-free static HTML snapshot of the dashboard."""
    def esc(value) -> str:
        return html.escape(str(value))

    rows = [f"<tr><td>{esc(outcome)}</td><td>{count}</td></tr>"
            for outcome, count in state.ranked()]
    worker_rows = []
    for worker in state.workers:
        kind, status, age = _worker_row(worker, "unreadable", "STALLED {key}",
                                        "busy {key}")
        cls = {"unreadable": "warn", "stalled": "alert"}.get(kind, "")
        worker_rows.append(
            f'<tr class="{cls}"><td>w{worker.worker}</td>'
            f"<td>{esc(status)}</td><td>{worker.finished}</td>"
            f"<td>{age}</td></tr>")
    slo_html = "".join(f'<p class="alert">SLO: {esc(line)}</p>'
                       for line in _slo_lines(statuses))
    detection_rows = "".join(
        f"<tr><td>{esc(d['key'])}</td><td>{esc(d['iteration'])}</td>"
        f"<td>{esc(d['condition'])}</td></tr>"
        for d in state.detections)
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>campaign monitor: {esc(_title(state))}</title>
<style>
body {{ font-family: monospace; margin: 2em; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
td, th {{ border: 1px solid #999; padding: 2px 8px; }}
tr.alert td {{ background: #fdd; font-weight: bold; }}
tr.warn td {{ background: #ffd; }}
p.alert {{ color: #a00; font-weight: bold; }}
</style></head><body>
<h1>campaign monitor: {esc(_title(state))}</h1>
<p>kind={esc(state.kind)} workload={esc(state.meta.get('workload', '?'))}</p>
<p>progress {esc(state.headline())}</p>
{slo_html}
<h2>outcomes</h2>
<table><tr><th>outcome</th><th>count</th></tr>{''.join(rows)}</table>
<h2>workers</h2>
<table><tr><th>worker</th><th>status</th><th>finished</th>
<th>last write</th></tr>{''.join(worker_rows)}</table>
<h2>recent detector firings</h2>
<table><tr><th>key</th><th>iteration</th><th>condition</th></tr>
{detection_rows}</table>
</body></html>
"""
