"""Live campaign monitor: one view over the store and worker shards.

A paper-scale campaign runs for days with nothing watching but the
operator.  The monitor reads what the flight recorder leaves on disk —
the append-only :class:`~repro.engine.store.ResultStore` plus the
per-worker trace shards next to it — and renders a dashboard without
touching the running engine:

* progress, throughput and ETA from the store's ``ts``-stamped records;
* the Table 3 outcome taxonomy breakdown so far;
* per-worker health straight from the shards (what each worker is
  executing, how long ago it last wrote, stall highlighting);
* recent detector firings;
* alert thresholds (quarantine rate, divergence rate) whose breach the
  CLI turns into a nonzero exit code, so a cron job or CI gate can halt
  a campaign that is eating itself.

Everything is a pure function of the on-disk state, so the monitor can
run on a different machine than the campaign (shared filesystem) and is
safe to point at a finished or crashed run post mortem.
"""

from __future__ import annotations

import html
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.store import EXPERIMENT, QUARANTINE, read_records
from repro.engine.worker import OUTCOME_FIELD
from repro.observe import (
    DETECTOR_FIRED,
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    TraceFormatError,
    campaign_trace_path,
    read_trace,
    shard_paths,
)
from repro.observe.slo import SLOStatus, evaluate_once, threshold_rules
from repro.observe.timeseries import (
    DIVERGENCE_OUTCOMES,
    TelemetrySample,
    campaign_sample,
)

#: How many recent completions / detector firings the dashboard keeps.
RECENT = 8


@dataclass
class WorkerShard:
    """What one worker's shard file says about it right now."""

    worker: int
    path: Path
    #: Events recovered from the shard (0 when unreadable).
    events: int = 0
    #: Shard could not be parsed at all (e.g. header cut by a kill).
    unreadable: bool = False
    #: Final line was cut mid-write (worker killed while streaming).
    truncated: bool = False
    #: Experiment key of the open (started, not finished) attempt.
    busy_key: str | None = None
    #: Seconds since the shard was last written.
    last_write_age: float = 0.0
    #: Busy with no write for longer than the stall threshold.
    stalled: bool = False
    #: Units this shard saw to completion (status done or error).
    finished: int = 0


@dataclass
class MonitorState:
    """One observation of a campaign's on-disk state."""

    store_path: Path
    kind: str = "campaign"
    meta: dict = field(default_factory=dict)
    #: Campaign size from the store header (None when not recorded).
    total: int | None = None
    completed: int = 0
    quarantined: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)
    #: Completions per second over the stamped records (None before two).
    throughput: float | None = None
    eta: float | None = None
    #: Seconds since the last stamped result (None without stamps).
    last_result_age: float | None = None
    recent: list[dict] = field(default_factory=list)
    workers: list[WorkerShard] = field(default_factory=list)
    detections: list[dict] = field(default_factory=list)
    #: Merged campaign trace next to the store, if one exists.
    trace_path: Path | None = None
    alerts: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.completed + self.quarantined

    @property
    def quarantine_rate(self) -> float:
        return self.quarantined / self.attempted if self.attempted else 0.0

    @property
    def divergence_rate(self) -> float:
        if not self.completed:
            return 0.0
        diverged = sum(count for outcome, count in self.breakdown.items()
                       if outcome in DIVERGENCE_OUTCOMES)
        return diverged / self.completed

    @property
    def stalled_workers(self) -> list[int]:
        return [w.worker for w in self.workers if w.stalled]

    def sample(self, now: float | None = None) -> TelemetrySample:
        """This observation through the one
        :func:`~repro.observe.timeseries.campaign_sample` mapping: the
        same exposition and SLO namespace as a live engine."""
        return campaign_sample(
            done=self.completed, quarantined=self.quarantined,
            breakdown=self.breakdown, total=self.total,
            throughput=self.throughput, eta=self.eta,
            workers_alive=len(self.workers),
            workers_busy=sum(w.busy_key is not None for w in self.workers),
            workers_stalled=len(self.stalled_workers),
            extras={"campaign.last_result_age_seconds":
                    self.last_result_age},
            now=now)


def _shard_worker_id(path: Path) -> int:
    digits = "".join(ch for ch in path.stem if ch.isdigit())
    return int(digits) if digits else -1


def _read_shard(path: Path, now: float,
                stall_after: float | None) -> WorkerShard:
    shard = WorkerShard(worker=_shard_worker_id(path), path=path)
    try:
        shard.last_write_age = max(now - path.stat().st_mtime, 0.0)
    except OSError:
        shard.unreadable = True
        return shard
    try:
        trace = read_trace(path)
    except TraceFormatError:
        shard.unreadable = True
        return shard
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
    return shard


def _collect_detections(paths: list[Path]) -> list[dict]:
    detections: list[dict] = []
    for path in paths:
        try:
            trace = read_trace(path)
        except (TraceFormatError, OSError):
            continue
        for event in trace.events:
            if event.type == DETECTOR_FIRED:
                detections.append({
                    "key": event.data.get("key"),
                    "iteration": event.iteration,
                    "condition": event.data.get("condition"),
                    "magnitude": event.data.get("magnitude"),
                })
    return detections[-RECENT:]


def collect(store_path: str | Path, stall_after: float | None = None,
            now: float | None = None) -> MonitorState:
    """Read the store + shards into a :class:`MonitorState`.

    ``stall_after`` flags a worker as stalled when its shard shows an
    open experiment but no write for that many seconds (a sensible
    value is the campaign's per-experiment timeout)."""
    store_path = Path(store_path)
    if now is None:
        now = time.time()
    state = MonitorState(store_path=store_path)
    records = read_records(store_path)
    header = records[0]
    state.kind = header.get("kind", "campaign")
    state.meta = header.get("meta") or {}
    total = state.meta.get("num_experiments")
    state.total = int(total) if isinstance(total, (int, float)) else None

    stamps: list[float] = []
    for record in records[1:]:
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            stamps.append(float(ts))
        if record.get("record") == EXPERIMENT:
            state.completed += 1
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
    state.recent = state.recent[-RECENT:]
    if len(stamps) >= 2 and stamps[-1] > stamps[0]:
        state.throughput = (len(stamps) - 1) / (stamps[-1] - stamps[0])
    if stamps:
        state.last_result_age = max(now - stamps[-1], 0.0)
    if state.throughput and state.total is not None:
        remaining = max(state.total - state.attempted, 0)
        state.eta = remaining / state.throughput

    shards = shard_paths(store_path.parent)
    state.workers = [_read_shard(p, now, stall_after) for p in shards]
    trace = campaign_trace_path(store_path)
    if trace.exists():
        state.trace_path = trace
    state.detections = _collect_detections(
        ([state.trace_path] if state.trace_path else []) + shards)
    return state


def render_alerts(state: MonitorState,
                  statuses: list[SLOStatus]) -> list[str]:
    """Fill and return ``state.alerts``: the legacy strings (asserted by
    downstream tooling) for the firing ``threshold_rules`` statuses,
    plus the stalled-worker alert."""
    firing = {status.rule: status for status in statuses if status.firing}
    alerts: list[str] = []
    if "quarantine-rate" in firing:
        alerts.append(
            f"quarantine rate {state.quarantine_rate:.2f} exceeds "
            f"{firing['quarantine-rate'].threshold:.2f} "
            f"({state.quarantined}/{state.attempted} experiments)")
    if "divergence-rate" in firing:
        alerts.append(
            f"divergence rate {state.divergence_rate:.2f} exceeds "
            f"{firing['divergence-rate'].threshold:.2f}")
    if state.stalled_workers:
        alerts.append(
            "stalled workers: "
            + ", ".join(f"w{wid}" for wid in state.stalled_workers))
    state.alerts = alerts
    return alerts


def evaluate_alerts(state: MonitorState,
                    max_quarantine_rate: float | None = None,
                    max_divergence_rate: float | None = None) -> list[str]:
    """Check alert thresholds; fills and returns ``state.alerts``.

    The classic flags are compiled to instantaneous SLO rules and run
    through the same engine, over the same namespace, as ``--slo`` rule
    files.
    """
    rules = threshold_rules(max_quarantine_rate=max_quarantine_rate,
                            max_divergence_rate=max_divergence_rate)
    return render_alerts(state, evaluate_once(rules, state.sample().flat()))


def snapshot_dict(state: MonitorState) -> dict:
    """A deterministic machine-readable snapshot of one observation.

    Everything wall-clock-dependent (throughput, ETA, write ages, ``ts``
    stamps) is excluded so two snapshots of the same on-disk state are
    byte-identical — the property ``repro monitor --json`` needs to be
    diffable in CI alongside ``diff-campaign``.  Floats are normalized
    by :func:`repro.core.analysis.report.stable_floats`.
    """
    from repro.core.analysis.report import stable_floats

    def recent_row(row: dict) -> dict:
        return {k: v for k, v in sorted(row.items()) if k != "ts"}

    return stable_floats({
        "store": state.store_path.name,
        "kind": state.kind,
        "meta": state.meta,
        "total": state.total,
        "completed": state.completed,
        "quarantined": state.quarantined,
        "quarantine_rate": state.quarantine_rate,
        "divergence_rate": state.divergence_rate,
        "breakdown": dict(sorted(state.breakdown.items())),
        "recent": [recent_row(r) for r in state.recent],
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
        "alerts": state.alerts,
    })


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _headline(state: MonitorState, unmeasured: str) -> tuple[str, ...]:
    """``(workload, progress, throughput, eta)`` as every renderer shows
    them (``unmeasured`` stands in for a missing throughput)."""
    total = "?" if state.total is None else state.total
    throughput = (unmeasured if state.throughput is None
                  else f"{state.throughput:.2f} exp/s")
    return (state.meta.get("workload", "?"),
            f"{state.completed}/{total} done", throughput,
            _fmt_eta(state.eta))


def _ranked(breakdown: dict[str, int]) -> list[tuple[str, int]]:
    return sorted(breakdown.items(), key=lambda kv: (-kv[1], kv[0]))


def _worker_status(shard: WorkerShard, unreadable: str, stalled: str,
                   busy: str) -> tuple[str, str]:
    """``(state, status text)`` from the unreadable / stalled / busy /
    idle ladder; the templates format ``{key}``."""
    if shard.unreadable:
        return "unreadable", unreadable
    if shard.stalled:
        return "stalled", stalled.format(key=shard.busy_key)
    if shard.busy_key is not None:
        return "busy", busy.format(key=shard.busy_key)
    return "idle", "idle"


def render_text(state: MonitorState) -> str:
    """The terminal dashboard, one observation per call."""
    workload, done, throughput, eta = _headline(state, unmeasured="-")
    lines = [f"== campaign monitor: {state.store_path.name} "
             f"(kind={state.kind}, workload={workload}) =="]
    progress = f"  progress   {done}"
    if state.quarantined:
        progress += f" | {state.quarantined} quarantined"
    if state.total:
        progress += f" | {100.0 * state.attempted / state.total:.0f}%"
    lines.append(progress)
    line = f"  throughput {throughput} | eta {eta}"
    if state.last_result_age is not None:
        line += f" | last result {state.last_result_age:.0f}s ago"
    lines.append(line)
    if state.breakdown:
        lines.append("  outcomes   " + " ".join(
            f"{k}:{v}" for k, v in _ranked(state.breakdown)))
    for shard in state.workers:
        _, status = _worker_status(shard, "UNREADABLE", "STALLED key={key}",
                                   "busy key={key}")
        line = (f"  worker w{shard.worker:<3} {status} | "
                f"{shard.finished} finished | last write "
                f"{shard.last_write_age:.0f}s ago")
        if shard.truncated:
            line += " | truncated shard"
        lines.append(line)
    if state.detections:
        last = state.detections[-1]
        lines.append(f"  detector   {len(state.detections)} recent firings"
                     f" | last: iter {last['iteration']}"
                     f" {last['condition']} key={last['key']}")
    if state.trace_path is not None:
        lines.append(f"  trace      {state.trace_path.name}")
    for alert in state.alerts:
        lines.append(f"  ALERT      {alert}")
    return "\n".join(lines)


def render_markdown(state: MonitorState) -> str:
    """A static markdown snapshot (for dropping into a report or issue)."""
    workload, done, throughput, eta = _headline(state, unmeasured="n/a")
    lines = [f"# Campaign monitor: `{state.store_path.name}`", "",
             f"- kind: `{state.kind}`, workload: `{workload}`",
             f"- progress: {done}, {state.quarantined} quarantined",
             f"- throughput: {throughput}, eta: {eta}"]
    if state.breakdown:
        lines += ["", "| outcome | count |", "| --- | --- |"]
        for outcome, count in _ranked(state.breakdown):
            lines.append(f"| {outcome} | {count} |")
    if state.workers:
        lines += ["", "| worker | status | finished | last write |",
                  "| --- | --- | --- | --- |"]
        for shard in state.workers:
            _, status = _worker_status(shard, "unreadable",
                                       "**STALLED** `{key}`", "busy `{key}`")
            lines.append(f"| w{shard.worker} | {status} | {shard.finished} "
                         f"| {shard.last_write_age:.0f}s ago |")
    for alert in state.alerts:
        lines += ["", f"> **ALERT**: {alert}"]
    return "\n".join(lines) + "\n"


def render_html(state: MonitorState) -> str:
    """A dependency-free static HTML snapshot of the dashboard."""
    def esc(value) -> str:
        return html.escape(str(value))

    workload, done, throughput, eta = _headline(state, unmeasured="n/a")
    rows = [f"<tr><td>{esc(outcome)}</td><td>{count}</td></tr>"
            for outcome, count in _ranked(state.breakdown)]
    worker_rows = []
    for shard in state.workers:
        kind, status = _worker_status(shard, "unreadable", "STALLED {key}",
                                      "busy {key}")
        cls = {"unreadable": "warn", "stalled": "alert"}.get(kind, "")
        worker_rows.append(
            f'<tr class="{cls}"><td>w{shard.worker}</td>'
            f"<td>{esc(status)}</td><td>{shard.finished}</td>"
            f"<td>{shard.last_write_age:.0f}s ago</td></tr>")
    alert_html = "".join(f'<p class="alert">ALERT: {esc(a)}</p>'
                         for a in state.alerts)
    detection_rows = "".join(
        f"<tr><td>{esc(d['key'])}</td><td>{esc(d['iteration'])}</td>"
        f"<td>{esc(d['condition'])}</td></tr>"
        for d in state.detections)
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>campaign monitor: {esc(state.store_path.name)}</title>
<style>
body {{ font-family: monospace; margin: 2em; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
td, th {{ border: 1px solid #999; padding: 2px 8px; }}
tr.alert td {{ background: #fdd; font-weight: bold; }}
tr.warn td {{ background: #ffd; }}
p.alert {{ color: #a00; font-weight: bold; }}
</style></head><body>
<h1>campaign monitor: {esc(state.store_path.name)}</h1>
<p>kind={esc(state.kind)} workload={esc(workload)}</p>
<p>progress {done},
{state.quarantined} quarantined | throughput {throughput} |
eta {eta}</p>
{alert_html}
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
