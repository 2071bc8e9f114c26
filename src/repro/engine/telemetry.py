"""One observation of a campaign, whichever side of the disk it is read from.

A paper-scale campaign runs for days; the operator needs throughput
(experiments/sec), the outcome breakdown so far, an ETA, and per-worker
health (a wedged or crash-looping worker shows up here long before the
run finishes).  :class:`CampaignState` is that observation, and there is
one of it: :meth:`ProgressTracker.snapshot` fills it from the engine's
own events (published through ``on_progress`` and
:meth:`~repro.engine.scheduler.CampaignEngine.progress`) and
:func:`repro.engine.monitor.collect` fills it from the store and worker
shards on disk.  What only one source knows is optional; everything
downstream — the :meth:`~CampaignState.sample` every SLO rule and
``/metrics`` scrape reads, the status line, the monitor dashboard — takes
either.  It is the only source of a campaign's numbers: a count made
where an experiment runs would stay in a forked worker, so a new
campaign metric is a field here, counted by the parent's tracker and
read back from disk by ``collect``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from math import inf
from pathlib import Path

from repro.observe.timeseries import TelemetrySample, campaign_sample


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


@dataclass
class WorkerState:
    """One worker's row of a :class:`CampaignState`."""

    worker: int
    #: Key of the unit it is executing (None when idle).
    busy_key: str | None = None
    #: Set by the source, because only the source knows the deadline:
    #: live, the lease is past the deadline the scheduler gave it; on
    #: disk, busy with no shard write for ``stall_after`` seconds.
    stalled: bool = False
    #: Units this worker saw to completion.
    finished: int = 0
    # -- what only a shard file says --
    #: Events recovered from the shard (0 when unreadable).
    events: int = 0
    #: Shard could not be parsed at all (e.g. header cut by a kill).
    unreadable: bool = False
    #: Final line was cut mid-write (worker killed while streaming).
    truncated: bool = False
    #: Seconds since the shard was last written.
    last_write_age: float | None = None


@dataclass
class CampaignState:
    """One observation of a campaign (live engine or files on disk)."""

    #: Campaign size (None when a store's header does not record it).
    total: int | None
    #: Completed experiments, including ones resumed from the store.
    done: int = 0
    quarantined: int = 0
    #: Outcome label -> count over everything completed so far.
    breakdown: dict[str, int] = field(default_factory=dict)
    #: Completions per second (live: this session's; disk: over the
    #: stamped records); None or 0.0 until one can be measured.
    throughput: float | None = None
    #: Estimated seconds to completion (None without a throughput).
    eta: float | None = None
    #: The pool right now, by worker id: live, the worker processes
    #: spawned and not since respawned; on disk, the shards present.
    workers: list[WorkerState] = field(default_factory=list)
    # -- what only the live tracker knows --
    skipped: int | None = None
    retries: int | None = None
    #: Worker processes replaced after a crash or a timeout kill.
    restarts: int | None = None
    elapsed: float | None = None
    # -- what only the files say --
    store_path: Path | None = None
    kind: str = "campaign"
    meta: dict = field(default_factory=dict)
    #: Seconds since the last stamped result (None without stamps).
    last_result_age: float | None = None
    recent: list[dict] = field(default_factory=list)
    detections: list[dict] = field(default_factory=list)
    #: Merged campaign trace next to the store, if one exists.
    trace_path: Path | None = None

    @property
    def attempted(self) -> int:
        return self.done + self.quarantined

    @property
    def complete(self) -> bool:
        return self.total is not None and self.attempted >= self.total

    @property
    def busy_workers(self) -> list[int]:
        return [w.worker for w in self.workers if w.busy_key is not None]

    @property
    def stalled_workers(self) -> list[int]:
        return [w.worker for w in self.workers if w.stalled]

    def sample(self, now: float | None = None) -> TelemetrySample:
        """This observation in the one exposition and SLO namespace
        (:func:`~repro.observe.timeseries.campaign_sample`)."""
        return campaign_sample(
            done=self.done, quarantined=self.quarantined,
            breakdown=self.breakdown, total=self.total,
            throughput=self.throughput, eta=self.eta,
            workers_alive=len(self.workers),
            workers_busy=len(self.busy_workers),
            workers_stalled=len(self.stalled_workers),
            extras={
                "campaign.skipped": self.skipped,
                "campaign.retries": self.retries,
                "campaign.elapsed_seconds": self.elapsed,
                "workers.restarts": self.restarts,
                "campaign.last_result_age_seconds": self.last_result_age,
            }, now=now)

    # ------------------------------------------------------------------
    # The headline, formatted once for every surface that shows it
    # ------------------------------------------------------------------
    def headline(self) -> str:
        """``N/M done | q quarantined | x exp/s | eta``."""
        parts = [f"{self.done}/{'?' if self.total is None else self.total}"
                 " done"]
        if self.skipped:
            parts.append(f"{self.skipped} resumed")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.retries:
            parts.append(f"{self.retries} retries")
        parts.append(f"{self.throughput:.2f} exp/s" if self.throughput
                     else "- exp/s")
        parts.append(f"eta {_fmt_eta(self.eta)}")
        if self.last_result_age is not None:
            parts.append(f"last result {self.last_result_age:.0f}s ago")
        return " | ".join(parts)

    def ranked(self) -> list[tuple[str, int]]:
        """The outcome breakdown, most frequent first."""
        return sorted(self.breakdown.items(), key=lambda kv: (-kv[1], kv[0]))

    def outcomes_line(self) -> str:
        return " ".join(f"{label}:{count}" for label, count in self.ranked())

    def worker_summary(self) -> str:
        text = f"{len(self.busy_workers)}/{len(self.workers)} busy"
        if self.restarts:
            text += f", {self.restarts} restarts"
        if self.stalled_workers:
            text += ", STALLED: " + ",".join(
                f"w{wid}" for wid in self.stalled_workers)
        return text

    def status_line(self) -> str:
        """One status line, suitable for streaming to a terminal."""
        parts = [self.headline()]
        if self.breakdown:
            parts.append(self.outcomes_line())
        if self.workers:
            parts.append(f"workers {self.worker_summary()}")
        return "[engine] " + " | ".join(parts)


class ProgressTracker:
    """Accumulates engine events into :class:`CampaignState` values.

    ``done`` counts completed experiments including ones resumed from the
    store (so the fraction reflects campaign completion); throughput and
    ETA are computed from this session's completions only.
    """

    def __init__(self, total: int, skipped: int = 0, clock=time.monotonic):
        self.total = int(total)
        self.skipped = int(skipped)
        self._clock = clock
        self._start = clock()
        self.session_done = 0
        self.quarantined = 0
        self.retries = 0
        self.restarts = 0
        self.breakdown: Counter[str] = Counter()
        self.workers: dict[int, WorkerState] = {}
        #: worker id -> deadline of its in-flight lease on ``clock``.
        self._deadlines: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def worker_started(self, worker_id: int) -> WorkerState:
        """A worker process joined the pool (idempotent)."""
        return self.workers.setdefault(worker_id, WorkerState(worker_id))

    def _idle(self, worker_id: int) -> WorkerState:
        self._deadlines.pop(worker_id, None)
        state = self.worker_started(worker_id)
        state.busy_key = None
        return state

    def task_started(self, worker_id: int, key: str,
                     deadline: float | None = None) -> None:
        """``deadline`` is the lease's own, on this tracker's clock
        (None: the lease cannot be preempted and never reads stalled)."""
        self.worker_started(worker_id).busy_key = key
        if deadline is not None:
            self._deadlines[worker_id] = deadline

    def task_done(self, worker_id: int, outcome: str | None) -> None:
        self._idle(worker_id).finished += 1
        self.session_done += 1
        if outcome is not None:
            self.breakdown[outcome] += 1

    def task_failed(self, worker_id: int, retried: bool) -> None:
        self._idle(worker_id)
        if retried:
            self.retries += 1
        else:
            self.quarantined += 1

    def worker_restarted(self, worker_id: int) -> None:
        """The worker process is gone (its replacement gets a fresh id):
        its row leaves the pool, its restart stays in the total."""
        self.workers.pop(worker_id, None)
        self.restarts += 1

    def preload_breakdown(self, outcomes: list[str]) -> None:
        """Fold outcomes resumed from the store into the breakdown."""
        self.breakdown.update(outcomes)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def snapshot(self) -> CampaignState:
        """O(workers) and no I/O: the engine calls this per completion."""
        now = self._clock()
        elapsed = now - self._start
        throughput = self.session_done / elapsed if elapsed > 0 else 0.0
        done = self.skipped + self.session_done
        remaining = max(self.total - done - self.quarantined, 0)
        # sorted() copies: the telemetry sampler snapshots from its own
        # thread while the engine mutates these dicts.
        workers = [
            WorkerState(wid, w.busy_key, now > self._deadlines.get(wid, inf),
                        w.finished)
            for wid, w in sorted(self.workers.items())]
        return CampaignState(
            total=self.total,
            done=done,
            quarantined=self.quarantined,
            breakdown=dict(self.breakdown),
            throughput=throughput,
            eta=remaining / throughput if throughput > 0 else None,
            workers=workers,
            skipped=self.skipped,
            retries=self.retries,
            restarts=self.restarts,
            elapsed=elapsed,
        )
