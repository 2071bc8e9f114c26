"""One observation of a campaign, read from its files.

A paper-scale campaign runs for days; the operator needs throughput
(experiments/sec), the outcome breakdown so far, an ETA, and per-worker
health (a wedged or crash-looping worker shows up here long before the
run finishes).  :class:`CampaignState` is that observation, and it has
one producer: :func:`repro.engine.monitor.collect`, which reads the
result store — results plus the scheduler's session, lease, retry and
restart records — and the worker trace shards next to it.  Everything
downstream takes it: the telemetry loop polls it, every SLO rule reads
its :meth:`~CampaignState.flat` namespace, ``/metrics`` and
``/progress`` render its :meth:`~CampaignState.gauges`, and the monitor
dashboard formats it.  It is the only source of a campaign's numbers: a
count made where an experiment runs would stay in a forked worker, so a
new campaign metric is a field here, written to the store by the
scheduler and read back by ``collect``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

#: Outcome labels that count as training divergence (the INF/NaN
#: classes of the Table 3 taxonomy), summed by ``campaign.divergence_rate``.
DIVERGENCE_OUTCOMES = frozenset({
    "immediate_inf_nan", "short_term_inf_nan", "latent_inf_nan"})


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
    #: Busy past its lease's deadline, or with no shard write for
    #: ``stall_after`` seconds.
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
    """One observation of a campaign, as its files record it."""

    #: Campaign size: the current session's, else the store header's
    #: (None when neither records it).
    total: int | None
    #: Completed experiments, including ones resumed from the store.
    done: int = 0
    quarantined: int = 0
    #: Outcome label -> count over everything completed so far.
    breakdown: dict[str, int] = field(default_factory=dict)
    #: Results per second over the current session; None until one can
    #: be measured.
    throughput: float | None = None
    #: Estimated seconds to completion (None without a throughput).
    eta: float | None = None
    #: The pool right now, by worker id: the session's leased workers
    #: not since retired by a restart, and the trace shards present.
    workers: list[WorkerState] = field(default_factory=list)
    # -- the current session's, None for a store without session records --
    skipped: int | None = None
    retries: int | None = None
    #: Worker processes replaced after a crash or a timeout kill.
    restarts: int | None = None
    #: Seconds from the session's start to its last record.
    elapsed: float | None = None
    store_path: Path | None = None
    kind: str = "campaign"
    meta: dict = field(default_factory=dict)
    #: Seconds since the last stamped result (None without stamps).
    last_result_age: float | None = None
    recent: list[dict] = field(default_factory=list)
    detections: list[dict] = field(default_factory=list)
    #: Merged campaign trace next to the store, if one exists.
    trace_path: Path | None = None
    #: Wall-clock time of the observation (``collect``'s ``now``).
    observed_at: float = field(default_factory=time.time)

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

    def gauges(self) -> dict[str, float]:
        """This observation's gauges, the names every surface exposes.

        Always present: ``campaign.done``, ``campaign.quarantined``,
        ``workers.alive|busy|stalled`` and, when recorded,
        ``campaign.skipped|retries|elapsed_seconds|last_result_age_seconds``
        and ``workers.restarts``.  ``workers.alive`` is the pool as it is
        now, not its history: the session's leased workers not since
        retired by a restart, and the shard files present.
        ``workers.stalled`` counts the rows flagged stalled: a lease past
        the deadline the scheduler gave it (``timeout x len(lease)``;
        never without a timeout), or busy with no shard write for
        ``stall_after``.  Once the total is known: ``campaign.total``,
        ``campaign.remaining``.  Only once defined — so a rule over them
        is ``no_data``, not trivially passing or breaching, before the
        campaign starts: ``campaign.quarantine_rate`` (first attempt),
        ``campaign.divergence_rate`` (first completion),
        ``campaign.throughput`` / ``campaign.eta_seconds`` (first
        measured completion rate).
        """
        gauges = {
            "campaign.done": float(self.done),
            "campaign.quarantined": float(self.quarantined),
            "workers.alive": float(len(self.workers)),
            "workers.busy": float(len(self.busy_workers)),
            "workers.stalled": float(len(self.stalled_workers)),
        }
        if self.total is not None:
            gauges["campaign.total"] = float(self.total)
            gauges["campaign.remaining"] = float(
                max(self.total - self.attempted, 0))
        if self.attempted:
            gauges["campaign.quarantine_rate"] = (self.quarantined
                                                  / self.attempted)
        if self.done:
            diverged = sum(count for outcome, count in self.breakdown.items()
                           if outcome in DIVERGENCE_OUTCOMES)
            gauges["campaign.divergence_rate"] = diverged / self.done
        if self.throughput:
            gauges["campaign.throughput"] = float(self.throughput)
        if self.eta is not None:
            gauges["campaign.eta_seconds"] = float(self.eta)
        for name, value in (
                ("campaign.skipped", self.skipped),
                ("campaign.retries", self.retries),
                ("campaign.elapsed_seconds", self.elapsed),
                ("workers.restarts", self.restarts),
                ("campaign.last_result_age_seconds", self.last_result_age)):
            if value is not None:
                gauges[name] = float(value)
        return gauges

    def flat(self) -> dict[str, float]:
        """The one SLO namespace: the gauges plus ``outcome.<label>`` per
        outcome in the breakdown."""
        flat = self.gauges()
        for label, count in sorted(self.breakdown.items()):
            flat[f"outcome.{label}"] = float(count)
        return flat

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
