"""Live campaign telemetry: periodic samples in a bounded ring buffer.

Post-hoc analytics (``repro trace --analyze``, ``repro report``) answer
"what happened"; a multi-day campaign also needs "what is happening
*now*" — continuously, cheaply, and without touching the hot path.  The
large-scale FI literature (PyTorchFI at scale, the TF injector studies)
treats continuous campaign monitoring as a validation-efficiency
requirement, not a luxury.  This module provides the substrate:

* :class:`TelemetrySample` — one timestamped observation: gauges
  (progress, throughput, ETA, rates), the outcome tally, and — for a
  serving engine, the one owner of :mod:`~repro.observe.counters`
  metrics — raw counter values and histogram summaries
  (count/sum/mean/max/p50/p99);
* :func:`campaign_sample` — the one mapping from raw campaign counts to
  the ``campaign.*`` / ``workers.*`` gauges, called only by
  ``CampaignState.sample``: a campaign's telemetry is its
  :class:`~repro.engine.telemetry.CampaignState` and nothing else, so
  it reads the same at any ``--parallel`` and during or after a run;
* :func:`derive_rates` — per-second counter rates between consecutive
  samples (monotonic counters; a reset restarts the rate from zero);
* :func:`read_series` — the series file next to the result store is a
  :mod:`repro.jsonl` record log of kind ``telemetry_series``, one
  sample per line;
* :class:`TelemetrySampler` — a daemon thread that samples on an
  interval, derives rates, appends to its bounded ring of samples,
  persists, and feeds an optional :class:`~repro.observe.slo.SLOEngine`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import jsonl

SERIES_SCHEMA_VERSION = jsonl.SCHEMA[jsonl.SERIES]

#: Record type tag of a sample line.
SERIES_SAMPLE = "sample"

#: Outcome labels that count as training divergence (the INF/NaN
#: classes of the Table 3 taxonomy), summed by :func:`campaign_sample`.
DIVERGENCE_OUTCOMES = frozenset({
    "immediate_inf_nan", "short_term_inf_nan", "latent_inf_nan"})


def series_path(store_path: str | Path) -> Path:
    """The telemetry series file written next to a result store."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem + ".series.jsonl")


@dataclass
class TelemetrySample:
    """One timestamped observation of a campaign's telemetry."""

    #: Wall-clock sample time (``time.time()``).
    t: float
    #: Instantaneous values: progress, throughput, rates, worker tallies.
    gauges: dict[str, float] = field(default_factory=dict)
    #: Raw cumulative values of every counter (serving only).
    counters: dict[str, float] = field(default_factory=dict)
    #: Histogram summaries (count/sum/mean/max/p50/p99; serving only).
    histograms: dict[str, dict] = field(default_factory=dict)
    #: Outcome label -> completed-experiment count.
    outcomes: dict[str, int] = field(default_factory=dict)
    #: Per-second counter rates derived against the previous sample.
    rates: dict[str, float] = field(default_factory=dict)

    def flat(self) -> dict[str, float]:
        """One flat ``metric name -> value`` view of the sample.

        This is the namespace SLO rules and exporters address:
        gauges keep their names, counters gain a ``counter.`` prefix,
        rates a ``rate.`` prefix, histogram fields flatten to
        ``<name>.<field>``, and outcome tallies to ``outcome.<label>``.
        """
        flat: dict[str, float] = dict(self.gauges)
        for name, value in self.counters.items():
            flat[f"counter.{name}"] = value
        for name, value in self.rates.items():
            flat[f"rate.{name}"] = value
        for name, summary in self.histograms.items():
            for key in ("count", "sum", "mean", "max", "p50", "p99"):
                if key in summary:
                    flat[f"{name}.{key}"] = float(summary[key])
        for label, count in self.outcomes.items():
            flat[f"outcome.{label}"] = float(count)
        return flat

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySample":
        return cls(t=float(data["t"]),
                   gauges=dict(data.get("gauges") or {}),
                   counters=dict(data.get("counters") or {}),
                   histograms=dict(data.get("histograms") or {}),
                   outcomes=dict(data.get("outcomes") or {}),
                   rates=dict(data.get("rates") or {}))


def campaign_sample(*, done: int, quarantined: int, breakdown: dict,
                    total: int | None = None,
                    throughput: float | None = None,
                    eta: float | None = None,
                    workers_alive: int = 0, workers_busy: int = 0,
                    workers_stalled: int = 0,
                    extras: dict | None = None,
                    now: float | None = None) -> TelemetrySample:
    """The one mapping from raw campaign counts to the flat namespace;
    its one caller is ``CampaignState.sample``, over a state
    :func:`repro.engine.monitor.collect` read from a store on disk.

    Always present: ``campaign.done``, ``campaign.quarantined``,
    ``workers.alive|busy|stalled`` and the source's ``extras`` (full
    gauge names; ``None`` values dropped).  ``workers.alive`` is the
    pool as it is now, not its history: live, the worker processes
    spawned and not since respawned (a respawn retires the dead id and
    counts in ``workers.restarts``); on disk, the shard files present.  ``workers.stalled`` counts the rows their source
    flagged: live, a lease past the deadline the scheduler gave it
    (``timeout x len(lease)``; never without a timeout); on disk, busy
    with no shard write for ``stall_after``.  Once the total is known:
    ``campaign.total``, ``campaign.remaining``.  Only once defined — so
    a rule over them is ``no_data``, not trivially passing or breaching,
    before the campaign starts: ``campaign.quarantine_rate`` (first
    attempt), ``campaign.divergence_rate`` (first completion),
    ``campaign.throughput`` / ``campaign.eta_seconds`` (first measured
    completion rate).
    """
    attempted = done + quarantined
    gauges = {
        "campaign.done": float(done),
        "campaign.quarantined": float(quarantined),
        "workers.alive": float(workers_alive),
        "workers.busy": float(workers_busy),
        "workers.stalled": float(workers_stalled),
    }
    if total is not None:
        gauges["campaign.total"] = float(total)
        gauges["campaign.remaining"] = float(max(total - attempted, 0))
    if attempted:
        gauges["campaign.quarantine_rate"] = quarantined / attempted
    if done:
        diverged = sum(count for outcome, count in breakdown.items()
                       if outcome in DIVERGENCE_OUTCOMES)
        gauges["campaign.divergence_rate"] = diverged / done
    if throughput:
        gauges["campaign.throughput"] = float(throughput)
    if eta is not None:
        gauges["campaign.eta_seconds"] = float(eta)
    gauges.update({name: float(value) for name, value
                   in (extras or {}).items() if value is not None})
    return TelemetrySample(
        t=time.time() if now is None else now, gauges=gauges,
        outcomes={k: int(v) for k, v in sorted(breakdown.items())})


def derive_rates(previous: TelemetrySample | None,
                 current: TelemetrySample) -> dict[str, float]:
    """Per-second rates of every counter between two samples.

    Counters are monotonic; a value that *decreased* means the counter
    was reset (new process, explicit ``reset()``), in which case the
    rate restarts from the current value — the Prometheus convention.
    Without a previous sample (or with non-advancing time) there is no
    rate to derive.
    """
    if previous is None:
        return {}
    dt = current.t - previous.t
    if dt <= 0:
        return {}
    rates: dict[str, float] = {}
    for name, value in current.counters.items():
        before = previous.counters.get(name)
        if before is None:
            continue
        delta = value - before
        if delta < 0:  # counter reset: restart from the new value
            delta = value
        rates[name] = delta / dt
    return rates


def read_series(path: str | Path) -> tuple[dict, list[TelemetrySample]]:
    """Parse a series log into ``(header, samples)``
    (:func:`repro.jsonl.read`: a torn final line is dropped)."""
    log = jsonl.read(path, jsonl.SERIES)
    return log.header, [TelemetrySample.from_dict(record)
                        for record in log.records
                        if record.get("record") == SERIES_SAMPLE]


class TelemetrySampler:
    """Periodic sampling thread feeding the ring, disk, and SLO engine.

    ``provider`` is a zero-argument callable returning a fresh
    :class:`TelemetrySample`; it must only read snapshots (the engine's
    :meth:`~repro.engine.scheduler.CampaignEngine.progress`, a serving
    engine's metrics) so a slow scrape can never block training.  Provider
    errors are swallowed and counted (``errors``/``last_error``) — a
    telemetry hiccup must not sink a multi-day campaign.
    """

    def __init__(self, provider, interval: float = 1.0,
                 path: str | Path | None = None,
                 meta: dict | None = None,
                 slo_engine=None):
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        self.provider = provider
        self.interval = float(interval)
        #: The ring: the newest 720 samples, oldest evicted first.
        self.buffer: deque[TelemetrySample] = deque(maxlen=720)
        self.slo_engine = slo_engine
        # A series observes this run only: an existing file is replaced.
        self._writer = (jsonl.create(path, jsonl.SERIES, meta)
                        if path else None)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples_taken = 0
        self.errors = 0
        self.last_error: str | None = None

    def latest(self) -> TelemetrySample | None:
        return self.buffer[-1] if self.buffer else None

    def sample_once(self) -> TelemetrySample | None:
        """Take one sample now; returns it (or ``None`` on error)."""
        try:
            sample = self.provider()
        except Exception as exc:  # noqa: BLE001 - telemetry must not kill runs
            self.errors += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            return None
        if sample is None:
            return None
        sample.rates = derive_rates(self.latest(), sample)
        self.buffer.append(sample)
        self.samples_taken += 1
        if self._writer is not None:
            try:
                self._writer.append({"record": SERIES_SAMPLE,
                                     **sample.to_dict()})
            except (OSError, ValueError) as exc:
                self.errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
        if self.slo_engine is not None:
            self.slo_engine.evaluate(sample.flat(), now=sample.t)
        return sample

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "TelemetrySampler":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-telemetry-sampler")
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True, timeout: float = 2.0) -> None:
        """Stop the thread; takes one last sample so the series ends on
        the campaign's final state."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        if final_sample:
            self.sample_once()
        if self._writer is not None:
            self._writer.close()

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
