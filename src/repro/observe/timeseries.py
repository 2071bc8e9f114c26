"""Live telemetry samples and the series file they are persisted to.

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
  (count/sum/mean/max/p50/p99).  A campaign's sample is
  ``CampaignState.sample`` (:mod:`repro.engine.telemetry`), a serving
  engine's ``ServingEngine.sample``;
* :func:`derive_rates` — per-second counter rates between consecutive
  samples (monotonic counters; a reset restarts the rate from zero);
* :func:`read_series` — the series file next to the result store is a
  :mod:`repro.jsonl` record log of kind ``telemetry_series``, one
  sample per line, written by the one telemetry poll
  (:meth:`repro.serve.TelemetryService.poll`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import jsonl

SERIES_SCHEMA_VERSION = jsonl.SCHEMA[jsonl.SERIES]

#: Record type tag of a sample line.
SERIES_SAMPLE = "sample"

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
