"""Live telemetry samples.

Post-hoc analytics (``repro trace --analyze``, ``repro report``) answer
"what happened"; a multi-day campaign also needs "what is happening
*now*" — continuously, cheaply, and without touching the hot path.  The
large-scale FI literature (PyTorchFI at scale, the TF injector studies)
treats continuous campaign monitoring as a validation-efficiency
requirement, not a luxury.  This module provides the substrate:

* :class:`TelemetrySample` — one timestamped observation: gauges
  (progress, throughput, ETA, rates), raw counter values and the outcome
  tally.  A campaign's sample is ``CampaignState.sample``
  (:mod:`repro.engine.telemetry`), polled by
  :meth:`repro.serve.TelemetryService.poll`;
* :func:`derive_rates` — per-second counter rates between consecutive
  samples (monotonic counters; a reset restarts the rate from zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TelemetrySample:
    """One timestamped observation of a campaign's telemetry."""

    #: Wall-clock sample time (``time.time()``).
    t: float
    #: Instantaneous values: progress, throughput, rates, worker tallies.
    gauges: dict[str, float] = field(default_factory=dict)
    #: Raw cumulative values of every counter.
    counters: dict[str, float] = field(default_factory=dict)
    #: Outcome label -> completed-experiment count.
    outcomes: dict[str, int] = field(default_factory=dict)
    #: Per-second counter rates derived against the previous sample.
    rates: dict[str, float] = field(default_factory=dict)

    def flat(self) -> dict[str, float]:
        """One flat ``metric name -> value`` view of the sample.

        This is the namespace SLO rules and exporters address:
        gauges keep their names, counters gain a ``counter.`` prefix,
        rates a ``rate.`` prefix, and outcome tallies ``outcome.<label>``.
        """
        flat: dict[str, float] = dict(self.gauges)
        for name, value in self.counters.items():
            flat[f"counter.{name}"] = value
        for name, value in self.rates.items():
            flat[f"rate.{name}"] = value
        for label, count in self.outcomes.items():
            flat[f"outcome.{label}"] = float(count)
        return flat


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
