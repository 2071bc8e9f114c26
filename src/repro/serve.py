"""The telemetry service: one object behind every scrapeable endpoint.

A paper-scale campaign should behave like a service, not a script: while
it runs, anything — a Prometheus scraper, a cron gate, an operator with
``curl`` — can ask how it is doing.  :class:`TelemetryService` is that
answer for all three telemetry sources, which differ only in the
zero-argument *provider* handed to it: ``lambda:
build_sample(engine.progress())`` (``repro campaign --serve``),
``lambda: collect(store).sample()`` (``repro monitor --serve``,
:func:`serve_monitor`) and ``ServingEngine.sample`` (``repro
serve-infer``).

The service owns the sampler (so the sample ring and the
``<store>.series.jsonl`` file), the SLO engine, and the
:class:`~repro.httpcore.HTTPServer` its routes — ``/metrics``,
``/healthz`` (503 while degraded), ``/progress``, ``/alerts`` — are
mounted on next to the caller's extra ``routes``.  The latest sample
*is* the newest entry of the sampler's ring; handlers (run on the HTTP
core's loop thread, see :mod:`repro.httpcore`) read only that ring, the
SLO engine's last statuses and ``alerts``, never training state, so a
slow or hostile scraper cannot perturb the campaign.  The sample
namespace is stated on :func:`repro.observe.timeseries.campaign_sample`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.httpcore import DEFAULT_HOST, JSON, HTTPServer
from repro.observe.export import dumps_json, render_prometheus
from repro.observe.slo import SLOEngine, SLORule
from repro.observe.timeseries import (
    SeriesBuffer,
    TelemetrySample,
    TelemetrySampler,
    series_path,
)


class TelemetryService:
    """Sampler + SLO engine + series file + HTTP routes for one provider.

    ``with service:`` is the thread-hosted lifecycle (server thread +
    sampler thread, what ``repro campaign --serve`` uses); a caller with
    its own loop awaits ``service.server.start()`` instead.
    """

    def __init__(self, provider, *, rules: list[SLORule] | None = None,
                 store_path: str | Path | None = None,
                 interval: float = 1.0, meta: dict | None = None,
                 host: str = DEFAULT_HOST, port: int = 0,
                 routes: dict | None = None):
        self.meta = dict(meta or {})
        self.slo = SLOEngine(list(rules or []))
        #: Where the series is persisted (None without a store).
        self.series_path = series_path(store_path) if store_path else None
        self.sampler = TelemetrySampler(
            provider, interval=interval, path=self.series_path,
            meta=self.meta, slo_engine=self.slo)
        #: Legacy alert strings (monitor-style), shown next to SLO states.
        self.alerts: list[str] = []
        self.server = HTTPServer({**self.routes(), **(routes or {})},
                                 host=host, port=port, meta=self.meta)

    @property
    def buffer(self) -> SeriesBuffer:
        return self.sampler.buffer

    @property
    def url(self) -> str:
        return self.server.url

    def latest(self) -> TelemetrySample | None:
        return self.buffer.latest()

    def breached(self, severity: str = "critical") -> list[str]:
        """Rules of at least ``severity`` that fired at any point."""
        return self.slo.breached(severity)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def routes(self) -> dict:
        """The telemetry route table (see :mod:`repro.httpcore`)."""
        def healthz(_body):
            healthy, payload = self.health()
            return (200 if healthy else 503,
                    json.dumps(payload, indent=2, sort_keys=True), JSON)

        return {
            ("GET", "/metrics"): lambda _body: (
                200, render_prometheus(self.latest()),
                "text/plain; version=0.0.4; charset=utf-8"),
            ("GET", "/healthz"): healthz,
            ("GET", "/progress"): lambda _body: (
                200, dumps_json(self.latest(), meta=self.meta), JSON),
            ("GET", "/alerts"): lambda _body: (200, self.alerts_json(), JSON),
        }

    def alerts_json(self) -> str:
        statuses = [status.to_dict() for status in self.slo.statuses]
        return json.dumps({
            "slo": statuses,
            "firing": [s["rule"] for s in statuses
                       if s["state"] == "firing"],
            "alerts": list(self.alerts),
        }, indent=2, sort_keys=True)

    def health(self) -> tuple[bool, dict]:
        """``(healthy, payload)`` for ``/healthz``.

        Degraded while any critical SLO rule fires, any legacy alert is
        raised, or workers are stalled in the latest sample.
        """
        sample = self.latest()
        stalled = int(sample.gauges.get("workers.stalled", 0)) if sample else 0
        reasons = [f"slo:{status.rule}" for status in self.slo.statuses
                   if status.firing and status.severity == "critical"]
        reasons += [f"alert:{alert}" for alert in self.alerts]
        if stalled:
            reasons.append(f"stalled_workers:{stalled}")
        payload = {
            "status": "ok" if not reasons else "degraded",
            "reasons": reasons,
            "last_sample_age_s": (max(time.time() - sample.t, 0.0)
                                  if sample else None),
            "scrapes": self.server.scrapes,
        }
        return not reasons, payload

    def start(self) -> "TelemetryService":
        self.server.start_thread()
        self.sampler.start()
        return self

    def stop(self) -> None:
        self.sampler.stop()  # takes the final sample
        self.server.stop_thread()

    def __enter__(self) -> "TelemetryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_monitor(store_path: str | Path, port: int = 0,
                  host: str = DEFAULT_HOST, interval: float = 2.0,
                  rules: list[SLORule] | None = None,
                  stall_after: float | None = None,
                  max_quarantine_rate: float | None = None,
                  max_divergence_rate: float | None = None,
                  max_polls: int | None = None,
                  on_poll=None, on_start=None) -> dict:
    """Poll a store into a served telemetry endpoint until the campaign
    completes (or ``max_polls`` observations).

    The post-hoc twin of ``repro campaign --serve``: the provider is
    :func:`repro.engine.monitor.collect` over the on-disk store +
    shards, so it works from any machine that can read the filesystem —
    including against a crashed or finished run.  Returns
    ``{"polls", "alerts", "slo_breached", "url", "statuses"}``.
    """
    from repro.engine.monitor import collect, evaluate_alerts

    store_path = Path(store_path)
    state = None

    def provider() -> TelemetrySample:
        nonlocal state
        state = collect(store_path, stall_after=stall_after)
        service.alerts = evaluate_alerts(
            state, max_quarantine_rate=max_quarantine_rate,
            max_divergence_rate=max_divergence_rate)
        return state.sample()

    service = TelemetryService(provider, rules=rules, interval=interval,
                               meta={"store": store_path.name},
                               host=host, port=port)
    sampler = service.sampler
    polls = 0
    service.server.start_thread()
    try:
        if on_start is not None:
            on_start(service.url)
        while True:
            # on_poll runs once the observation is scrapeable.
            if sampler.sample_once() is not None and on_poll is not None:
                on_poll(state)
            polls += 1
            complete = (state is not None and state.total is not None
                        and state.attempted >= state.total)
            if complete or (max_polls is not None and polls >= max_polls):
                break
            time.sleep(interval)
    finally:
        service.server.stop_thread()
    if sampler.last_error is not None and sampler.samples_taken == 0:
        raise RuntimeError(f"monitor polling failed: {sampler.last_error}")
    return {"polls": polls, "alerts": list(service.alerts),
            "slo_breached": service.breached(), "url": service.url,
            "statuses": [s.to_dict() for s in service.slo.statuses]}
