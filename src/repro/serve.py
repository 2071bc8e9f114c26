"""The telemetry service: one object behind every scrapeable endpoint.

A paper-scale campaign should behave like a service, not a script: while
it runs, anything — a Prometheus scraper, a cron gate, an operator with
``curl`` — can ask how it is doing.  :class:`TelemetryService` is that
answer for both telemetry sources, which differ only in the
zero-argument *provider* handed to it: ``lambda:
collect(store).sample()`` (every mode of ``repro monitor``,
:func:`watch_store`) and ``ServingEngine.sample`` (``repro
serve-infer``).  A campaign is watched from its files alone — a
``repro monitor --serve`` next to a running ``repro campaign`` — so a
rules file reads the same names during a run and after it.

The service owns the sampler (so the sample ring and the
``<store>.series.jsonl`` file), the SLO engine, and the
:class:`~repro.httpcore.HTTPServer` its routes — ``/metrics``,
``/healthz`` (503 while degraded), ``/progress``, ``/alerts`` — are
mounted on next to the caller's extra ``routes``.  The latest sample
*is* the newest entry of the sampler's ring; handlers (run on the HTTP
core's loop thread, see :mod:`repro.httpcore`) read only that ring and
the SLO engine's last statuses, never training state, so a slow or
hostile scraper cannot perturb the campaign.  The sample namespace is
stated on :func:`repro.observe.timeseries.campaign_sample`.

:func:`watch_store` is the one loop that watches a store on disk:
``repro monitor --once | --json | --follow | --serve`` are its one-poll,
unserved and served cases, so one rules file means one thing on all of
them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.httpcore import DEFAULT_HOST, JSON, HTTPServer
from repro.observe.export import dumps_json, render_prometheus
from repro.observe.slo import SLOEngine, SLORule
from repro.observe.timeseries import (
    TelemetrySample,
    TelemetrySampler,
    series_path,
)

#: SLO rules applied when `repro monitor` is given no --slo file (a file
#: replaces them): a worker its source flagged as stalled.
DEFAULT_MONITOR_RULES = (
    SLORule("stalled-workers", "workers.stalled", max=0),
)


class TelemetryService:
    """Sampler + SLO engine + series file + HTTP routes for one provider.

    The caller hosts it: :func:`watch_store` starts ``server`` on a
    thread and polls ``sampler`` itself; ``repro serve-infer`` awaits
    ``server.start()`` on its own loop and starts the sampler thread.
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
        self.server = HTTPServer({**self.routes(), **(routes or {})},
                                 host=host, port=port, meta=self.meta)

    @property
    def url(self) -> str:
        return self.server.url

    def latest(self) -> TelemetrySample | None:
        return self.sampler.latest()

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
        }, indent=2, sort_keys=True)

    def health(self) -> tuple[bool, dict]:
        """``(healthy, payload)`` for ``/healthz``.

        Degraded while any critical SLO rule fires or the latest sample
        counts stalled workers (a gauge read, whatever the rules say).
        """
        sample = self.latest()
        stalled = int(sample.gauges.get("workers.stalled", 0)) if sample else 0
        reasons = [f"slo:{status.rule}" for status in self.slo.statuses
                   if status.firing and status.severity == "critical"]
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


def watch_store(store_path: str | Path, *,
                rules: list[SLORule] | None = None,
                port: int | None = None, host: str = DEFAULT_HOST,
                interval: float = 2.0, stall_after: float | None = None,
                max_polls: int | None = None,
                on_poll=None, on_start=None):
    """Watch a campaign's store until it completes (or ``max_polls``
    observations); returns ``(last CampaignState, SLOEngine)``.

    Each poll is :func:`repro.engine.monitor.collect` over the on-disk
    store + shards — so it works from any machine that can read the
    filesystem, and against a crashed or finished run — sampled through
    one :class:`SLOEngine` held for the whole watch (``rules``, or
    :data:`DEFAULT_MONITOR_RULES`), then ``on_poll(state, statuses)``.
    A ``port`` also serves the observations (``on_start(url)`` once
    bound): pointed at a running campaign's store, it is that campaign's
    live endpoint.  The caller's exit gate is ``SLOEngine.breached()``.
    """
    from repro.engine.monitor import collect

    store_path = Path(store_path)
    state = None

    def provider() -> TelemetrySample:
        nonlocal state
        state = collect(store_path, stall_after=stall_after)
        return state.sample()

    service = TelemetryService(
        provider, interval=interval, meta={"store": store_path.name},
        rules=DEFAULT_MONITOR_RULES if rules is None else rules,
        host=host, port=port or 0)
    sampler = service.sampler
    polls = 0
    try:
        if port is not None:
            service.server.start_thread()
            if on_start is not None:
                on_start(service.url)
        while True:
            sample = sampler.sample_once()
            if state is None:  # later failures keep the last good state
                raise ValueError(
                    f"monitor polling failed: {sampler.last_error}")
            # on_poll runs once the observation is scrapeable.
            if sample is not None and on_poll is not None:
                on_poll(state, service.slo.statuses)
            polls += 1
            if state.complete or (max_polls is not None
                                  and polls >= max_polls):
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        if state is None:
            raise
    finally:
        service.server.stop_thread()
    return state, service.slo
