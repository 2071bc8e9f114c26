"""The telemetry service: one poll, one loop, one set of endpoints.

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

One poll (:meth:`TelemetryService.poll`) is provider -> counter rates
-> latest sample -> ``<store>.series.jsonl`` append -> SLO evaluation.
One loop (:meth:`TelemetryService.run`) repeats it on the asyncio loop
that also hosts the service's :class:`~repro.httpcore.HTTPServer` —
``/metrics``, ``/healthz`` (503 while degraded), ``/progress``,
``/alerts``, next to the caller's extra ``routes``.  What blocks (the
provider's store read, the series ``fsync``, the caller's ``on_poll``)
runs in a worker thread, so a slow poll never delays a scrape or a
request; handlers read only the latest sample and the SLO engine's last
statuses, never training state, so a slow or hostile scraper cannot
perturb the campaign.

:func:`watch_store` runs that loop under ``asyncio.run``: ``repro
monitor --once | --json | --follow | --serve`` are its one-poll,
unserved and served cases, so one rules file means one thing on all of
them.  ``repro serve-infer`` runs it as a task beside its batcher
(:func:`repro.serving.server.run_service`).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from pathlib import Path

from repro import jsonl
from repro.httpcore import DEFAULT_HOST, JSON, HTTPServer
from repro.observe.export import dumps_json, render_prometheus
from repro.observe.slo import SLOEngine, SLORule
from repro.observe.timeseries import (
    SERIES_SAMPLE,
    TelemetrySample,
    derive_rates,
    series_path,
)

#: SLO rules applied when `repro monitor` is given no --slo file (a file
#: replaces them): a worker its source flagged as stalled.
DEFAULT_MONITOR_RULES = (
    SLORule("stalled-workers", "workers.stalled", max=0),
)


class TelemetryService:
    """Poll + SLO engine + series file + HTTP routes for one provider.

    The caller owns the loop: :func:`watch_store` and ``run_service``
    start ``server`` on it and run :meth:`run` there.
    """

    def __init__(self, provider, *, rules: list[SLORule] | None = None,
                 store_path: str | Path | None = None,
                 interval: float = 1.0, meta: dict | None = None,
                 host: str = DEFAULT_HOST, port: int = 0,
                 routes: dict | None = None):
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.provider = provider
        self.interval = float(interval)
        self.meta = dict(meta or {})
        self.slo = SLOEngine(list(rules or []))
        #: Where the series is persisted (None without a store).
        self.series_path = series_path(store_path) if store_path else None
        # A series observes this run only: an existing file is replaced.
        self._series = (jsonl.create(self.series_path, jsonl.SERIES,
                                     self.meta)
                        if self.series_path else None)
        self.server = HTTPServer({**self.routes(), **(routes or {})},
                                 host=host, port=port, meta=self.meta)
        #: The newest sample (None before the first good poll).
        self.latest: TelemetrySample | None = None
        #: Provider and series-write failures, counted instead of raised.
        self.errors = 0
        self.last_error: str | None = None
        self._stopping = asyncio.Event()

    @property
    def url(self) -> str:
        return self.server.url

    # ------------------------------------------------------------------
    # The poll and the loop
    # ------------------------------------------------------------------
    def _failed(self, exc: Exception) -> None:
        self.errors += 1
        self.last_error = f"{type(exc).__name__}: {exc}"

    async def poll(self) -> TelemetrySample | None:
        """Take one sample; ``None`` when the provider raised — a
        telemetry hiccup must not sink a multi-day campaign."""
        try:
            sample = await asyncio.to_thread(self.provider)
        except Exception as exc:  # noqa: BLE001 - counted, not raised
            self._failed(exc)
            return None
        sample.rates = derive_rates(self.latest, sample)
        self.latest = sample
        if self._series is not None:
            try:
                await asyncio.to_thread(
                    self._series.append,
                    {"record": SERIES_SAMPLE, **sample.to_dict()})
            except (OSError, ValueError) as exc:
                self._failed(exc)
        self.slo.evaluate(sample.flat(), now=sample.t)
        return sample

    async def run(self, on_poll=None) -> None:
        """Poll now and every ``interval`` until ``on_poll(sample)`` (run
        in a worker thread) returns true, or until :meth:`stop` — after
        which one last poll ends the series on the final state."""
        try:
            while True:
                stopping = self._stopping.is_set()
                sample = await self.poll()
                if stopping or (on_poll is not None and
                                await asyncio.to_thread(on_poll, sample)):
                    return
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._stopping.wait(),
                                           self.interval)
        finally:
            if self._series is not None:
                self._series.close()

    def stop(self) -> None:
        """End :meth:`run` after one final poll."""
        self._stopping.set()

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
                200, render_prometheus(self.latest),
                "text/plain; version=0.0.4; charset=utf-8"),
            ("GET", "/healthz"): healthz,
            ("GET", "/progress"): lambda _body: (
                200, dumps_json(self.latest, meta=self.meta), JSON),
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
        sample = self.latest
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
    live endpoint.  The callbacks run in a worker thread, so they may
    scrape the endpoint themselves.  The caller's exit gate is
    ``SLOEngine.breached()``.
    """
    from repro.engine.monitor import collect

    store_path = Path(store_path)
    state = None
    polls = 0

    def provider() -> TelemetrySample:
        nonlocal state
        state = collect(store_path, stall_after=stall_after)
        return state.sample()

    service = TelemetryService(
        provider, interval=interval, meta={"store": store_path.name},
        rules=DEFAULT_MONITOR_RULES if rules is None else rules,
        host=host, port=port or 0)

    def observed(sample: TelemetrySample | None) -> bool:
        nonlocal polls
        if state is None:  # later failures keep the last good state
            raise ValueError(
                f"monitor polling failed: {service.last_error}")
        # on_poll runs once the observation is scrapeable.
        if sample is not None and on_poll is not None:
            on_poll(state, service.slo.statuses)
        polls += 1
        return state.complete or (max_polls is not None
                                  and polls >= max_polls)

    async def watch() -> None:
        try:
            if port is not None:
                await service.server.start()
                if on_start is not None:
                    await asyncio.to_thread(on_start, service.url)
            await service.run(observed)
        finally:
            await service.server.stop()

    try:
        asyncio.run(watch())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        if state is None:
            raise
    return state, service.slo
