"""Tests for the telemetry exposition and HTTP service (repro.serve,
repro.httpcore)."""

import asyncio
import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import httpcore
from repro.engine import (
    CampaignEngine,
    CampaignState,
    EngineConfig,
    ResultStore,
    WorkUnit,
)
from repro.observe.export import (
    dumps_json,
    metric_name,
    render_prometheus,
    validate_exposition,
)
from repro.observe.slo import SLORule
from repro.observe.timeseries import TelemetrySample
from repro.serve import TelemetryService, watch_store


def _get(url: str) -> tuple[int, str, str]:
    """``(status, body, content_type)`` — 4xx/5xx are answers here."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (response.status, response.read().decode("utf-8"),
                    response.headers.get("Content-Type", ""))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8"), \
            exc.headers.get("Content-Type", "")


def _sample(**gauges) -> TelemetrySample:
    return TelemetrySample(
        t=100.0, gauges=gauges or {"campaign.done": 3.0},
        counters={"serving.requests": 3.0},
        rates={"serving.requests": 0.5},
        histograms={"serving.latency_seconds": {
            "count": 3, "sum": 0.6, "mean": 0.2, "max": 0.3,
            "p50": 0.2, "p99": 0.3}},
        outcomes={"ok": 2, "latent_inf_nan": 1})


# ----------------------------------------------------------------------
# Exposition rendering
# ----------------------------------------------------------------------
class TestExposition:
    def test_render_is_deterministic_and_parseable(self):
        sample = _sample()
        text = render_prometheus(sample)
        assert text == render_prometheus(sample)
        parsed = validate_exposition(text)
        by_name = {name: value for name, labels, value in parsed
                   if not labels}
        assert by_name["repro_up"] == 1.0
        assert by_name["repro_campaign_done"] == 3.0
        assert by_name["repro_serving_requests_total"] == 3.0
        assert by_name["repro_serving_requests_rate"] == 0.5
        assert by_name["repro_serving_latency_seconds_count"] == 3.0

    def test_outcomes_and_quantiles_are_labelled(self):
        parsed = validate_exposition(render_prometheus(_sample()))
        labelled = {(name, tuple(sorted(labels.items()))): value
                    for name, labels, value in parsed if labels}
        assert labelled[("repro_campaign_outcome_total",
                         (("outcome", "latent_inf_nan"),))] == 1.0
        assert labelled[("repro_serving_latency_seconds",
                         (("quantile", "0.99"),))] == 0.3

    def test_none_sample_still_exposes_up(self):
        text = render_prometheus(None)
        parsed = validate_exposition(text)
        assert [(n, v) for n, _, v in parsed] == [("repro_up", 1.0)]

    def test_metric_name_sanitization(self):
        assert metric_name("campaign.done") == "repro_campaign_done"
        assert metric_name("rate.engine-x y") == "repro_rate_engine_x_y"

    def test_validator_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            validate_exposition("repro_up 1\nbroken{ 2\n")
        with pytest.raises(ValueError):
            validate_exposition("# TYPE repro_up bogus\nrepro_up 1\n")
        with pytest.raises(ValueError):
            validate_exposition("# HELP only comments\n")

    def test_json_document_is_deterministic(self):
        sample = _sample()
        assert dumps_json(sample) == dumps_json(sample)
        doc = json.loads(dumps_json(sample, meta={"workload": "resnet"}))
        assert doc["schema"] == 1
        assert doc["meta"] == {"workload": "resnet"}
        assert doc["sample"]["outcomes"] == {"latent_inf_nan": 1, "ok": 2}


# ----------------------------------------------------------------------
# Service endpoints on the one HTTP core, under both hostings
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _hosted(server, hosting: str):
    """Host ``server`` and yield the list its event loop's exception
    handler fills: ``"thread"`` is the campaign/monitor hosting (private
    daemon-thread loop), ``"loop"`` the serve-infer one (the server is
    started on a loop somebody else owns and runs)."""
    unhandled: list[dict] = []

    def record(_loop, context):
        unhandled.append(context)

    if hosting == "thread":
        server.start_thread()
        server.loop.call_soon_threadsafe(
            server.loop.set_exception_handler, record)
        try:
            yield unhandled
        finally:
            server.stop_thread()
        return

    ready = threading.Event()
    box = {}

    async def main():
        box["loop"] = asyncio.get_running_loop()
        box["loop"].set_exception_handler(record)
        box["quit"] = asyncio.Event()
        await server.start()
        ready.set()
        await box["quit"].wait()
        await server.stop()

    thread = threading.Thread(target=asyncio.run, args=(main(),))
    thread.start()
    assert ready.wait(timeout=5)
    try:
        yield unhandled
    finally:
        box["loop"].call_soon_threadsafe(box["quit"].set)
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def host(request):
    """``host(server)`` starts it under the requesting class's
    ``hosting`` and returns the loop's unhandled-exception list."""
    with contextlib.ExitStack() as stack:
        yield lambda server: stack.enter_context(
            _hosted(server, request.cls.hosting))


def _raw(url: str, payload: bytes) -> int | None:
    """Send raw bytes; the response's status code (None: closed mute)."""
    host_name, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host_name, int(port)), timeout=5) as sock:
        sock.sendall(payload)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return int(data.split()[1]) if data else None


#: The hostile-request table: every malformed request gets an answer.
HOSTILE = {
    "non-integer-length":
        (b"POST /predict HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    "negative-length":
        (b"POST /predict HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    "oversized-header-line":
        (b"GET /metrics HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
         + b"\r\n\r\n", 431),
    "body-never-arrives":
        (b"POST /predict HTTP/1.1\r\nContent-Length: 10\r\n\r\n", 408),
    "body-over-cap":
        (b"POST /predict HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (httpcore.MAX_BODY_BYTES + 1), 413),
    "unknown-method":
        (b"DELETE /metrics HTTP/1.1\r\n\r\n", 405),
    "garbage-request-line": (b"\x00\xff\r\n\r\n", 400),
}


class EndpointSuite:
    """The endpoint contract; subclasses pick the hosting."""

    hosting: str

    def test_all_endpoints_respond(self, host):
        service = TelemetryService(_sample, meta={"workload": "resnet"})
        service.sampler.sample_once()
        server = service.server
        host(server)
        status, body, ctype = _get(f"{server.url}/metrics")
        assert status == 200 and "version=0.0.4" in ctype
        validate_exposition(body)

        status, body, ctype = _get(f"{server.url}/healthz")
        assert status == 200 and ctype == "application/json"
        assert json.loads(body)["status"] == "ok"

        status, body, ctype = _get(f"{server.url}/progress")
        assert ctype == "application/json"
        assert json.loads(body)["schema"] == 1

        status, body, ctype = _get(f"{server.url}/alerts")
        assert ctype == "application/json"
        assert json.loads(body) == {"firing": [], "slo": []}

        status, body, _ = _get(f"{server.url}/")
        assert "/metrics" in json.loads(body)["endpoints"]
        # The index is generated from the route table.
        assert json.loads(body)["endpoints"] == \
            [path for _, path in server.routes] == \
            ["/metrics", "/healthz", "/progress", "/alerts"]
        assert json.loads(body)["meta"] == {"workload": "resnet"}

        status, body, _ = _get(f"{server.url}/nope")
        assert status == 404
        assert "/healthz" in json.loads(body)["endpoints"]
        assert json.loads(body)["error"] == "unknown path '/nope'"
        assert server.scrapes == 6

    def test_healthz_degrades_on_firing_critical_slo(self, host):
        sample = TelemetrySample(
            t=time.time(), gauges={"campaign.quarantine_rate": 0.5})
        service = TelemetryService(
            lambda: sample,
            rules=[SLORule(name="qrate", metric="campaign.quarantine_rate",
                           max=0.1)])
        service.sampler.sample_once()
        server = service.server
        host(server)
        status, body, _ = _get(f"{server.url}/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert "slo:qrate" in payload["reasons"]

        status, body, _ = _get(f"{server.url}/alerts")
        assert json.loads(body)["firing"] == ["qrate"]

    def test_healthz_degrades_on_stalled_workers(self, host):
        """A gauge read, with no rule about it loaded."""
        service = TelemetryService(lambda: TelemetrySample(
            t=time.time(), gauges={"workers.stalled": 2.0}))
        service.sampler.sample_once()
        healthy, payload = service.health()
        assert not healthy
        assert payload["reasons"] == ["stalled_workers:2"]
        host(service.server)
        status, body, _ = _get(f"{service.url}/healthz")
        assert status == 503
        assert json.loads(body)["reasons"] == payload["reasons"]

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_request_is_answered(self, host, case, monkeypatch):
        monkeypatch.setattr(httpcore, "READ_TIMEOUT_S", 0.3)
        payload, expected = HOSTILE[case]
        service = TelemetryService(_sample)
        service.sampler.sample_once()
        unhandled = host(service.server)
        assert _raw(service.url, payload) == expected
        # The server is still healthy for the next, well-formed client...
        status, body, _ = _get(f"{service.url}/metrics")
        assert status == 200
        validate_exposition(body)
        # ...and nothing fell through to the loop's exception handler.
        assert unhandled == []

    def test_handler_exception_is_a_500_not_a_dropped_socket(self, host):
        def boom(_body):
            raise RuntimeError("deliberate")

        server = httpcore.HTTPServer({("GET", "/boom"): boom})
        unhandled = host(server)
        status, body, _ = _get(f"{server.url}/boom")
        assert status == 500
        assert "RuntimeError: deliberate" in json.loads(body)["error"]
        assert unhandled == []


class TestEndpoints(EndpointSuite):
    hosting = "thread"


class TestEndpointsLoopHosted(EndpointSuite):
    hosting = "loop"


# ----------------------------------------------------------------------
# Concurrent scrape-while-writing (the ISSUE acceptance scenario):
# a live parallel engine runs while a scraper hammers /metrics — every
# single scrape must parse.
# ----------------------------------------------------------------------
def _sleepy_factory():
    def run_one(payload):
        time.sleep(payload.get("sleep", 0.0))
        return {"value": payload["x"], "outcome": "ok"}
    return lambda payloads, sinks: [run_one(payload) for payload in payloads]


def _live_sample(engine):
    """What ``repro campaign --serve`` samples: the engine's state, an
    empty one while it is idle."""
    return (engine.progress() or CampaignState(total=None)).sample()


class TestConcurrentScrape:
    def test_every_scrape_parses_during_live_parallel_run(self):
        units = [WorkUnit(key=f"key{i}",
                          payload={"key": f"key{i}", "x": i, "sleep": 0.03})
                 for i in range(12)]
        engine = CampaignEngine(_sleepy_factory, EngineConfig(parallel=2))
        telemetry = TelemetryService(
            lambda: _live_sample(engine), port=0, interval=0.01)
        report_box = {}

        def run_engine():
            report_box["report"] = engine.run(units)

        runner = threading.Thread(target=run_engine)
        with telemetry:
            runner.start()
            scrapes = 0
            while runner.is_alive():
                _, body, _ = _get(f"{telemetry.url}/metrics")
                validate_exposition(body)  # raises on any malformed scrape
                status, health, _ = _get(f"{telemetry.url}/healthz")
                assert status in (200, 503)
                json.loads(health)
                scrapes += 1
            runner.join()
        assert scrapes >= 3, f"only {scrapes} scrapes landed mid-run"
        assert report_box["report"].executed == 12
        # The final (post-stop) sample reflects the finished campaign.
        final = telemetry.latest()
        assert final.gauges["campaign.done"] == 12.0

    def test_campaign_telemetry_persists_series_and_gates_on_slo(
            self, tmp_path):
        store_path = tmp_path / "camp.jsonl"
        rules = [SLORule(name="done-ceiling", metric="campaign.done",
                         max=0.5)]
        engine = CampaignEngine(_sleepy_factory, EngineConfig(parallel=1))
        telemetry = TelemetryService(
            lambda: _live_sample(engine), store_path=store_path,
            port=0, interval=0.01, rules=rules)
        units = [WorkUnit(key=f"k{i}",
                          payload={"key": f"k{i}", "x": i, "sleep": 0.02})
                 for i in range(4)]
        with telemetry:
            engine.run(units)
            time.sleep(0.05)  # let the sampler observe the breach
        assert telemetry.slo.breached() == ["done-ceiling"]
        assert telemetry.series_path.exists()
        from repro.observe.timeseries import read_series
        _, samples = read_series(telemetry.series_path)
        assert samples, "series file persisted no samples"


# ----------------------------------------------------------------------
# The one store watch: served (repro monitor --serve, the post-hoc twin
# of campaign --serve) and unserved (--follow, --once)
# ----------------------------------------------------------------------
PORTS = (0, None)


class TestServeMonitor:
    def _store(self, path, done=3, total=3):
        store = ResultStore(path, kind="campaign",
                            meta={"workload": "resnet",
                                  "num_experiments": total})
        for i in range(done):
            store.append(f"key{i}", {"outcome": "ok", "index": i})
        store.close()
        return path

    def test_serves_until_complete_and_reports(self, tmp_path):
        store_path = self._store(tmp_path / "r.jsonl")
        for port in PORTS:
            seen, polls = {}, []

            def on_start(url):
                status, body, _ = _get(f"{url}/metrics")
                seen["metrics"] = (status, body)

            state, slo = watch_store(
                store_path, port=port, interval=0.01, max_polls=5,
                on_start=on_start,
                on_poll=lambda state, statuses: polls.append(state.done))
            # The campaign in the store is complete: one poll, not five.
            assert polls == [3] and state.complete
            # Nothing stalled: the built-in rule is loaded and quiet.
            assert [s.rule for s in slo.statuses] == ["stalled-workers"]
            assert slo.breached() == []
            if port is None:
                assert seen == {}
            else:
                status, body = seen["metrics"]
                assert status == 200
                validate_exposition(body)

    def test_max_polls_ends_the_watch_of_an_unfinished_store(self, tmp_path):
        store_path = self._store(tmp_path / "r.jsonl", done=1, total=9)
        for port in PORTS:
            polls = []
            state, _ = watch_store(
                store_path, port=port, interval=0.01, max_polls=3,
                on_poll=lambda state, statuses: polls.append(state.done))
            assert polls == [1, 1, 1] and not state.complete

    def test_slo_rules_evaluate_against_polled_state(self, tmp_path):
        store_path = self._store(tmp_path / "r.jsonl")
        rules = [SLORule(name="done-floor", metric="campaign.done",
                         min=100.0)]
        for port in PORTS:
            _, slo = watch_store(store_path, port=port, interval=0.01,
                                 max_polls=2, rules=rules)
            assert slo.breached() == ["done-floor"]
            assert [(s.rule, s.state) for s in slo.statuses] \
                == [("done-floor", "firing")]

    def test_unreadable_store_raises(self, tmp_path):
        for port in PORTS:
            with pytest.raises(ValueError, match="monitor polling failed"):
                watch_store(tmp_path / "missing.jsonl", port=port,
                            interval=0.01)
