"""Tests for the telemetry exposition and HTTP service (repro.serve,
repro.httpcore)."""

import asyncio
import contextlib
import itertools
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import httpcore
from repro.engine import (
    CampaignEngine,
    EngineConfig,
    ResultStore,
    WorkUnit,
    collect,
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

    def test_outcomes_are_labelled(self):
        parsed = validate_exposition(render_prometheus(_sample()))
        labelled = {(name, tuple(sorted(labels.items()))): value
                    for name, labels, value in parsed if labels}
        assert labelled == {
            ("repro_campaign_outcome_total",
             (("outcome", "latent_inf_nan"),)): 1.0,
            ("repro_campaign_outcome_total", (("outcome", "ok"),)): 2.0}

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
# Service endpoints on the one HTTP core and its one hosting
# ----------------------------------------------------------------------
def _polled(service: TelemetryService) -> TelemetrySample | None:
    """One poll of ``service``, outside any loop's lifetime."""
    return asyncio.run(service.poll())


def _slow_sample() -> TelemetrySample:
    time.sleep(0.05)  # a store read
    return _sample()


@contextlib.contextmanager
def _hosted(server, poller: TelemetryService | None = None):
    """Start ``server`` on a loop somebody else owns and runs (the
    monitor's hosting), with ``poller``'s telemetry loop
    on the same loop if given, and yield the list that loop's exception
    handler fills."""
    unhandled: list[dict] = []
    ready = threading.Event()
    box = {}

    async def main():
        box["loop"] = asyncio.get_running_loop()
        box["loop"].set_exception_handler(
            lambda _loop, context: unhandled.append(context))
        box["quit"] = asyncio.Event()
        await server.start()
        polling = (asyncio.create_task(poller.run())
                   if poller is not None else None)
        ready.set()
        await box["quit"].wait()
        if polling is not None:
            poller.stop()
            await polling
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
    ``hosting`` and returns the loop's unhandled-exception list:
    ``"polled"`` also runs a telemetry loop over a slow provider on that
    loop, as ``monitor --serve`` does."""
    with contextlib.ExitStack() as stack:
        yield lambda server: stack.enter_context(_hosted(
            server, TelemetryService(_slow_sample, interval=0.01)
            if request.cls.hosting == "polled" else None))


def _raw(url: str, payload: bytes) -> int | None:
    """Send raw bytes (none: connect and close); the response's status
    code (None: closed mute)."""
    host_name, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host_name, int(port)), timeout=5) as sock:
        sock.sendall(payload)
        if not payload:
            sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return int(data.split()[1]) if data else None


#: The hostile-request table: every malformed request gets an answer,
#: and empty input a clean close.
HOSTILE = {
    "non-integer-length":
        (b"GET /metrics HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    "negative-length":
        (b"GET /metrics HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    "oversized-header-line":
        (b"GET /metrics HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
         + b"\r\n\r\n", 431),
    "body-never-arrives":
        (b"GET /metrics HTTP/1.1\r\nContent-Length: 10\r\n\r\n", 408),
    "body-over-cap":
        (b"GET /metrics HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (httpcore.MAX_BODY_BYTES + 1), 413),
    # The refused body is sent too: the answer must still arrive, not a
    # reset from closing on unread input.
    "body-over-cap-sent":
        (b"GET /metrics HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (httpcore.MAX_BODY_BYTES + 1)
         + b"x" * (httpcore.MAX_BODY_BYTES + 1), 413),
    "declared-body-on-get":
        (b"GET /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 200),
    "undeclared-body-after-get":
        (b"GET /metrics HTTP/1.1\r\n\r\n" + b"x" * httpcore.MAX_BODY_BYTES,
         200),
    "post-not-allowed":
        (b"POST /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 405),
    "unknown-method":
        (b"DELETE /metrics HTTP/1.1\r\n\r\n", 405),
    "garbage-request-line": (b"\x00\xff\r\n\r\n", 400),
    "empty-input": (b"", None),
}


_TOKEN = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                 min_size=1, max_size=8)
_HEADER_VALUE = st.text(alphabet=st.characters(min_codepoint=0x20,
                                               max_codepoint=0x7e),
                        max_size=16)


@st.composite
def _requests(draw) -> tuple[bytes, int | None]:
    """``(raw request, the status the parser documents for it)``:
    request lines, headers and a ``Content-Length`` that is valid,
    negative, non-decimal, over the cap or longer than the body sent.
    A body the server does not read is drained, so its close is never a
    reset that would hide the answer."""
    shape = draw(st.sampled_from(["empty", "one-token"] + ["request"] * 4))
    if shape == "empty":
        return b"", None
    if shape == "one-token":
        return draw(_TOKEN).encode() + b"\r\n\r\n", 400
    method = draw(st.sampled_from(["GET", "POST", "get", "DELETE", "PUT"]))
    path = draw(st.sampled_from(
        ["/metrics", "/healthz/", "/alerts?x=1", "/", "/nope"]))
    headers = draw(st.lists(st.tuples(_TOKEN, _HEADER_VALUE), max_size=3))
    length = draw(st.sampled_from(["none", "valid", "negative",
                                   "non-decimal", "over-cap", "mismatched"]))
    body = (draw(st.binary(max_size=32))
            if length in ("valid", "mismatched") else b"")
    value = {
        "none": None,
        "valid": str(len(body)),
        "negative": f"-{draw(st.integers(1, 99))}",
        "non-decimal": draw(st.sampled_from(
            ["abc", "1e3", "0x10", "+5", "1.5", ""])),
        "over-cap": str(httpcore.MAX_BODY_BYTES
                        + draw(st.integers(1, 1 << 20))),
        "mismatched": str(len(body) + draw(st.integers(1, 16))),
    }[length]
    if value is not None:
        headers.insert(draw(st.integers(0, len(headers))),
                       ("Content-Length", value))
    raw = (f"{method} {path} HTTP/1.1\r\n"
           + "".join(f"{name}: {val}\r\n" for name, val in headers)
           + "\r\n").encode("latin-1") + body
    route = path.split("?")[0].rstrip("/") or "/"
    if length in ("negative", "non-decimal"):
        return raw, 400
    if method.upper() != "GET":
        return raw, 405
    if length == "over-cap":
        return raw, 413
    if length == "mismatched":
        return raw, 408
    routed = {"/"} | set(TelemetryService(_sample).routes())
    return raw, 200 if route in routed else 404


class EndpointSuite:
    """The endpoint contract; subclasses pick what shares the loop."""

    hosting: str

    def test_all_endpoints_respond(self, host):
        service = TelemetryService(_sample, meta={"workload": "resnet"})
        _polled(service)
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
        assert json.loads(body)["endpoints"] == list(server.routes) == \
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
        _polled(service)
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
        _polled(service)
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
        _polled(service)
        unhandled = host(service.server)
        assert _raw(service.url, payload) == expected
        # The server is still healthy for the next, well-formed client...
        status, body, _ = _get(f"{service.url}/metrics")
        assert status == 200
        validate_exposition(body)
        # ...and nothing fell through to the loop's exception handler.
        assert unhandled == []

    def test_generated_request_gets_its_documented_answer(
            self, host, monkeypatch):
        monkeypatch.setattr(httpcore, "READ_TIMEOUT_S", 0.2)
        service = TelemetryService(_sample)
        _polled(service)
        unhandled = host(service.server)

        @given(_requests())
        @settings(max_examples=40, deadline=None, database=None)
        def answered(case):
            payload, expected = case
            assert _raw(service.url, payload) == expected
            assert unhandled == []

        answered()

    def test_handler_exception_is_a_500_not_a_dropped_socket(self, host):
        def boom():
            raise RuntimeError("deliberate")

        server = httpcore.HTTPServer({"/boom": boom})
        unhandled = host(server)
        status, body, _ = _get(f"{server.url}/boom")
        assert status == 500
        assert "RuntimeError: deliberate" in json.loads(body)["error"]
        assert unhandled == []


class TestEndpoints(EndpointSuite):
    """With a telemetry loop polling a slow provider on the same loop."""

    hosting = "polled"


class TestEndpointsLoopHosted(EndpointSuite):
    hosting = "loop"


# ----------------------------------------------------------------------
# The one poll and the one loop
# ----------------------------------------------------------------------
class TestPoll:
    def test_poll_derives_rates_and_evaluates(self):
        samples = iter([TelemetrySample(t=0.0, counters={"c": 0.0}),
                        TelemetrySample(t=10.0, counters={"c": 20.0})])
        service = TelemetryService(
            lambda: next(samples), interval=0.01,
            rules=[SLORule(name="rate", metric="rate.c", max=1.0)])
        seen = []
        asyncio.run(service.run(
            lambda sample: seen.append(sample) or len(seen) == 2))
        assert [sample.rates for sample in seen] == [{}, {"c": 2.0}]
        assert service.latest is seen[-1]
        assert service.slo.breached() == ["rate"]

    def test_provider_errors_are_counted_not_raised(self):
        def provider():
            raise RuntimeError("registry on fire")
        service = TelemetryService(provider)
        assert _polled(service) is None
        assert service.errors == 1
        assert "registry on fire" in service.last_error
        assert service.latest is None

    def test_loop_polls_until_stopped_and_ends_on_a_final_sample(self):
        ticks, polled = itertools.count(), []

        def provider():
            polled.append(TelemetrySample(t=float(next(ticks))))
            return polled[-1]

        service = TelemetryService(provider, interval=0.01)

        async def main():
            polling = asyncio.create_task(service.run())
            while service.latest is None or service.latest.t < 2:
                await asyncio.sleep(0.01)
            stopped_after = service.latest.t
            service.stop()
            await polling
            return stopped_after

        stopped_after = asyncio.run(main())
        assert [sample.t for sample in polled] == \
            [float(t) for t in range(len(polled))]
        # stop() takes one last poll: the loop ends after the stop.
        assert polled[-1] is service.latest
        assert service.latest.t > stopped_after

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TelemetryService(_sample, interval=0.0)

    def test_scrape_is_answered_while_the_provider_blocks(self):
        """The provider runs off the loop: a 2 s store read delays no
        scrape."""
        calls, inside, release = itertools.count(), threading.Event(), \
            threading.Event()

        def provider():
            if next(calls) == 1:  # the first poll publishes a sample
                inside.set()
                release.wait(timeout=2.0)
            return _sample()

        service = TelemetryService(provider, interval=0.01)
        with _hosted(service.server, service) as unhandled:
            assert inside.wait(timeout=5)
            started = time.perf_counter()
            status, body, _ = _get(f"{service.url}/metrics")
            elapsed = time.perf_counter() - started
            release.set()
        assert status == 200 and "repro_campaign_done 3" in body
        assert elapsed < 0.5, f"scrape took {elapsed:.2f}s behind a poll"
        assert unhandled == []


# ----------------------------------------------------------------------
# Concurrent scrape-while-writing: a parallel engine writes its store
# while a served watch of that store is hammered on /metrics — every
# single scrape must parse.
# ----------------------------------------------------------------------
def _sleepy_factory():
    def run_one(payload):
        time.sleep(payload.get("sleep", 0.0))
        return {"value": payload["x"], "outcome": "ok"}
    return lambda payloads, sinks: [run_one(payload) for payload in payloads]


def _engine_thread(store_path, units, parallel):
    """Start an engine writing ``units`` into a new store at
    ``store_path`` on a thread; returns the thread and its report box."""
    store = ResultStore(store_path, kind="toy")
    box = {}

    def run():
        with store:
            box["report"] = CampaignEngine(
                _sleepy_factory, EngineConfig(parallel=parallel),
                store=store).run(units)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, box


class TestConcurrentScrape:
    def test_every_scrape_parses_during_live_parallel_run(self, tmp_path):
        units = [WorkUnit(key=f"key{i}",
                          payload={"key": f"key{i}", "x": i, "sleep": 0.03})
                 for i in range(12)]
        runner, box = _engine_thread(tmp_path / "s.jsonl", units, 2)
        urls, scrapes = [], []

        def scrape(_state, _statuses):
            if runner.is_alive():
                _, body, _ = _get(f"{urls[0]}/metrics")
                validate_exposition(body)  # raises on any malformed scrape
                status, health, _ = _get(f"{urls[0]}/healthz")
                assert status in (200, 503)
                json.loads(health)
                scrapes.append(1)

        try:
            state, _ = watch_store(tmp_path / "s.jsonl", port=0,
                                   interval=0.01, on_start=urls.append,
                                   on_poll=scrape)
        finally:
            runner.join(timeout=60)
        assert len(scrapes) >= 3, f"only {len(scrapes)} scrapes landed mid-run"
        assert box["report"].executed == 12
        # The watch ends on the finished campaign.
        assert state.complete and state.sample().gauges["campaign.done"] \
            == 12.0

    def test_campaign_telemetry_gates_on_slo(self, tmp_path):
        store_path = tmp_path / "camp.jsonl"
        rules = [SLORule(name="done-ceiling", metric="campaign.done",
                         max=0.5)]
        units = [WorkUnit(key=f"k{i}",
                          payload={"key": f"k{i}", "x": i, "sleep": 0.02})
                 for i in range(4)]
        runner, _ = _engine_thread(store_path, units, 1)
        telemetry = TelemetryService(
            lambda: collect(store_path).sample(), interval=0.01, rules=rules)

        async def watch():
            polling = asyncio.create_task(telemetry.run())
            await asyncio.to_thread(runner.join, 60)
            await asyncio.sleep(0.05)  # let the loop observe the breach
            telemetry.stop()
            await polling

        asyncio.run(watch())
        assert telemetry.slo.breached() == ["done-ceiling"]
        assert telemetry.latest.gauges["campaign.done"] == 4.0


# ----------------------------------------------------------------------
# The one store watch: served (repro monitor --serve) and unserved
# (--follow, --once)
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
            urls, health = [], []
            _, slo = watch_store(
                store_path, port=port, interval=0.01, max_polls=2,
                rules=rules, on_start=urls.append,
                on_poll=lambda state, statuses: health.extend(
                    _get(f"{url}/healthz")[0] for url in urls))
            assert slo.breached() == ["done-floor"]
            assert [(s.rule, s.state) for s in slo.statuses] \
                == [("done-floor", "firing")]
            # Served, the firing critical rule degrades /healthz.
            assert health == ([] if port is None else [503])

    def test_unreadable_store_raises(self, tmp_path):
        for port in PORTS:
            with pytest.raises(ValueError, match="monitor polling failed"):
                watch_store(tmp_path / "missing.jsonl", port=port,
                            interval=0.01)
