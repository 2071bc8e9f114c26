"""Tests for repro.serving: batcher, fault plane, detection/recovery,
and the HTTP front-end (no pytest-asyncio — coroutines run under
``asyncio.run``)."""

import asyncio
import hashlib
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import nn
from repro.accelerator.ffs import FFDescriptor
from repro.core.analysis.classify import (
    InferenceOutcome,
    classify_inference_experiment,
    classify_inference_rows,
    inference_breakdown,
)
from repro.core.faults.hardware import (
    FORWARD,
    HardwareFault,
    OpSite,
    enumerate_sites,
    forward_by_layer,
    layer_chain,
    site_layers,
)
from repro.core.faults.injector import FaultInjector
from repro.observe.export import validate_exposition
from repro.observe.slo import SLORule
from repro.serving import (
    DynamicBatcher,
    FaultPlane,
    InferenceSession,
    ServingEngine,
    ShedError,
)
from repro.serving.loadgen import run_loadgen
from repro.serving.server import run_service
from repro.workloads.registry import build_workload


@pytest.fixture(scope="module")
def session():
    spec = build_workload("resnet", size="tiny", seed=0)
    return InferenceSession(spec, seed=0, train_iterations=6, num_devices=2)


# ----------------------------------------------------------------------
# Outcome taxonomy (shared with InferenceCampaign)
# ----------------------------------------------------------------------
class TestInferenceOutcome:
    def test_row_classification_with_precedence(self):
        golden = np.array([[0.1, 0.9], [0.1, 0.9], [0.1, 0.9], [0.1, 0.9]])
        golden_pred = np.argmax(golden, axis=-1)
        faulty = golden.copy()
        faulty[1] = [0.9, 0.1]            # prediction flips: SDC
        faulty[2, 0] = np.nan             # NaN, argmax unchanged: nonfinite
        faulty[3] = [np.inf, 0.1]         # inf flips argmax: SDC wins
        outcomes = classify_inference_rows(faulty, golden_pred)
        assert outcomes == [
            InferenceOutcome.MASKED, InferenceOutcome.SDC,
            InferenceOutcome.NONFINITE, InferenceOutcome.SDC]

    def test_experiment_level_matches_campaign_strings(self):
        assert classify_inference_experiment(
            sdc=True, nonfinite=True).value == "sdc"
        assert classify_inference_experiment(
            sdc=False, nonfinite=True).value == "nonfinite"
        assert classify_inference_experiment(
            sdc=False, nonfinite=False).value == "masked"

    def test_breakdown_counts_every_key(self):
        counts = inference_breakdown(["sdc", "masked", "masked"])
        assert counts == {"masked": 2, "sdc": 1, "nonfinite": 0}
        assert InferenceOutcome.SDC.is_silent
        assert not InferenceOutcome.NONFINITE.is_silent


# ----------------------------------------------------------------------
# Dynamic batcher (transport- and model-free)
# ----------------------------------------------------------------------
def _echo(payloads):
    return [{"value": p["value"], "batch": len(payloads)} for p in payloads]


class TestDynamicBatcher:
    def test_coalesces_up_to_max_batch(self):
        async def main():
            batcher = DynamicBatcher(_echo, max_batch=4, max_wait_s=0.05)
            # All eight submitted before the collector runs: they must
            # coalesce into full batches of exactly max_batch.
            submits = [asyncio.ensure_future(batcher.submit({"value": i}))
                       for i in range(8)]
            task = asyncio.ensure_future(batcher.run())
            results = await asyncio.gather(*submits)
            batcher.stop()
            await task
            return results, batcher

        results, batcher = asyncio.run(main())
        assert [r["value"] for r in results] == list(range(8))
        assert batcher.batch_sizes == [4, 4]

    def test_max_wait_flushes_part_full_batch(self):
        async def main():
            batcher = DynamicBatcher(_echo, max_batch=64, max_wait_s=0.01)
            task = asyncio.ensure_future(batcher.run())
            loop = asyncio.get_running_loop()
            started = loop.time()
            result = await batcher.submit({"value": 7})
            waited = loop.time() - started
            batcher.stop()
            await task
            return result, waited

        result, waited = asyncio.run(main())
        assert result == {"value": 7, "batch": 1}
        # Released by the max-wait timer, far before any 64-deep batch.
        assert waited < 5.0

    def test_bounded_queue_sheds_under_overload(self):
        async def main():
            batcher = DynamicBatcher(_echo, max_batch=4, max_wait_s=0.01,
                                     queue_cap=2)
            # No collector running: the queue fills at queue_cap and the
            # next submit must shed instead of buffering.
            ok = [asyncio.ensure_future(batcher.submit({"value": i}))
                  for i in range(2)]
            await asyncio.sleep(0)  # let both enqueue up to queue_cap
            with pytest.raises(ShedError):
                await batcher.submit({"value": 99})
            assert batcher.shed == 1
            task = asyncio.ensure_future(batcher.run())
            results = await asyncio.gather(*ok)
            batcher.stop()
            await task
            return results

        results = asyncio.run(main())
        assert [r["value"] for r in results] == [0, 1]

    def test_submit_after_stop_sheds(self):
        async def main():
            batcher = DynamicBatcher(_echo, max_batch=2)
            batcher.stop()
            with pytest.raises(ShedError):
                await batcher.submit({"value": 0})

        asyncio.run(main())

    def test_execute_failure_fails_the_batch_not_the_loop(self):
        calls = {"n": 0}

        def flaky(payloads):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return _echo(payloads)

        async def main():
            batcher = DynamicBatcher(flaky, max_batch=2, max_wait_s=0.005)
            task = asyncio.ensure_future(batcher.run())
            with pytest.raises(RuntimeError, match="boom"):
                await batcher.submit({"value": 0})
            result = await batcher.submit({"value": 1})
            batcher.stop()
            await task
            return result

        assert asyncio.run(main())["value"] == 1

    def test_queued_requests_coalesce_without_a_task_each(self):
        async def main():
            loop = asyncio.get_running_loop()
            batcher = DynamicBatcher(_echo, max_batch=8, max_wait_s=0.05)
            submits = [asyncio.ensure_future(batcher.submit({"value": i}))
                       for i in range(8)]
            await asyncio.sleep(0)  # all eight queued
            created = []

            def factory(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            try:
                task = asyncio.ensure_future(batcher.run())
                results = await asyncio.gather(*submits)
                batcher.stop()
                await task
            finally:
                loop.set_task_factory(None)
            return results, batcher.batch_sizes, created

        results, sizes, created = asyncio.run(main())
        assert [r["value"] for r in results] == list(range(8))
        assert sizes == [8]
        assert created == ["DynamicBatcher.run"]

    def test_cancelled_run_sheds_the_batch_in_flight_and_the_queue(self):
        def slow(payloads):
            time.sleep(0.05)
            return _echo(payloads)

        async def main():
            batcher = DynamicBatcher(slow, max_batch=2, max_wait_s=0.001)
            submits = [asyncio.ensure_future(batcher.submit({"value": i}))
                       for i in range(5)]
            task = asyncio.ensure_future(batcher.run())
            await asyncio.sleep(0.01)  # one batch executing, three queued
            task.cancel()
            done, pending = await asyncio.wait(submits, timeout=0.5)
            assert not pending, f"{len(pending)} requests stranded"
            assert all(isinstance(f.exception(), ShedError) for f in done)
            assert batcher.depth == 0 and batcher.shed == 5
            with pytest.raises(ShedError):
                await batcher.submit({"value": 5})

        asyncio.run(main())

    def test_batches_run_on_one_thread_of_its_own(self):
        """Back-to-back batches share one worker thread, never the loop's
        default pool, and the thread goes when ``run()`` does — cancelled
        included."""
        ran_on = []

        def execute(payloads):
            ran_on.append(threading.current_thread())
            time.sleep(0.001)
            return _echo(payloads)

        class Watched(ThreadPoolExecutor):
            submits = 0

            def submit(self, *args, **kwargs):
                Watched.submits += 1
                return super().submit(*args, **kwargs)

        async def main(cancel: bool):
            asyncio.get_running_loop().set_default_executor(Watched())
            batcher = DynamicBatcher(execute, max_batch=2, max_wait_s=0.001)
            task = asyncio.ensure_future(batcher.run())
            submits = [asyncio.ensure_future(batcher.submit({"value": i}))
                       for i in range(40)]
            await asyncio.sleep(0)  # all forty queued
            if cancel:
                await asyncio.sleep(0.01)
                task.cancel()
            else:
                batcher.stop()
            await asyncio.wait([task, *submits])
            return [f.result()["value"] for f in submits if not f.exception()]

        assert asyncio.run(main(cancel=False)) == list(range(40))
        assert len(ran_on) == 20
        for cancel in (False, True):
            if cancel:
                del ran_on[:]
                asyncio.run(main(cancel=True))
            (worker,) = set(ran_on)
            assert worker is not threading.main_thread()
            worker.join(timeout=5)
            assert not worker.is_alive()
        assert Watched.submits == 0

    def test_stop_wakes_an_idle_collector_at_once(self):
        async def main():
            batcher = DynamicBatcher(_echo, max_batch=4, max_wait_s=0.05)
            task = asyncio.ensure_future(batcher.run())
            await asyncio.sleep(0.02)  # asleep on an empty queue
            started = time.perf_counter()
            batcher.stop()
            await task
            return time.perf_counter() - started

        assert asyncio.run(main()) < 0.005

    def test_requests_queued_before_stop_still_drain(self):
        async def main():
            batcher = DynamicBatcher(_echo, max_batch=2, max_wait_s=0.05)
            submits = [asyncio.ensure_future(batcher.submit({"value": i}))
                       for i in range(5)]
            await asyncio.sleep(0)  # all five queued
            batcher.stop()
            task = asyncio.ensure_future(batcher.run())
            results = await asyncio.gather(*submits)
            await task
            return results, batcher

        results, batcher = asyncio.run(main())
        assert [r["value"] for r in results] == list(range(5))
        assert batcher.batch_sizes == [2, 2, 1] and batcher.shed == 0


# ----------------------------------------------------------------------
# Fault plane: arming draws as it always did and walks the model once
# ----------------------------------------------------------------------
class TestFaultPlaneArming:
    #: 50 batches of 8 at rate 0.5, seed 3, on an untrained resnet/tiny:
    #: (site, FF category, group, bit, feedback, seed) of every armed
    #: fault, recorded before arming stopped walking the model.
    PINNED_COUNT = 171
    PINNED_HEAD = [
        ("2.bn2", "datapath", None, 18, False, 1334076656),
        ("1.proj", "datapath", None, 1, False, 244108803),
        ("1.bn1", "datapath", None, 20, True, 2015972703)]
    PINNED_SHA256 = (
        "c9c3377ab48c8a820e13c3ac97fbf8d6acf9716a3d25fd7bb1647f785cc53088")

    def test_seeded_plane_arms_the_pinned_faults(self):
        model = build_workload("resnet", size="tiny").build_model(0)
        plane = FaultPlane(model, 0.5, seed=3)
        armed = []
        for _ in range(50):
            injectors = plane.arm(8)
            armed += [(i.fault.site.module_name, i.fault.ff.category,
                       i.fault.ff.group, i.fault.ff.bit,
                       i.fault.ff.has_feedback, i.fault.seed)
                      for i in injectors]
            FaultPlane.disarm(injectors)
        assert len(armed) == self.PINNED_COUNT
        assert armed[:3] == self.PINNED_HEAD
        assert hashlib.sha256(
            repr(armed).encode()).hexdigest() == self.PINNED_SHA256

    def test_arming_walks_the_model_only_the_first_time(self, monkeypatch):
        model = build_workload("resnet", size="tiny").build_model(0)
        plane = FaultPlane(model, 2.0, seed=1)
        FaultPlane.disarm(plane.arm(8))
        walks = []
        named_modules = nn.Module.named_modules

        def counting(self, prefix=""):
            walks.append(prefix)
            return named_modules(self, prefix)

        monkeypatch.setattr(nn.Module, "named_modules", counting)
        armed = 0
        for _ in range(20):
            injectors = plane.arm(8)
            armed += len(injectors)
            FaultPlane.disarm(injectors)
        assert armed > 20
        assert walks == []


# ----------------------------------------------------------------------
# Shadow re-execution from the first layer a fault fired in
# ----------------------------------------------------------------------
class _Wrapper(nn.Module):
    """A model that is not a ``Sequential``: a serving chain of one."""

    def __init__(self, inner):
        super().__init__()
        self.add_module("net", inner)

    def forward(self, x):
        return self.net.forward(x)


_BATCH = list(range(8))


def _fault_at(site: str, seed: int) -> FaultInjector:
    """A fault that flips the top exponent bit at ``site``'s output."""
    return FaultInjector(HardwareFault(
        ff=FFDescriptor("datapath", bit=30), site=OpSite(site, FORWARD),
        iteration=0, device=0, seed=seed))


def _seed_at(session, site: str, touching: bool) -> int:
    """The first seed whose :func:`_fault_at` changes some image of
    :data:`_BATCH` (``touching``) or none."""
    for seed in range(100):
        injector = _fault_at(site, seed)
        injector.arm(None, session.model)
        try:
            session.forward(session.gather(_BATCH))
        finally:
            injector.disarm()
        if bool(injector.rows.size) == touching:
            return seed
    raise AssertionError(f"no seed under 100 fits site {site!r}")


class TestShadowFromFirstFiredLayer:
    def _serve(self, session, sites, monkeypatch, touching=True):
        """One batch of :data:`_BATCH` with a fault armed at each of
        ``sites``: returns the ``(start, top-level layers run, input,
        output)`` of each session forward, the injectors, the responses,
        and the batch's fault-free forward with each layer's input."""
        model = session.model
        seeds = [_seed_at(session, site, touching) for site in sites]
        chain = layer_chain(model)
        golden, golden_inputs = forward_by_layer(model, session.gather(_BATCH))
        ran: list[int] = []
        for index, layer in enumerate(chain):
            monkeypatch.setattr(
                layer, "forward",
                lambda x, _forward=layer.forward, _index=index:
                ran.append(_index) or _forward(x))
        forwards = []
        session_forward = session.forward

        def recording(batch, start=None):
            del ran[:]
            out = session_forward(batch, start)
            forwards.append((start, list(ran), batch, out))
            return out

        engine = ServingEngine(session, fault_rate=1.0, max_batch=8,
                               shadow_rate=1.0, recover=True)
        injectors = []

        def arm(_batch_size):
            injectors[:] = [_fault_at(site, seed)
                            for site, seed in zip(sites, seeds)]
            for injector in injectors:
                injector.arm(None, model)
            return list(injectors)

        monkeypatch.setattr(engine.plane, "arm", arm)
        monkeypatch.setattr(session, "forward", recording)
        responses = engine._execute_batch([{"index": i} for i in _BATCH])
        return (forwards, injectors, responses, golden, golden_inputs,
                len(chain))

    def _check(self, session, sites, start, monkeypatch):
        forwards, injectors, responses, golden, inputs, layers = \
            self._serve(session, sites, monkeypatch)
        (primary_start, primary_ran, _, _), \
            (shadow_start, shadow_ran, shadow_batch, shadow) = forwards
        rows = np.unique(np.concatenate([i.rows for i in injectors]))
        assert all(r["faults_fired"] == len(sites) for r in responses)
        assert primary_start is None and primary_ran == list(range(layers))
        assert shadow_start == start
        assert shadow_ran == list(range(start, layers))
        # The shadow batch is exactly the touched rows, from the layer
        # input the primary kept (golden: no fault fired before it).
        assert shadow_batch.tobytes() == inputs[start][rows].tobytes()
        assert shadow.tobytes() == golden[rows].tobytes()
        assert [r["output"] for r in responses] == \
            golden.reshape(len(golden), -1).tolist()

    def test_one_fault_in_each_top_level_layer(self, session, monkeypatch):
        layer_of = site_layers(session.model)
        first_site = {}
        for site in enumerate_sites(session.model, (FORWARD,)):
            first_site.setdefault(layer_of[site.module_name], site.module_name)
        assert len(first_site) >= 3
        for start, site in sorted(first_site.items()):
            with monkeypatch.context() as patch:
                self._check(session, [site], start, patch)

    def test_two_faults_start_at_the_earlier_layer(self, session,
                                                  monkeypatch):
        layer_of = site_layers(session.model)
        sites = [s.module_name
                 for s in enumerate_sites(session.model, (FORWARD,))]
        late = next(s for s in reversed(sites) if layer_of[s] >= 2)
        early = next(s for s in sites if 0 < layer_of[s] < layer_of[late])
        self._check(session, [late, early], layer_of[early], monkeypatch)

    def test_a_model_that_is_not_sequential_shadows_from_layer_0(
            self, session, monkeypatch):
        model = _Wrapper(build_workload("resnet", size="tiny").build_model(0))
        monkeypatch.setattr(session, "model", model.eval())
        sites = [s.module_name for s in enumerate_sites(model, (FORWARD,))]
        assert site_layers(model)[sites[-1]] == 0
        self._check(session, [sites[-1]], 0, monkeypatch)

    def test_faults_that_touched_no_row_run_no_shadow(self, session,
                                                       monkeypatch):
        sites = [s.module_name
                 for s in enumerate_sites(session.model, (FORWARD,))]
        forwards, injectors, responses, golden, _, _ = self._serve(
            session, [sites[0], sites[-1]], monkeypatch, touching=False)
        assert all(i.fired and i.rows.size == 0 for i in injectors)
        assert len(forwards) == 1  # the primary alone
        assert all(r["screened"] and r["outcome"] == "masked"
                   and not r["recovered"] for r in responses)
        assert [r["output"] for r in responses] == \
            golden.reshape(len(golden), -1).tolist()


# ----------------------------------------------------------------------
# Serving engine: zero-fault bit-identity, detection, batch recovery
# ----------------------------------------------------------------------
class TestServingEngine:
    def test_zero_fault_is_bit_identical_to_direct_forward(self, session):
        engine = ServingEngine(session, fault_rate=0.0, max_batch=4)
        responses = engine._execute_batch([{"index": i} for i in range(4)])
        direct = session.forward(session.gather([0, 1, 2, 3]))
        for row, response in enumerate(responses):
            assert response["output"] == direct[row].ravel().tolist()
            assert response["outcome"] is None
            assert not response["recovered"]
        assert engine.c_outcome[InferenceOutcome.SDC].value == 0
        assert engine.c_faults_armed.value == 0

    def test_a_bad_index_fails_alone_before_it_is_queued(self, session):
        async def main():
            engine = ServingEngine(session, max_batch=8, max_wait_s=0.05)
            task = asyncio.ensure_future(engine.batcher.run())
            indices = list(range(7)) + [session.num_samples + 5, -1]
            results = await asyncio.gather(
                *(engine.predict(i) for i in indices), return_exceptions=True)
            engine.batcher.stop()
            await task
            return results, engine

        results, engine = asyncio.run(main())
        assert [r["index"] for r in results[:7]] == list(range(7))
        golden = session.forward(session.gather(range(7)))
        assert [r["output"] for r in results[:7]] == \
            golden.reshape(7, -1).tolist()
        assert all(isinstance(r, IndexError) for r in results[7:])
        assert engine.batcher.batch_sizes == [7]
        assert engine.c_requests.value == 9 and engine.c_errors.value == 2

    def test_recovery_re_execution_is_golden_identical(self, session):
        # Always-faulty regime with full shadowing: every corrupted
        # batch must be re-served from its fault-free re-execution.
        engine = ServingEngine(session, fault_rate=5.0, seed=7,
                               max_batch=4, shadow_rate=1.0, recover=True)
        golden = session.forward(session.gather([0, 1, 2, 3]))
        for _ in range(8):
            responses = engine._execute_batch(
                [{"index": i} for i in range(4)])
            for row, response in enumerate(responses):
                assert response["output"] == golden[row].ravel().tolist()
        assert engine.c_faults_fired.value > 0
        assert engine.c_shadow.value == engine.c_batches.value

    def test_no_recover_serves_faulty_outputs(self, session):
        engine = ServingEngine(session, fault_rate=5.0, seed=7,
                               max_batch=4, shadow_rate=1.0, recover=False)
        golden = session.forward(session.gather([0, 1, 2, 3]))
        diverged = False
        for _ in range(8):
            responses = engine._execute_batch(
                [{"index": i} for i in range(4)])
            for row, response in enumerate(responses):
                if response["output"] != golden[row].ravel().tolist():
                    diverged = True
        assert diverged, "faulty outputs never reached responses"
        assert engine.c_recovered.value == 0

    def test_outcome_counters_feed_the_sample(self, session):
        engine = ServingEngine(session, fault_rate=5.0, seed=11,
                               max_batch=4, shadow_rate=1.0)
        for _ in range(6):
            engine._execute_batch([{"index": i} for i in range(4)])
        sample = engine.sample()
        counted = sum(sample.outcomes.values())
        assert counted == 24  # every shadowed row classified
        assert sample.gauges["serving.fault_rate"] == 5.0
        if sample.outcomes["sdc"]:
            assert sample.gauges["serving.sdc_per_million"] > 0


# ----------------------------------------------------------------------
# HTTP front-end + service driver (real sockets, ephemeral ports)
# ----------------------------------------------------------------------
def _get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestInferenceServerHTTP:
    def test_predict_and_telemetry_endpoints(self, session, tmp_path):
        store = tmp_path / "serving.json"
        report = {}

        async def main():
            engine = ServingEngine(session, fault_rate=1.0, seed=5,
                                   max_batch=8, max_wait_s=0.002,
                                   shadow_rate=1.0)
            service = asyncio.ensure_future(run_service(
                engine, port=0, store=store, duration=2.5,
                announce=lambda m: report.setdefault("announce", m)))
            while "announce" not in report:
                await asyncio.sleep(0.01)
            url = report["announce"].split()[3]
            report["loadgen"] = await run_loadgen(url, rps=80, duration=1.0)
            status, metrics = await asyncio.to_thread(_get, url + "/metrics")
            report["metrics"] = (status, metrics)
            report["workload"] = await asyncio.to_thread(
                _get, url + "/workload")
            report["bad"] = await asyncio.to_thread(_get, url + "/nope")
            report["summary"] = await service

        asyncio.run(main())
        load = report["loadgen"]
        assert load["completed"] > 0 and load["errors"] == 0
        assert load["latency_ms"]["p99"] >= load["latency_ms"]["p50"] > 0
        status, metrics = report["metrics"]
        assert status == 200
        parsed = validate_exposition(metrics)
        names = {name for name, _, _ in parsed}
        assert {"repro_serving_requests_total", "repro_serving_shed_total",
                "repro_serving_sdc_total",
                "repro_serving_queue_depth"} <= names
        assert json.loads(report["workload"][1])["workload"] == "resnet"
        assert report["bad"][0] == 404
        summary = report["summary"]
        assert summary["responses"] >= load["completed"]
        assert summary["kind"] == "serving"
        # Store + series artifacts landed.
        assert json.loads(store.read_text())["workload"] == "resnet"
        with open(summary["series_path"], encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["record"] == "header"
        flat_keys = set()
        for line in lines[1:]:
            flat_keys.update(line.get("gauges", {}))
            flat_keys.update(line.get("histograms", {}))
        assert "serving.shed_rate" in flat_keys
        assert "serving.latency_seconds" in flat_keys
        # The series ends on a final sample, taken once serving stopped.
        assert lines[-1]["counters"]["serving.responses"] \
            == summary["responses"]

    def test_healthz_degrades_under_induced_slo_breach(self, session):
        report = {}
        # An impossible ceiling: any served request breaches immediately.
        rules = [SLORule(name="no-requests",
                         metric="counter.serving.requests", max=0.0,
                         severity="critical")]

        async def main():
            engine = ServingEngine(session, fault_rate=0.0, max_batch=4,
                                   max_wait_s=0.001)
            service = asyncio.ensure_future(run_service(
                engine, port=0, rules=rules, interval=0.05, duration=1.5,
                announce=lambda m: report.setdefault("announce", m)))
            while "announce" not in report:
                await asyncio.sleep(0.01)
            url = report["announce"].split()[3]
            report["healthz_before"] = await asyncio.to_thread(
                _get, url + "/healthz")
            await engine.predict(0)
            await asyncio.sleep(0.3)  # let the sampler observe the breach
            report["healthz"] = await asyncio.to_thread(
                _get, url + "/healthz")
            report["alerts"] = await asyncio.to_thread(
                _get, url + "/alerts")
            report["summary"] = await service

        asyncio.run(main())
        assert report["healthz_before"][0] == 200
        status, body = report["healthz"]
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert "slo:no-requests" in payload["reasons"]
        assert json.loads(report["alerts"][1])["firing"] == ["no-requests"]
        assert report["summary"]["breached_critical"] == ["no-requests"]

    def test_predict_validates_input(self, session):
        report = {}

        async def main():
            engine = ServingEngine(session, max_batch=2, max_wait_s=0.001)
            hub_service = asyncio.ensure_future(run_service(
                engine, port=0, duration=1.0,
                announce=lambda m: report.setdefault("announce", m)))
            while "announce" not in report:
                await asyncio.sleep(0.01)
            url = report["announce"].split()[3]

            def post(body):
                request = urllib.request.Request(
                    url + "/predict", data=body.encode("utf-8"),
                    headers={"Content-Type": "application/json"})
                try:
                    with urllib.request.urlopen(request, timeout=10) as r:
                        return r.status, r.read().decode("utf-8")
                except urllib.error.HTTPError as exc:
                    return exc.code, exc.read().decode("utf-8")

            report["bad_json"] = await asyncio.to_thread(post, "not json")
            report["bad_index"] = await asyncio.to_thread(
                post, json.dumps({"index": 10 ** 9}))
            report["negative"] = await asyncio.to_thread(
                post, json.dumps({"index": -1}))
            report["good"] = await asyncio.to_thread(
                post, json.dumps({"index": 0}))
            await hub_service

        asyncio.run(main())
        assert report["bad_json"][0] == 400
        assert report["bad_index"][0] == 400
        assert report["negative"][0] == 400
        status, body = report["good"]
        assert status == 200
        assert json.loads(body)["index"] == 0


# ----------------------------------------------------------------------
# Overload end to end: loadgen far above capacity must shed, not hang
# ----------------------------------------------------------------------
class TestOverload:
    def test_loadgen_observes_shedding(self, session):
        report = {}

        def slow_execute(payloads):
            import time as _time
            _time.sleep(0.05)  # throttle capacity well below the load
            return [{"index": p["index"], "pred": 0, "output": [],
                     "outcome": None, "screened": False, "recovered": False,
                     "batch_size": len(payloads), "faults_fired": 0}
                    for p in payloads]

        async def main():
            engine = ServingEngine(session, max_batch=2, max_wait_s=0.001,
                                   queue_cap=4)
            engine.batcher.execute = slow_execute
            service = asyncio.ensure_future(run_service(
                engine, port=0, duration=2.0, interval=0.05,
                announce=lambda m: report.setdefault("announce", m)))
            while "announce" not in report:
                await asyncio.sleep(0.01)
            url = report["announce"].split()[3]
            report["loadgen"] = await run_loadgen(url, rps=300,
                                                  duration=1.0)
            report["summary"] = await service

        asyncio.run(main())
        load = report["loadgen"]
        assert load["shed"] > 0, "overload never shed"
        assert load["errors"] == 0
        summary = report["summary"]
        assert summary["shed"] == load["shed"]
        assert summary["shed_rate"] > 0
        assert "shed-rate" in summary["breached"]


# ----------------------------------------------------------------------
# The server cooperates with plain threads (CLI smoke path)
# ----------------------------------------------------------------------
class TestThreadedClient:
    def test_scrape_from_foreign_thread_while_serving(self, session):
        report = {"codes": []}
        announce = threading.Event()
        url_box = {}

        async def main():
            engine = ServingEngine(session, max_batch=4, max_wait_s=0.002)

            def on_announce(message):
                url_box["url"] = message.split()[3]
                announce.set()

            await run_service(engine, port=0, duration=1.2,
                              announce=on_announce)

        def scraper():
            announce.wait(timeout=5)
            for _ in range(3):
                status, body = _get(url_box["url"] + "/metrics")
                validate_exposition(body)
                report["codes"].append(status)

        thread = threading.Thread(target=scraper)
        thread.start()
        asyncio.run(main())
        thread.join(timeout=5)
        assert report["codes"] == [200, 200, 200]
