"""Serving engine, its HTTP routes, and the service driver.

Three layers, separable for tests:

* :class:`ServingEngine` — transport-free request path: dynamic batcher
  -> vectorized batched forward with the in-flight
  :class:`~repro.serving.session.FaultPlane` -> detection (nonfinite
  screen on every armed batch, sampled golden shadow re-execution) ->
  per-request :class:`~repro.core.analysis.classify.InferenceOutcome`
  -> optional batch recovery (re-serve the fault-free re-execution, the
  serving analogue of the paper's two-iteration rewind).  Every metric
  is a :mod:`~repro.observe.counters` attribute of the engine.
* :func:`serving_routes` — ``POST /predict`` and ``GET /workload`` as
  route-table entries for the one HTTP core (:mod:`repro.httpcore`),
  mounted next to the telemetry surface (``/metrics``, ``/healthz``,
  ``/progress``, ``/alerts``) of the same
  :class:`~repro.serve.TelemetryService` ``repro monitor --serve`` uses.
* :func:`run_service` — hands ``ServingEngine.sample`` to a
  :class:`~repro.serve.TelemetryService` and runs its server and its
  telemetry loop on the running loop next to the batcher, until a
  duration elapses or the task is cancelled; the telemetry series lands
  in ``<store>.series.jsonl`` and ends on a final sample.

Detection semantics: with ``fault_rate == 0`` nothing is armed and the
response bytes are bit-identical to a direct ``model.forward`` of the
same batch, or of any request alone.  When a fault fires, the nonfinite
screen always runs; a golden shadow re-execution of the rows the fired
faults touched, from the first top-level layer a fault fired in,
additionally runs with probability ``shadow_rate`` (and always when the
screen trips); those rows spliced into the primary output equal a full
fault-free forward's bytes.
Only a shadowed batch can observe SDCs — the ``serving.sdc`` counter is
therefore *detected* silent corruptions, a lower bound that tightens as
``shadow_rate`` -> 1.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.core.analysis.classify import InferenceOutcome, classify_inference_rows
from repro.core.faults.hardware import site_layers
from repro.httpcore import DEFAULT_HOST, JSON, error
from repro.nn.losses import top1
from repro.observe.counters import Counter, Histogram
from repro.observe.slo import SLORule
from repro.observe.timeseries import TelemetrySample
from repro.serve import TelemetryService
from repro.serving.batcher import DynamicBatcher, ShedError
from repro.serving.session import FaultPlane, InferenceSession

#: Batch-size histogram bounds: exact integer buckets up to the largest
#: max-batch anyone configures in practice.
_BATCH_BOUNDS = tuple(float(b) for b in (1, 2, 4, 8, 16, 32, 64, 128, 256))

#: SLO rules applied when `repro serve-infer` is given no --slo file:
#: availability (shed rate), tail latency, and silent-corruption budget.
DEFAULT_SERVING_RULES = (
    SLORule(name="shed-rate", metric="serving.shed_rate", max=0.05,
            severity="critical", for_seconds=1.0),
    SLORule(name="p99-latency", metric="serving.latency_seconds.p99",
            max=0.5, severity="warning", for_seconds=1.0),
    SLORule(name="sdc-per-million", metric="serving.sdc_per_million",
            max=100.0, severity="critical", for_seconds=1.0),
)


class ServingEngine:
    """The request path: batching, faults, detection, recovery, metrics."""

    def __init__(self, session: InferenceSession, fault_rate: float = 0.0,
                 seed: int = 0, max_batch: int = 32,
                 max_wait_s: float = 0.005, queue_cap: int = 256,
                 shadow_rate: float = 0.25, recover: bool = True):
        if not 0.0 <= shadow_rate <= 1.0:
            raise ValueError("shadow_rate must be in [0, 1]")
        self.session = session
        self.plane = FaultPlane(session.model, fault_rate, seed=seed)
        self.shadow_rate = float(shadow_rate)
        self.recover = bool(recover)
        self._shadow_rng = np.random.default_rng(seed + 0x5AD0)
        self.batcher = DynamicBatcher(
            self._execute_batch, max_batch=max_batch,
            max_wait_s=max_wait_s, queue_cap=queue_cap)
        self.c_requests = Counter("serving.requests")
        self.c_responses = Counter("serving.responses")
        self.c_shed = Counter("serving.shed")
        self.c_errors = Counter("serving.errors")
        self.c_batches = Counter("serving.batches")
        self.c_faults_armed = Counter("serving.faults_armed")
        self.c_faults_fired = Counter("serving.faults_fired")
        self.c_shadow = Counter("serving.shadow_execs")
        self.c_recovered = Counter("serving.recovered_batches")
        self.c_outcome = {outcome: Counter(f"serving.{outcome.value}")
                          for outcome in InferenceOutcome}
        self.h_latency = Histogram("serving.latency_seconds")
        self.h_batch_size = Histogram("serving.batch_size",
                                      bounds=_BATCH_BOUNDS)
        #: Every metric above, in name order: the order a sample lists
        #: them in.
        self.metrics = sorted(
            [self.c_requests, self.c_responses, self.c_shed, self.c_errors,
             self.c_batches, self.c_faults_armed, self.c_faults_fired,
             self.c_shadow, self.c_recovered, *self.c_outcome.values(),
             self.h_latency, self.h_batch_size],
            key=lambda metric: metric.name)

    # ------------------------------------------------------------------
    # Hot path (runs in the batcher's executor thread)
    # ------------------------------------------------------------------
    def _execute_batch(self, payloads: list[dict]) -> list[dict]:
        indices = [int(p["index"]) for p in payloads]
        batch = self.session.gather(indices)
        injectors = self.plane.arm(len(payloads))
        try:
            outputs = self.session.forward(batch)
        finally:
            FaultPlane.disarm(injectors)
        fired = [injector for injector in injectors if injector.fired]
        self.c_batches.inc()
        self.h_batch_size.observe(float(len(payloads)))
        self.c_faults_armed.inc(len(injectors))
        self.c_faults_fired.inc(len(fired))

        outcomes: list[InferenceOutcome | None] = [None] * len(payloads)
        recovered = False
        screened = bool(fired) and (
            not bool(np.isfinite(outputs).all())
            or float(self._shadow_rng.random()) < self.shadow_rate)
        if screened:
            golden = outputs
            # Only the rows a fault changed can differ from golden: eval
            # layers are per-image and batch-invariant, so the rest of the
            # primary output is golden already, and the shadow re-executes
            # the touched rows alone, injectors disarmed.  It starts at the
            # first top-level layer a fault fired in: every layer before
            # computed golden values, so its input is the one the primary
            # forward kept (DESIGN.md decisions 15 and 16).
            touched = np.unique(np.concatenate(
                [injector.rows for injector in fired]))
            if touched.size:
                self.c_shadow.inc()
                layer_of = site_layers(self.session.model)
                start = min(layer_of[injector.fault.site.module_name]
                            for injector in fired)
                golden = outputs.copy()
                golden[touched] = self.session.forward(
                    self.session.layer_inputs[start][touched], start)
            outcomes = classify_inference_rows(outputs, top1(golden))
            for outcome in outcomes:
                self.c_outcome[outcome].inc()
            if self.recover and not np.array_equal(
                    outputs, golden, equal_nan=True):
                outputs = golden
                recovered = True
                self.c_recovered.inc()

        preds = top1(outputs)
        rows = outputs.reshape(len(payloads), -1).tolist()
        responses = [{
            "index": index,
            "pred": pred,
            "output": row,
            "outcome": outcome.value if outcome else None,
            "screened": screened,
            "recovered": recovered,
            "batch_size": len(payloads),
            "faults_fired": len(fired),
        } for index, pred, row, outcome in zip(
            indices, preds.tolist(), rows, outcomes)]
        self.c_responses.inc(len(payloads))
        return responses

    # ------------------------------------------------------------------
    # Front-end entry points
    # ------------------------------------------------------------------
    async def predict(self, index: int) -> dict:
        """Submit one request; raises :class:`ShedError` on overload and
        ``IndexError`` — before queueing, so no batch-mate fails with it
        — for an index outside ``[0, num_samples)``."""
        self.c_requests.inc()
        index = int(index)
        if not 0 <= index < self.session.num_samples:
            self.c_errors.inc()
            raise IndexError(
                f"index {index} out of range [0, {self.session.num_samples})")
        started = time.perf_counter()
        try:
            result = await self.batcher.submit({"index": index})
        except ShedError:
            self.c_shed.inc()
            raise
        except Exception:
            self.c_errors.inc()
            raise
        self.h_latency.observe(time.perf_counter() - started)
        return result

    def sample(self):
        """One telemetry sample: every metric + serving gauges."""
        sample = TelemetrySample(t=time.time())
        for metric in self.metrics:
            if isinstance(metric, Counter):
                sample.counters[metric.name] = float(metric.value)
            else:
                sample.histograms[metric.name] = {
                    k: v for k, v in metric.summary().items() if k != "type"}
        requests = self.c_requests.value
        responses = self.c_responses.value
        sample.gauges.update({
            "serving.queue_depth": float(self.batcher.depth),
            "serving.shed_rate": (
                self.c_shed.value / requests if requests else 0.0),
            "serving.sdc_per_million": (
                self.c_outcome[InferenceOutcome.SDC].value / responses * 1e6
                if responses else 0.0),
            "serving.fault_rate": self.plane.rate,
        })
        sample.outcomes = {
            outcome.value: int(self.c_outcome[outcome].value)
            for outcome in InferenceOutcome}
        return sample

    def summary(self) -> dict:
        """End-of-run summary (what ``serve-infer`` writes to --store)."""
        sample = self.sample()
        return {
            "kind": "serving",
            "workload": self.session.spec.name,
            "fault_rate": self.plane.rate,
            "shadow_rate": self.shadow_rate,
            "recover": self.recover,
            "requests": int(self.c_requests.value),
            "responses": int(self.c_responses.value),
            "shed": int(self.c_shed.value),
            "batches": int(self.c_batches.value),
            "faults_armed": int(self.c_faults_armed.value),
            "faults_fired": int(self.c_faults_fired.value),
            "shadow_execs": int(self.c_shadow.value),
            "recovered_batches": int(self.c_recovered.value),
            "outcomes": {o.value: int(self.c_outcome[o].value)
                         for o in InferenceOutcome},
            "sdc_per_million": sample.gauges["serving.sdc_per_million"],
            "shed_rate": sample.gauges["serving.shed_rate"],
            "latency_seconds": self.h_latency.summary(),
        }


# ----------------------------------------------------------------------
# HTTP routes (mounted next to the telemetry routes on the one core)
# ----------------------------------------------------------------------
def serving_routes(engine: ServingEngine) -> dict:
    """``POST /predict`` (a coroutine handler: host the server on the
    loop the batcher runs on) and ``GET /workload`` over one engine."""
    session = engine.session

    async def predict(body: bytes) -> tuple[int, str, str]:
        try:
            index = int(json.loads(body.decode("utf-8") or "{}")["index"])
        except (ValueError, KeyError, TypeError):
            return error(400, "body must be JSON with an integer 'index'")
        try:
            return 200, json.dumps(await engine.predict(index)), JSON
        except IndexError as exc:
            return error(400, str(exc))
        except ShedError as exc:
            return error(503, "shed", detail=str(exc))

    def workload(_body: bytes) -> tuple[int, str, str]:
        return 200, json.dumps({
            "workload": session.spec.name,
            "num_samples": session.num_samples,
            "fault_rate": engine.plane.rate,
            "max_batch": engine.batcher.max_batch,
        }, sort_keys=True), JSON

    return {("POST", "/predict"): predict, ("GET", "/workload"): workload}


# ----------------------------------------------------------------------
# Service driver
# ----------------------------------------------------------------------
async def run_service(engine: ServingEngine, *, host: str = DEFAULT_HOST,
                      port: int = 0, store=None,
                      rules: list[SLORule] | None = None,
                      interval: float = 0.25,
                      duration: float | None = None,
                      announce=None) -> dict:
    """Serve until ``duration`` elapses (or cancellation); returns the
    run summary with the list of SLO rules that ever fired."""
    service = TelemetryService(
        engine.sample, store_path=store, interval=interval, host=host,
        port=port, routes=serving_routes(engine),
        rules=list(rules if rules is not None else DEFAULT_SERVING_RULES),
        meta={"workload": engine.session.spec.name, "kind": "serving",
              "fault_rate": engine.plane.rate})
    await service.server.start()
    batcher_task = asyncio.create_task(engine.batcher.run())
    telemetry_task = asyncio.create_task(service.run())
    if announce is not None:
        announce(f"serving: {engine.session.spec.name} on {service.url} "
                 f"(fault-rate {engine.plane.rate:g})")
    try:
        if duration is None:
            await asyncio.Event().wait()  # until cancelled
        else:
            await asyncio.sleep(duration)
    finally:
        # Runs on the normal path, cancellation, *and* interrupts: the
        # summary and the on-disk store must reflect whatever was served.
        await service.server.stop()
        engine.batcher.stop()
        await batcher_task
        service.stop()
        await telemetry_task
        summary = engine.summary()
        summary["breached"] = sorted(service.slo.ever_fired)
        summary["breached_critical"] = service.slo.breached("critical")
        if store is not None:
            Path(store).write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            summary["series_path"] = str(service.series_path)
    return summary
