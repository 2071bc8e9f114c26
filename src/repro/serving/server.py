"""The serving engine: the transport-free request path.

:class:`ServingEngine` — dynamic batcher -> vectorized batched forward
with the in-flight :class:`~repro.serving.session.FaultPlane` ->
detection (nonfinite screen on every armed batch, sampled golden shadow
re-execution) -> per-request
:class:`~repro.core.analysis.classify.InferenceOutcome` -> optional
batch recovery (re-serve the fault-free re-execution, the serving
analogue of the paper's two-iteration rewind).  Every metric is a
:mod:`~repro.observe.counters` attribute of the engine, and
:meth:`ServingEngine.summary` is the one report of them.

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

import time

import numpy as np

from repro.core.analysis.classify import InferenceOutcome, classify_inference_rows
from repro.core.faults.hardware import site_layers
from repro.nn.losses import top1
from repro.observe.counters import Counter, Histogram
from repro.serving.batcher import DynamicBatcher, ShedError
from repro.serving.session import FaultPlane, InferenceSession

#: Batch-size histogram bounds: exact integer buckets up to the largest
#: max-batch anyone configures in practice.
_BATCH_BOUNDS = tuple(float(b) for b in (1, 2, 4, 8, 16, 32, 64, 128, 256))


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

    def summary(self) -> dict:
        """The run's counters as one dict, with the shed rate and the
        detected silent corruptions per million responses."""
        requests = self.c_requests.value
        responses = self.c_responses.value
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
            "sdc_per_million": (
                self.c_outcome[InferenceOutcome.SDC].value / responses * 1e6
                if responses else 0.0),
            "shed_rate": self.c_shed.value / requests if requests else 0.0,
            "latency_seconds": self.h_latency.summary(),
        }
