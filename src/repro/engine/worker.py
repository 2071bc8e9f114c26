"""Worker-process side of the campaign engine.

Each worker builds its runner once (for campaigns this trains/restores
the fault-free baseline — the expensive part), then executes work units
from its private task queue until it receives the ``None`` sentinel.
The parent dispatches one unit at a time, which is what makes
per-experiment deadlines and crash attribution possible: a busy worker
maps to exactly one in-flight experiment.

Workers are forked, so the runner factory may close over live objects
(e.g. an already-prepared :class:`~repro.core.faults.campaign.Campaign`
whose baseline snapshot is then inherited copy-on-write instead of
being retrained per worker).

With tracing on (``EngineConfig.trace``) each worker is a flight
recorder: it streams every event into a private shard file next to the
result store, stamped with the experiment key / worker id / attempt it
belongs to, and installs itself as the process-wide current tracer so
code deep inside the runner (the trainer, the injector, the detector)
emits into the same shard without the payload-agnostic engine threading
a tracer through.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observe import (
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    Tracer,
    set_current_tracer,
)

#: Message tags on the worker -> parent result queue.
READY = "ready"
DONE = "done"
ERROR = "error"
INIT_ERROR = "init_error"


@dataclass(frozen=True)
class WorkUnit:
    """One experiment to execute: a stable key plus a JSON-safe payload."""

    key: str
    payload: dict


class UnitCapture:
    """Per-unit shard-capture bookkeeping (worker and serial paths).

    Stamps the tracer's context with ``key``/``worker``/``attempt``
    around each unit and brackets the unit's events with
    ``experiment_started`` / ``experiment_finished`` markers — the
    attribution the shard merge needs to deduplicate retried units.
    The attempt counter is shard-local (each worker writes its own
    file), which keeps attempt ids unique per (shard, key).
    """

    def __init__(self, tracer: Tracer, worker_id: int,
                 outcome_field: str = "outcome"):
        self.tracer = tracer
        self.worker_id = worker_id
        self.outcome_field = outcome_field
        self._attempts: dict[str, int] = {}

    def start(self, key: str, payload=None) -> None:
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        self.tracer.set_context(key=key, worker=self.worker_id,
                                attempt=attempt)
        # The unit payload makes the trace self-contained: replay can
        # reconstruct the exact fault descriptor from this event alone.
        if payload is not None:
            self.tracer.emit(EXPERIMENT_STARTED, unit=payload)
        else:
            self.tracer.emit(EXPERIMENT_STARTED)

    def done(self, result) -> None:
        outcome = (result.get(self.outcome_field)
                   if isinstance(result, dict) else None)
        arena = (result.get("arena_sha256")
                 if isinstance(result, dict) else None)
        if arena is not None:
            self.tracer.emit(EXPERIMENT_FINISHED, status="done",
                             outcome=outcome, arena_sha256=arena)
        else:
            self.tracer.emit(EXPERIMENT_FINISHED, status="done",
                             outcome=outcome)
        self.tracer.clear_context()

    def error(self, error: str) -> None:
        self.tracer.emit(EXPERIMENT_FINISHED, status="error", error=error)
        self.tracer.clear_context()


def _run_block(runner, keys: list, payloads: list, worker_id: int,
               result_queue, capture: UnitCapture | None) -> None:
    """Execute one E-sized block lease (``keys`` is a list, the block
    protocol marker).  The runner gets every payload at once and must
    return an equal-length result list; success reports ``DONE`` with
    ``(keys, results)``, any failure fails the whole block (the parent
    retries each unit solo).  Shard capture brackets each unit after the
    block: events emitted while the block runs are interleaved across
    its experiments and are not attributed to a single one."""
    try:
        results = runner(payloads)
        if not isinstance(results, list) or len(results) != len(keys):
            raise RuntimeError(
                f"block runner returned {results!r:.80} for "
                f"{len(keys)} units")
        if capture is not None:
            for key, payload, result in zip(keys, payloads, results):
                capture.start(key, payload)
                capture.done(result)
        result_queue.put((DONE, worker_id, (keys, results)))
    except BaseException as exc:  # noqa: BLE001 - one bad block must not kill the pool
        error = f"{type(exc).__name__}: {exc}"
        if capture is not None:
            for key, payload in zip(keys, payloads):
                capture.start(key, payload)
                capture.error(error)
        result_queue.put((ERROR, worker_id, (keys, error)))


def worker_main(worker_id: int, runner_factory, task_queue, result_queue,
                trace_path=None, outcome_field: str = "outcome") -> None:
    """Worker process entry point (see module docstring).

    ``trace_path``, when given, turns on flight recording: a streaming
    shard tracer is opened there and installed process-wide for the
    worker's lifetime.
    """
    tracer: Tracer | None = None
    capture: UnitCapture | None = None
    if trace_path is not None:
        tracer = Tracer(stream=trace_path, meta={"worker": worker_id})
        set_current_tracer(tracer)
        capture = UnitCapture(tracer, worker_id, outcome_field)
    try:
        runner = runner_factory()
    except BaseException as exc:  # noqa: BLE001 - report, never hang the parent
        result_queue.put((INIT_ERROR, worker_id, f"{type(exc).__name__}: {exc}"))
        if tracer is not None:
            tracer.close()
        return
    result_queue.put((READY, worker_id, None))
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            key, payload = task
            if isinstance(key, list):
                _run_block(runner, key, payload, worker_id, result_queue,
                           capture)
                continue
            if capture is not None:
                capture.start(key, payload)
            try:
                result = runner(payload)
                if capture is not None:
                    capture.done(result)
                result_queue.put((DONE, worker_id, (key, result)))
            except BaseException as exc:  # noqa: BLE001 - one bad unit must not kill the pool
                error = f"{type(exc).__name__}: {exc}"
                if capture is not None:
                    capture.error(error)
                result_queue.put((ERROR, worker_id, (key, error)))
    finally:
        # The shard must be closed (and the process-wide tracer reset)
        # even if the task queue itself raises — e.g. the parent died
        # and the queue pipe broke — so the flight-recorder shard stays
        # readable up to the last completed unit.
        if tracer is not None:
            set_current_tracer(None)
            tracer.close()
