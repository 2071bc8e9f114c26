"""Campaign-execution engine: parallel dispatch, retry, and resume.

The engine turns a list of :class:`~repro.engine.worker.WorkUnit` into a
key -> result mapping, fanning the units out over a pool of forked
worker processes (or running them in-process for ``parallel <= 1``).
It owns the robustness policy a multi-day campaign needs:

* **resume** — units whose key is already in the result store are not
  re-executed; their stored payloads are folded into the report;
* **timeout** — an experiment past its deadline gets its worker killed
  and is retried (parallel mode; in-process execution cannot preempt);
* **retry with backoff** — failed/timed-out/crashed units are requeued
  with exponential backoff up to ``max_retries`` extra attempts;
* **quarantine** — units that exhaust their retries are recorded in the
  store and skipped by future resumes, so one pathological fault cannot
  sink the campaign;
* **telemetry** — progress snapshots (throughput, breakdown, ETA,
  per-worker health) are published through ``on_progress``.

Determinism: units are fully seeded descriptors, so the result of each
unit is independent of scheduling — the same units yield the same
result set at any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine import worker as worker_proto
from repro.engine.store import ResultStore
from repro.engine.telemetry import CampaignState, ProgressTracker
from repro.engine.worker import (
    OUTCOME_FIELD,
    UnitCapture,
    WorkUnit,
    run_lease,
    worker_main,
)
from repro.observe import (
    EXPERIMENT_COMPLETED,
    EXPERIMENT_QUARANTINED,
    NULL_TRACER,
    Tracer,
    campaign_trace_path,
    counter,
    histogram,
    merge_campaign_shards,
    set_current_tracer,
    shard_path,
)


@dataclass
class EngineConfig:
    """Execution policy for one engine run."""

    #: Worker processes; <= 1 executes in-process (serial).
    parallel: int = 1
    #: Per-experiment deadline in seconds (parallel mode only).
    timeout: float | None = None
    #: Extra attempts after the first failure before quarantining.
    max_retries: int = 2
    #: Base of the exponential retry backoff, in seconds.
    retry_backoff: float = 0.1
    #: Parent poll interval while waiting on workers, in seconds.
    poll_interval: float = 0.05
    #: A lease holds up to this many fresh units: the runner receives
    #: the *list* of their payloads and must return an equal-length list
    #: of results (the batched backend steps the whole lease through one
    #: vectorized program).  Only never-attempted units are leased
    #: together — retries always lease alone, so one poisoned unit
    #: cannot repeatedly sink its lease-mates.  A lease's
    #: failure/timeout/crash fails every unit in it (each gets a retry).
    block_size: int = 1
    #: Flight recorder: every worker streams its events into a private
    #: shard file next to the result store (required), merged into one
    #: campaign trace when the run ends.
    trace: bool = False


@dataclass
class EngineReport:
    """Everything a front-end needs after :meth:`CampaignEngine.run`."""

    #: key -> result payload, including results resumed from the store.
    results: dict[str, dict] = field(default_factory=dict)
    #: Units executed this session.
    executed: int = 0
    #: Units skipped because the store already held them.
    skipped: int = 0
    #: key -> error string for units that exhausted their retries.
    quarantined: dict[str, str] = field(default_factory=dict)
    #: Total retry attempts this session.
    retries: int = 0
    elapsed: float = 0.0
    snapshot: CampaignState | None = None
    #: Merged campaign trace (EngineConfig.trace runs only).
    trace_path: Path | None = None


@dataclass
class _Task:
    unit: WorkUnit
    attempts: int = 0
    not_before: float = 0.0
    last_error: str = ""
    #: ``time.monotonic()`` when the current lease started (0 = never
    #: leased); feeds the ``engine.experiment_seconds`` histogram.
    leased_at: float = 0.0


class _WorkerHandle:
    """Parent-side state for one worker process."""

    def __init__(self, worker_id: int, ctx, runner_factory, result_queue,
                 trace_path: Path | None = None):
        self.id = worker_id
        self.queue = ctx.Queue()
        self.ready = False
        #: The in-flight lease (1 .. ``block_size`` tasks).
        self.block: list[_Task] | None = None
        self.deadline: float | None = None
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, runner_factory, self.queue, result_queue,
                  trace_path),
            daemon=True,  # workers never outlive a killed parent
        )
        self.process.start()

    @property
    def idle(self) -> bool:
        return self.ready and self.block is None

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)


class CampaignEngine:
    """Executes work units through a runner, robustly and resumably.

    ``runner_factory`` is a zero-argument callable returning
    ``runner(payloads) -> result-payloads``, list in, equal-length list
    out (one lease; see :func:`~repro.engine.worker.run_lease`); it is
    invoked once per worker (in the worker, after fork) or once
    in-process for serial runs.
    ``store``, when given, receives every result as it completes and
    seeds the resume set.
    """

    def __init__(self, runner_factory, config: EngineConfig | None = None,
                 store: ResultStore | None = None, on_progress=None,
                 tracer=None):
        self.runner_factory = runner_factory
        self.config = config or EngineConfig()
        self.store = store
        self.on_progress = on_progress
        #: Event sink for scheduler-level events (completions and
        #: quarantines); defaults to the disabled NULL_TRACER.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The live tracker of the current run, for out-of-band readers
        #: (the telemetry sampler thread).  None outside ``run``.
        self._tracker: ProgressTracker | None = None

    def progress(self) -> CampaignState | None:
        """A progress snapshot of the in-flight run (None when idle).

        Safe to call from another thread: the tracker copies its state
        under snapshot, so the sampler never touches engine internals."""
        tracker = self._tracker
        return tracker.snapshot() if tracker is not None else None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, units: list[WorkUnit]) -> EngineReport:
        start = time.monotonic()
        report = EngineReport()
        self._trace_dir: Path | None = None
        if self.config.trace:
            if self.store is None:
                raise ValueError(
                    "EngineConfig.trace requires a result store: worker "
                    "shards and the merged campaign trace live next to it")
            self._trace_dir = self.store.path.parent
            # Fold shards a killed session left behind into the campaign
            # trace before this session's workers reuse the filenames.
            merge_campaign_shards(self.store.path)
        pending: deque[_Task] = deque()
        for unit in units:
            if self.store is not None and unit.key in self.store:
                if unit.key in self.store.completed:
                    report.results[unit.key] = self.store.completed[unit.key]
                else:
                    report.quarantined[unit.key] = \
                        self.store.quarantined[unit.key]
                report.skipped += 1
            else:
                pending.append(_Task(unit))

        tracker = ProgressTracker(total=len(units), skipped=report.skipped)
        self._tracker = tracker
        tracker.preload_breakdown([
            payload[OUTCOME_FIELD] for payload in report.results.values()
            if isinstance(payload, dict) and OUTCOME_FIELD in payload
        ])

        try:
            if self.config.parallel <= 1:
                self._run_serial(pending, report, tracker)
            else:
                self._run_parallel(pending, report, tracker)
        finally:
            report.elapsed = time.monotonic() - start
            report.snapshot = tracker.snapshot()
            if self._trace_dir is not None:
                merged = merge_campaign_shards(self.store.path)
                if merged is not None:
                    report.trace_path = merged.dest
                else:
                    existing = campaign_trace_path(self.store.path)
                    report.trace_path = existing if existing.exists() else None
        return report

    # ------------------------------------------------------------------
    # Shared completion/failure paths
    # ------------------------------------------------------------------
    @staticmethod
    def _outcome(payload) -> str | None:
        if isinstance(payload, dict):
            return payload.get(OUTCOME_FIELD)
        return None

    def _complete(self, task: _Task, payload: dict, report: EngineReport,
                  tracker: ProgressTracker, worker_id: int) -> None:
        report.results[task.unit.key] = payload
        report.executed += 1
        if self.store is not None:
            self.store.append(task.unit.key, payload)
        counter("engine.completed").inc()
        if task.leased_at:
            histogram("engine.experiment_seconds").observe(
                max(time.monotonic() - task.leased_at, 0.0))
        self.tracer.emit(EXPERIMENT_COMPLETED, key=task.unit.key,
                         outcome=self._outcome(payload))
        tracker.task_done(worker_id, self._outcome(payload))
        self._publish(tracker)

    def _fail(self, task: _Task, error: str, pending: deque[_Task],
              report: EngineReport, tracker: ProgressTracker,
              worker_id: int) -> None:
        task.attempts += 1
        task.last_error = error
        retry = task.attempts <= self.config.max_retries
        tracker.task_failed(worker_id, retried=retry)
        if retry:
            report.retries += 1
            counter("engine.retries").inc()
            task.not_before = time.monotonic() + (
                self.config.retry_backoff * (2 ** (task.attempts - 1)))
            pending.append(task)
        else:
            report.quarantined[task.unit.key] = error
            counter("engine.quarantined").inc()
            self.tracer.emit(EXPERIMENT_QUARANTINED, key=task.unit.key,
                             error=error)
            if self.store is not None:
                self.store.quarantine(task.unit.key, error, task.unit.payload)
        self._publish(tracker)

    def _publish(self, tracker: ProgressTracker) -> None:
        if self.on_progress is not None:
            self.on_progress(tracker.snapshot())

    # ------------------------------------------------------------------
    # Serial execution (parallel <= 1)
    # ------------------------------------------------------------------
    def _run_serial(self, pending: deque[_Task], report: EngineReport,
                    tracker: ProgressTracker) -> None:
        """In-process execution.  Deadlines are not enforced (a wedged
        experiment cannot be preempted without a worker process), but
        retry/quarantine/resume and flight-recorder semantics match the
        parallel path (the in-process runner records as worker 0)."""
        shard_tracer: Tracer | None = None
        capture: UnitCapture | None = None
        previous_tracer = None
        if self._trace_dir is not None:
            shard_tracer = Tracer(stream=shard_path(self._trace_dir, 0),
                                  meta={"worker": 0})
            previous_tracer = set_current_tracer(shard_tracer)
            capture = UnitCapture(shard_tracer, 0)
        try:
            runner = self.runner_factory()
            while pending:
                block = [pending.popleft()]
                wait = block[0].not_before - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                self._extend_block(block, pending)
                self._lease(block, 0, time.monotonic(), tracker)
                tag, body = run_lease(
                    runner, [task.unit.key for task in block],
                    [task.unit.payload for task in block], capture)
                self._settle(block, tag, body, pending, report, tracker, 0)
        finally:
            if shard_tracer is not None:
                set_current_tracer(previous_tracer)
                shard_tracer.close()

    def _extend_block(self, block: list[_Task], pending: deque[_Task],
                      now: float | None = None) -> None:
        """Grow a lease up to ``block_size`` with due, never-attempted
        units.  The lead task decides: retries (attempts > 0) always run
        solo so a poisoned unit cannot sink fresh block-mates."""
        if self.config.block_size <= 1 or block[0].attempts != 0:
            return
        now = time.monotonic() if now is None else now
        for _ in range(len(pending)):
            if len(block) >= self.config.block_size:
                break
            candidate = pending.popleft()
            if candidate.attempts == 0 and candidate.not_before <= now:
                block.append(candidate)
            else:
                pending.append(candidate)

    @staticmethod
    def _lease(block: list[_Task], worker_id: int, now: float,
               tracker: ProgressTracker,
               deadline: float | None = None) -> None:
        for task in block:
            tracker.task_started(worker_id, task.unit.key, deadline)
            task.leased_at = now

    def _settle(self, block: list[_Task], tag: str, body, pending, report,
                tracker, worker_id: int) -> None:
        """Resolve a lease the runner returned from: ``body`` is the
        result list (``DONE``), stored with one ``fsync`` for the lease,
        or the error every unit fails with."""
        if tag == worker_proto.DONE:
            with self.store.group() if self.store is not None \
                    else nullcontext():
                for task, result in zip(block, body):
                    self._complete(task, result, report, tracker, worker_id)
        else:
            for task in block:
                self._fail(task, body, pending, report, tracker, worker_id)

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------
    def _make_context(self):
        methods = mp.get_all_start_methods()
        if "fork" not in methods:
            raise RuntimeError(
                "the parallel engine requires the 'fork' start method so "
                "workers can inherit the prepared campaign; this platform "
                f"offers only {methods} — run with parallel=1")
        return mp.get_context("fork")

    def _run_parallel(self, pending: deque[_Task], report: EngineReport,
                      tracker: ProgressTracker) -> None:
        ctx = self._make_context()
        result_queue = ctx.Queue()
        num_workers = max(1, min(self.config.parallel, len(pending)))
        workers: dict[int, _WorkerHandle] = {}
        next_worker_id = 0

        def spawn() -> None:
            nonlocal next_worker_id
            trace_path = (shard_path(self._trace_dir, next_worker_id)
                          if self._trace_dir is not None else None)
            handle = _WorkerHandle(next_worker_id, ctx, self.runner_factory,
                                   result_queue, trace_path=trace_path)
            workers[handle.id] = handle
            tracker.worker_started(handle.id)
            next_worker_id += 1

        def respawn(handle: _WorkerHandle) -> None:
            handle.kill()
            del workers[handle.id]
            tracker.worker_restarted(handle.id)
            if pending or any(w.block is not None for w in workers.values()):
                spawn()

        for _ in range(num_workers):
            spawn()

        try:
            while pending or any(w.block is not None for w in workers.values()):
                now = time.monotonic()
                # Dispatch to idle workers (skip tasks still in backoff).
                for handle in list(workers.values()):
                    if not handle.idle or not pending:
                        continue
                    task = self._next_due(pending, now)
                    if task is None:
                        break
                    block = [task]
                    self._extend_block(block, pending, now)
                    handle.block = block
                    # Deadline scales with the lease: it is len(block)
                    # experiments of work.
                    handle.deadline = (
                        now + self.config.timeout * len(block)
                        if self.config.timeout is not None else None)
                    self._lease(block, handle.id, now, tracker,
                                handle.deadline)
                    handle.queue.put(([t.unit.key for t in block],
                                      [t.unit.payload for t in block]))

                self._drain_results(result_queue, workers, pending, report,
                                    tracker)
                self._check_deadlines_and_liveness(workers, pending, report,
                                                   tracker, respawn)

                if not workers and pending:
                    raise RuntimeError(
                        "all engine workers died during startup; last "
                        f"pending unit: {pending[0].unit.key}")
        finally:
            for handle in workers.values():
                if handle.process.is_alive():
                    try:
                        handle.queue.put(None)
                    except (ValueError, OSError):
                        pass
            for handle in workers.values():
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.kill()
            result_queue.close()

    @staticmethod
    def _next_due(pending: deque[_Task], now: float) -> _Task | None:
        """Pop the first task whose backoff window has passed."""
        for _ in range(len(pending)):
            task = pending.popleft()
            if task.not_before <= now:
                return task
            pending.append(task)
        return None

    def _drain_results(self, result_queue, workers, pending, report,
                       tracker) -> None:
        # Wait up to poll_interval for the first message only; then take
        # whatever else is already queued and go back to handing out work.
        wait = True
        while True:
            try:
                if wait:
                    message = result_queue.get(
                        timeout=self.config.poll_interval)
                    wait = False
                else:
                    message = result_queue.get_nowait()
            except Exception:  # noqa: BLE001 - queue.Empty from any context
                return
            tag, worker_id, body = message
            handle = workers.get(worker_id)
            if handle is None:
                continue  # message from a worker we already killed
            if tag == worker_proto.READY:
                handle.ready = True
            elif tag == worker_proto.INIT_ERROR:
                handle.kill()
                del workers[worker_id]
                tracker.workers.pop(worker_id, None)
                if not workers and pending:
                    raise RuntimeError(
                        f"engine worker failed to initialize: {body}")
            elif tag in (worker_proto.DONE, worker_proto.ERROR):
                lease = handle.block
                handle.block = None
                handle.deadline = None
                if lease is None:
                    continue  # late message for a lease already resolved
                keys, results = body
                if keys != [task.unit.key for task in lease]:
                    continue
                self._settle(lease, tag, results, pending, report, tracker,
                             worker_id)

    def _check_deadlines_and_liveness(self, workers, pending, report,
                                      tracker, respawn) -> None:
        now = time.monotonic()
        for handle in list(workers.values()):
            block = handle.block
            if block is not None and handle.deadline is not None \
                    and now > handle.deadline:
                handle.block = None
                error = ("timeout after "
                         f"{self.config.timeout * len(block):.1f}s")
                for task in block:
                    self._fail(task, error, pending, report, tracker,
                               handle.id)
                respawn(handle)
            elif not handle.process.is_alive():
                handle.block = None
                if block is not None:
                    for task in block:
                        self._fail(
                            task,
                            f"worker crashed (exit code "
                            f"{handle.process.exitcode})",
                            pending, report, tracker, handle.id)
                respawn(handle)
