"""Campaign-execution engine: parallel dispatch, retry, and resume.

The engine turns a list of :class:`~repro.engine.worker.WorkUnit` into a
key -> result mapping, fanning the units out over a pool of forked
worker processes (or running them in-process for ``parallel <= 1``).
It owns the robustness policy a multi-day campaign needs:

* **resume** — units whose key is already in the result store are not
  re-executed; their stored payloads are folded into the report;
* **timeout** — an experiment past its deadline gets its worker killed
  and is retried (parallel mode; in-process execution cannot preempt);
* **crash** — a worker that dies mid-lease fails exactly that lease:
  each worker talks to the parent over a pipe of its own, so its death
  reads as end-of-file there and blocks no other worker (DESIGN.md
  decision 19);
* **retry with backoff** — failed/timed-out/crashed units are requeued
  with exponential backoff up to ``max_retries`` extra attempts;
* **quarantine** — units that exhaust their retries are recorded in the
  store and skipped by future resumes, so one pathological fault cannot
  sink the campaign;
* **observability** — the session, every lease (worker, keys,
  deadline), retry and worker restart is a store record, so the store
  alone tells how the run is going (:func:`repro.engine.monitor.collect`).

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
from itertools import count
from multiprocessing.connection import Connection, wait
from multiprocessing.util import register_after_fork
from pathlib import Path

from repro.engine import worker as worker_proto
from repro.engine.store import LEASE, RESTART, RETRY, SESSION, ResultStore
from repro.engine.worker import (
    WorkUnit,
    run_lease,
    shard_recorder,
    worker_main,
)
from repro.observe import (
    campaign_trace_path,
    merge_campaign_shards,
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
    #: Merged campaign trace (EngineConfig.trace runs only).
    trace_path: Path | None = None


@dataclass
class _Task:
    unit: WorkUnit
    attempts: int = 0
    not_before: float = 0.0
    last_error: str = ""


class _WorkerHandle:
    """Parent-side state for one worker process: the parent's end of
    the worker's pipe and the lease in flight on it."""

    def __init__(self, worker_id: int, ctx, runner_factory,
                 trace_path: Path | None = None):
        self.id = worker_id
        self.conn, child = ctx.Pipe()
        # No forked process keeps a copy of the parent's end (neither
        # this worker nor a later one), so a worker whose parent is gone
        # reads end-of-file and exits.
        register_after_fork(self.conn, Connection.close)
        self.ready = False
        #: The in-flight lease (1 .. ``block_size`` tasks).
        self.block: list[_Task] | None = None
        self.deadline: float | None = None
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, runner_factory, child, trace_path),
            daemon=True,  # ended by a parent that exits cleanly
        )
        self.process.start()
        # The worker now holds the only other end, so its death reads as
        # end-of-file on ``conn``.
        child.close()

    @property
    def idle(self) -> bool:
        return self.ready and self.block is None

    def kill(self) -> None:
        self.conn.close()
        self.process.terminate()
        self.process.join(timeout=2.0)


class CampaignEngine:
    """Executes work units through a runner, robustly and resumably.

    ``runner_factory`` is a zero-argument callable returning
    ``runner(payloads, sinks) -> result-payloads``, lists in,
    equal-length list out, ``sinks[i]`` the event sink of unit *i* (one
    lease; see :func:`~repro.engine.worker.run_lease`); it is
    invoked once per worker (in the worker, after fork) or once
    in-process for serial runs, and not at all when the store already
    holds every unit.
    ``store``, when given, receives every result as it completes and
    seeds the resume set, and records the session, its leases, retries
    and worker restarts.  ``on_progress(report)`` is called with the
    :class:`EngineReport` being built once per settled unit.
    """

    def __init__(self, runner_factory, config: EngineConfig | None = None,
                 store: ResultStore | None = None, on_progress=None):
        self.runner_factory = runner_factory
        self.config = config or EngineConfig()
        self.store = store
        self.on_progress = on_progress

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, units: list[WorkUnit], before_fork=None) -> EngineReport:
        """Run every unit the store does not hold yet.  ``before_fork()``
        runs once the ``session`` record is written, and only when some
        unit is left to run (a fully resumed run does no work)."""
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
        self._note(SESSION, total=len(units), skipped=report.skipped)
        if pending and before_fork is not None:
            before_fork()

        try:
            if not pending:
                pass  # fully resumed: build no runner, fork no worker
            elif self.config.parallel <= 1:
                self._run_serial(pending, report)
            else:
                self._run_parallel(pending, report)
        finally:
            report.elapsed = time.monotonic() - start
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
    def _note(self, record: str, **fields) -> None:
        if self.store is not None:
            self.store.note(record, **fields)

    def _complete(self, task: _Task, payload: dict,
                  report: EngineReport) -> None:
        report.results[task.unit.key] = payload
        report.executed += 1
        if self.store is not None:
            self.store.append(task.unit.key, payload)
        self._publish(report)

    def _fail(self, task: _Task, error: str, pending: deque[_Task],
              report: EngineReport) -> None:
        task.attempts += 1
        task.last_error = error
        if task.attempts <= self.config.max_retries:
            report.retries += 1
            self._note(RETRY, key=task.unit.key, attempt=task.attempts,
                       error=error)
            task.not_before = time.monotonic() + (
                self.config.retry_backoff * (2 ** (task.attempts - 1)))
            pending.append(task)
        else:
            report.quarantined[task.unit.key] = error
            if self.store is not None:
                self.store.quarantine(task.unit.key, error, task.unit.payload)
        self._publish(report)

    def _publish(self, report: EngineReport) -> None:
        if self.on_progress is not None:
            self.on_progress(report)

    # ------------------------------------------------------------------
    # Serial execution (parallel <= 1)
    # ------------------------------------------------------------------
    def _run_serial(self, pending: deque[_Task],
                    report: EngineReport) -> None:
        """In-process execution.  Deadlines are not enforced (a wedged
        experiment cannot be preempted without a worker process), but
        retry/quarantine/resume and flight-recorder semantics match the
        parallel path (the in-process runner records as worker 0)."""
        trace_path = (shard_path(self._trace_dir, 0)
                      if self._trace_dir is not None else None)
        with shard_recorder(trace_path, 0) as capture:
            runner = self.runner_factory()
            while pending:
                block = [pending.popleft()]
                wait_s = block[0].not_before - time.monotonic()
                if wait_s > 0:
                    time.sleep(wait_s)
                self._extend_block(block, pending)
                self._lease(block, 0)
                tag, body = run_lease(
                    runner, [task.unit.key for task in block],
                    [task.unit.payload for task in block], capture)
                self._settle(block, tag, body, pending, report)

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

    def _lease(self, block: list[_Task], worker_id: int,
               budget: float | None = None) -> None:
        """Record the lease: its worker, keys and wall-clock deadline
        (``budget`` seconds from now; None: it cannot be preempted)."""
        self._note(LEASE, worker=worker_id,
                   keys=[task.unit.key for task in block],
                   deadline=None if budget is None else time.time() + budget)

    def _settle(self, block: list[_Task], tag: str, body, pending,
                report) -> None:
        """Resolve a lease the runner returned from: ``body`` is the
        result list (``DONE``), stored with one ``fsync`` for the lease,
        or the error every unit fails with."""
        if tag == worker_proto.DONE:
            with self.store.group() if self.store is not None \
                    else nullcontext():
                for task, result in zip(block, body):
                    self._complete(task, result, report)
        else:
            for task in block:
                self._fail(task, body, pending, report)

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

    def _run_parallel(self, pending: deque[_Task],
                      report: EngineReport) -> None:
        ctx = self._make_context()
        workers: dict[int, _WorkerHandle] = {}
        worker_ids = count()

        def busy() -> bool:
            return any(w.block is not None for w in workers.values())

        def spawn() -> None:
            worker_id = next(worker_ids)
            trace_path = (shard_path(self._trace_dir, worker_id)
                          if self._trace_dir is not None else None)
            workers[worker_id] = _WorkerHandle(
                worker_id, ctx, self.runner_factory, trace_path=trace_path)

        def replace(handle: _WorkerHandle, error: str | None = None) -> None:
            """Kill the worker, fail its lease with ``error`` (default:
            its crash) and start a successor while work remains."""
            handle.kill()
            del workers[handle.id]
            error = error or \
                f"worker crashed (exit code {handle.process.exitcode})"
            for task in handle.block or ():
                self._fail(task, error, pending, report)
            self._note(RESTART, worker=handle.id)
            if pending or busy():
                spawn()

        def serve(handle: _WorkerHandle, exited: bool) -> None:
            """Act on everything the worker sent, then on its death: one
            that sent DONE and then exited finished its lease."""
            messages, open_ = self._receive(handle)
            for tag, body in messages:
                if tag == worker_proto.READY:
                    handle.ready = True
                elif tag == worker_proto.INIT_ERROR:
                    handle.kill()
                    del workers[handle.id]
                    if not workers and pending:
                        raise RuntimeError(
                            f"engine worker failed to initialize: {body}")
                    return
                else:
                    lease, handle.block = handle.block, None
                    handle.deadline = None
                    self._settle(lease, tag, body, pending, report)
            if exited or not open_:
                replace(handle)

        for _ in range(min(self.config.parallel, len(pending))):
            spawn()

        try:
            while pending or busy():
                wake = self._dispatch(workers, pending, time.monotonic())
                owners = {waitable: handle for handle in workers.values()
                          for waitable in (handle.conn,
                                           handle.process.sentinel)}
                ready = wait(list(owners), timeout=None if wake is None
                             else max(wake - time.monotonic(), 0.0))
                for handle in dict.fromkeys(owners[r] for r in ready):
                    serve(handle, handle.process.sentinel in ready)
                now = time.monotonic()
                for handle in list(workers.values()):
                    if handle.deadline is not None and now > handle.deadline:
                        budget = self.config.timeout * len(handle.block)
                        replace(handle, f"timeout after {budget:.1f}s")
        finally:
            for handle in workers.values():
                try:
                    handle.conn.send(None)
                except OSError:
                    pass  # already gone
            for handle in workers.values():
                handle.process.join(timeout=2.0)
                handle.kill()

    def _dispatch(self, workers: dict[int, _WorkerHandle],
                  pending: deque[_Task], now: float) -> float | None:
        """Lease due tasks to idle workers; returns when the parent must
        wake without a message: the earliest lease deadline, or the end
        of a backoff an idle worker waits for (None: neither exists)."""
        wake = []
        for handle in workers.values():
            if not handle.idle or not pending:
                continue
            task = self._next_due(pending, now)
            if task is None:
                wake.append(min(t.not_before for t in pending))
                break
            block = [task]
            self._extend_block(block, pending, now)
            handle.block = block
            # Deadline scales with the lease: it is len(block)
            # experiments of work.
            budget = (self.config.timeout * len(block)
                      if self.config.timeout is not None else None)
            handle.deadline = None if budget is None else now + budget
            self._lease(block, handle.id, budget)
            try:
                handle.conn.send(([t.unit.key for t in block],
                                  [t.unit.payload for t in block]))
            except OSError:
                pass  # the worker is dead: its end-of-file fails the lease
        wake += [w.deadline for w in workers.values()
                 if w.deadline is not None]
        return min(wake, default=None)

    @staticmethod
    def _next_due(pending: deque[_Task], now: float) -> _Task | None:
        """Pop the first task whose backoff window has passed."""
        for _ in range(len(pending)):
            task = pending.popleft()
            if task.not_before <= now:
                return task
            pending.append(task)
        return None

    @staticmethod
    def _receive(handle: _WorkerHandle) -> tuple[list, bool]:
        """Every complete message the worker has sent, and whether its
        pipe is still open (end-of-file, or a message torn by the
        worker's death, closes it)."""
        messages = []
        try:
            while handle.conn.poll():
                messages.append(handle.conn.recv())
        except (EOFError, OSError):
            return messages, False
        return messages, True
