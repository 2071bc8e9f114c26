"""Worker-process side of the campaign engine.

Each worker builds its runner once (for campaigns this trains/restores
the fault-free baseline — the expensive part), then executes leases it
receives on its end of a pipe to the parent until it receives ``None``
or the pipe reads end-of-file (the parent is gone).  Every reply goes
back on the same pipe, so one worker's death can never block another's
(DESIGN.md decision 19).  A lease is a list of one or more work units,
and :func:`run_lease` — the same function the engine's in-process path
calls — hands the runner all of their payloads at once.  A worker holds
one lease at a time and the parent remembers which, so a deadline
(scaled by the lease's length) or a crash is attributed to exactly the
units of that lease, each of which then gets its own retry.

Workers are forked, so the runner factory may close over live objects
(e.g. an already-prepared :class:`~repro.core.faults.campaign.Campaign`
whose baseline snapshot is then inherited copy-on-write instead of
being retrained per worker).

With tracing on (``EngineConfig.trace``) each worker is a flight
recorder (:func:`shard_recorder`): it streams every event into a private
shard file next to the result store and installs that tracer
process-wide.  Every unit of a lease is opened — ``experiment_started``
written, a view of the shard tracer stamped with the unit's key / worker
id / attempt created — before the runner is called, so code deep inside
the runner (the trainer, the injector, the detector) emits through its
own unit's view without the payload-agnostic engine threading a tracer
through, and a worker killed mid-lease leaves every unit of the lease an
open attempt for the shard merge to deduplicate against the retry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.observe import (
    EXPERIMENT_FINISHED,
    EXPERIMENT_STARTED,
    StampedView,
    Tracer,
    set_current_tracer,
)

#: The result-payload field telemetry and the shard markers read the
#: outcome label from.
OUTCOME_FIELD = "outcome"

#: Message tags on the worker -> parent side of a worker's pipe.
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

    Brackets each unit's events with ``experiment_started`` /
    ``experiment_finished`` markers and gives the unit a view of the
    shard tracer stamped with ``key``/``worker``/``attempt`` — the
    attribution the shard merge needs to deduplicate retried units.
    The attempt counter is shard-local (each worker writes its own
    file), which keeps attempt ids unique per (shard, key).
    """

    def __init__(self, tracer: Tracer, worker_id: int):
        self.tracer = tracer
        self.worker_id = worker_id
        self._attempts: dict[str, int] = {}

    def start(self, key: str, payload=None) -> StampedView:
        """Open a unit; everything it emits goes through the returned
        view, which stays on ``tracer.views`` until the unit is closed."""
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        view = StampedView(self.tracer, key=key, worker=self.worker_id,
                           attempt=attempt)
        self.tracer.views.append(view)
        # The unit payload makes the trace self-contained: replay can
        # reconstruct the exact fault descriptor from this event alone.
        if payload is not None:
            view.emit(EXPERIMENT_STARTED, unit=payload)
        else:
            view.emit(EXPERIMENT_STARTED)
        return view

    def done(self, view: StampedView, result) -> None:
        fields = result if isinstance(result, dict) else {}
        arena = fields.get("arena_sha256")
        view.emit(EXPERIMENT_FINISHED, status="done",
                  outcome=fields.get(OUTCOME_FIELD),
                  **({} if arena is None else {"arena_sha256": arena}))
        self.tracer.views.remove(view)

    def error(self, view: StampedView, error: str) -> None:
        view.emit(EXPERIMENT_FINISHED, status="error", error=error)
        self.tracer.views.remove(view)


def run_lease(runner, keys: list, payloads: list,
              capture: UnitCapture | None) -> tuple:
    """Execute one lease — the only place a runner is called.

    The runner gets every payload at once and must return an
    equal-length result list.  Returns ``(DONE, results)``, or
    ``(ERROR, message)`` when the runner raised or broke that contract:
    the lease fails as a whole and the parent retries each unit alone.
    With ``capture`` every unit is opened before the call and closed
    after it.  Anything that is not an ``Exception`` (an interrupt, an
    exit) is not a unit failure and propagates, leaving the units open
    in the shard exactly as a kill would.
    """
    views = [capture.start(key, payload)
             for key, payload in zip(keys, payloads)] \
        if capture is not None else ()
    try:
        results = runner(payloads)
        if not isinstance(results, list) or len(results) != len(payloads):
            raise RuntimeError(
                f"runner returned {results!r:.80} for {len(payloads)} units")
    except Exception as exc:  # noqa: BLE001 - the retry policy owns this
        error = f"{type(exc).__name__}: {exc}"
        for view in views:
            capture.error(view, error)
        return ERROR, error
    for view, result in zip(views, results):
        capture.done(view, result)
    return DONE, results


@contextmanager
def shard_recorder(trace_path, worker_id: int):
    """Flight recording for one worker (the in-process path is worker
    0): a streaming shard tracer at ``trace_path``, installed
    process-wide, yields the :class:`UnitCapture` that brackets each
    unit — or ``None`` when ``trace_path`` is ``None``.  The shard is
    closed and the previous tracer restored however the block ends, so a
    shard stays readable up to the last completed unit."""
    if trace_path is None:
        yield None
        return
    tracer = Tracer(stream=trace_path, meta={"worker": worker_id})
    previous = set_current_tracer(tracer)
    try:
        yield UnitCapture(tracer, worker_id)
    finally:
        set_current_tracer(previous)
        tracer.close()


def worker_main(worker_id: int, runner_factory, conn, trace_path=None) -> None:
    """Worker process entry point (see module docstring).

    ``conn`` is the worker's end of its pipe: leases ``(keys,
    payloads)`` come in, ``(tag, body)`` messages go out.  ``trace_path``,
    when given, turns on flight recording for the worker's lifetime.
    """
    with shard_recorder(trace_path, worker_id) as capture:
        try:
            runner = runner_factory()
        except BaseException as exc:  # noqa: BLE001 - report, never hang the parent
            conn.send((INIT_ERROR, f"{type(exc).__name__}: {exc}"))
            return
        try:
            conn.send((READY, None))
            for keys, payloads in iter(conn.recv, None):
                conn.send(run_lease(runner, keys, payloads, capture))
        except (EOFError, OSError):
            pass  # the parent is gone: nobody is left to report to
