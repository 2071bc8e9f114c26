"""Execution-backend interface: who runs the replicas, and how.

The paper's campaigns ran on 8 real TPU devices (Sec. 3.3); the
reproduction historically simulated all replicas inside one Python
process.  :class:`ExecutionBackend` makes that substrate pluggable: the
:class:`~repro.distributed.sync.SyncDataParallelTrainer` owns the
*algorithm* (hook dispatch, optimizer step, convergence recording,
outcome bookkeeping) and delegates the *execution* of the per-device
work — forward/backward on every replica, gradient reduction, weight
broadcast — to a backend:

* :class:`~repro.backend.inprocess.InProcessBackend` — the historical
  simulated loop, extracted verbatim (golden traces stay bit-identical);
* :class:`~repro.backend.multiprocess.MultiProcessBackend` — one OS
  process per replica over shared-memory state, reduced with the
  deterministic collectives in :mod:`repro.backend.collectives`.

Crossing a process boundary means closures cannot travel: a fault hook
armed on a parent-side replica module never fires in the child that
actually computes.  The backend therefore carries faults across the
boundary as *plans* — serializable :class:`DeviceFaultPlan` descriptors
exported by injector hooks (``export_device_fault``), executed on the
owning replica, and absorbed back (``absorb_device_fault``) so the
parent-side hook's ``fired``/``record`` state, trace emission, and
reports behave identically under every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nn.linear import Dropout
from repro.nn.module import Module
from repro.observe import profile_scope

#: Canonical backend names, in CLI order.
BACKEND_NAMES = ("inprocess", "multiprocess", "batched")

#: Hook applied to the in-flight reduced gradient buffer (the comm-fault
#: injection site); returns the possibly perturbed buffer.
CommFaultHook = Callable[[np.ndarray], np.ndarray]


class ReplicaLostError(RuntimeError):
    """A replica process died mid-collective; the trainer aborts cleanly
    and the run is classified as the ``ReplicaLost`` outcome."""

    def __init__(self, device: int, phase: str, detail: str = ""):
        self.device = int(device)
        self.phase = str(phase)
        msg = f"replica {device} lost during {phase}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class CollectiveTimeoutError(RuntimeError):
    """A collective exceeded its hard deadline even after straggler
    grace; raised to the caller (campaigns quarantine the experiment)."""


@dataclass(frozen=True)
class ReplicaChaos:
    """Runtime-fault injection for the backend itself.

    Extends the repo's fault-injection story from tensors to the
    execution substrate: ``kind="delay"`` makes one replica straggle
    (``seconds`` of sleep before it answers the step collective) and
    ``kind="kill"`` hard-kills the replica process mid-iteration, both
    at a chosen iteration.  Used by the robustness tests and available
    for chaos experiments.
    """

    device: int
    iteration: int
    kind: str = "delay"
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in ("delay", "kill"):
            raise ValueError(f"unknown chaos kind: {self.kind!r}")

    def applies(self, device: int, iteration: int) -> bool:
        return device == self.device and iteration == self.iteration


@dataclass(frozen=True)
class DeviceFaultPlan:
    """A serializable order to inject one fault on one replica.

    ``fault`` is a :class:`~repro.core.faults.hardware.HardwareFault`
    (plain dataclasses all the way down, so the plan crosses process
    boundaries by pickling); ``plan_id`` routes the execution result
    back to the exporting hook.
    """

    plan_id: int
    device: int
    fault: object
    config: object = None


def reseed_random_layers(model: Module, seed) -> None:
    """Reseed every stochastic layer (currently Dropout) in a model.

    Implements requirement (3) of the paper's recovery technique: random
    draws must be reproducible when an iteration is re-executed — and,
    for the multi-process backend, reproducible regardless of which
    process executes the iteration.
    """
    for index, module in model.instances_of(Dropout):
        module.reseed((seed, index))


def device_step(trainer, device: int, iteration: int) -> tuple[float, float]:
    """One device's share of a synchronous iteration: forward, loss,
    backward.  Gradients land in the replica's arena ``grad`` segment
    (or scattered ``param.grad`` arrays); returns ``(loss, acc)``.

    This is the unit of work both backends execute — in-process runs it
    for every device sequentially, multi-process runs it inside the
    replica's own OS process.  The body is the historical loop body of
    ``SyncDataParallelTrainer.run_iteration``, unchanged, so results are
    bit-identical across backends.
    """
    model = trainer.replicas[device]
    model.train()
    reseed_random_layers(model, (trainer.seed, iteration, device))
    x, y = trainer.loader.shard_batch_at(iteration, device, trainer.num_devices)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = model.forward(x)
        loss = trainer.losses[device].forward(out, y)
        if trainer.arenas is not None:
            trainer.arenas[device].grad.fill(0.0)
        else:
            model.zero_grad()
        model.backward(trainer.losses[device].backward())
    return float(loss), float(trainer.spec.metric(out, y))


def collect_device_fault_plans(trainer, iteration: int) \
        -> tuple[dict[int, list[DeviceFaultPlan]], dict[int, object]]:
    """Export pending device-fault plans from the trainer's hooks.

    Returns ``(plans_by_device, hook_by_plan_id)``: hooks implementing
    ``export_device_fault(iteration)`` contribute one plan each (or
    ``None``); results are absorbed back via
    :func:`absorb_device_fault_results`.
    """
    plans: dict[int, list[DeviceFaultPlan]] = {}
    exporters: dict[int, object] = {}
    plan_id = 0
    for hook in trainer.hooks:
        export = getattr(hook, "export_device_fault", None)
        if export is None:
            continue
        fault = export(iteration)
        if fault is None:
            continue
        plan = DeviceFaultPlan(plan_id=plan_id, device=fault[0],
                               fault=fault[1], config=fault[2])
        plans.setdefault(plan.device, []).append(plan)
        exporters[plan_id] = hook
        plan_id += 1
    return plans, exporters


def absorb_device_fault_results(exporters: dict[int, object],
                                results: list[tuple[int, bool, object]]) -> None:
    """Route child-side fault execution results back to their hooks."""
    for plan_id, fired, record in results:
        hook = exporters.get(plan_id)
        if hook is not None:
            hook.absorb_device_fault(fired, record)


class ExecutionBackend:
    """The contract between the trainer and its execution substrate.

    Lifecycle: the trainer calls :meth:`bind` once at construction;
    :meth:`step` / :meth:`broadcast` every iteration; :meth:`close` when
    the trainer is done (idempotent).  Backends read trainer state
    (replicas, arenas, loader, losses, seed, tracer) but never dispatch
    trainer hooks — hook order is the trainer's responsibility.
    """

    #: CLI name of the backend.
    name = "?"

    def __init__(self):
        self.trainer = None
        self._comm_fault_hook: CommFaultHook | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, trainer) -> None:
        """Attach to a trainer.  A backend serves exactly one trainer."""
        if self.trainer is not None and self.trainer is not trainer:
            raise RuntimeError(
                f"backend {self.name!r} is already bound to another trainer")
        self.trainer = trainer

    def close(self) -> None:
        """Release backend resources (processes, shared memory) and the
        trainer back-reference: a closed trainer and everything it holds
        (models, arenas) is then freed by refcount instead of waiting,
        tens of MB per experiment, for a cycle collection."""
        self.trainer = None

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The per-iteration contract
    # ------------------------------------------------------------------
    def step(self, iteration: int) -> tuple[float, float]:
        """Run every device's forward/backward and reduce gradients into
        the master replica; returns shard-averaged ``(loss, acc)``."""
        raise NotImplementedError

    def broadcast(self) -> None:
        """Copy master parameters into every other replica."""
        raise NotImplementedError

    def step_devices(self, iteration: int) -> tuple[float, float]:
        """Run :func:`device_step` for every device in this process, in
        device order; returns shard-averaged ``(loss, acc)``."""
        trainer = self.trainer
        total_loss = 0.0
        total_acc = 0.0
        for device in range(trainer.num_devices):
            loss, acc = device_step(trainer, device, iteration)
            total_loss += loss
            total_acc += acc
        return total_loss / trainer.num_devices, total_acc / trainer.num_devices

    def reduce_fused(self) -> None:
        """The central-server reduction over fused arenas: sum every
        device's gradient buffer into the scratch ``self._grad_accum``
        (an arena-sized buffer the subclass allocates in ``bind``) in
        device order, average into the master's gradient buffer with one
        axpy, then apply the comm-fault site to the reduced buffer."""
        trainer = self.trainer
        accum = self._grad_accum
        accum.fill(0.0)
        inv = 1.0 / trainer.num_devices
        with np.errstate(over="ignore", invalid="ignore"):
            for arena in trainer.arenas:
                accum += arena.grad
            with profile_scope("sync.grad_average"):
                np.multiply(accum, inv, out=trainer.master_arena.grad)
                self._apply_comm_fault(trainer.master_arena.grad)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def set_comm_fault_hook(self, hook: CommFaultHook | None) -> None:
        """Arm/disarm the link-fault site: ``hook`` perturbs the reduced
        gradient buffer after averaging, before the optimizer sees it.
        Both backends apply it at the same mathematical point, so comm
        faults propagate identically under either."""
        self._comm_fault_hook = hook

    def _apply_comm_fault(self, reduced: np.ndarray) -> None:
        """Apply the armed comm-fault hook (if any) to ``reduced`` in
        place.  Shared by both backends' reduction paths."""
        if self._comm_fault_hook is None:
            return
        faulty = self._comm_fault_hook(reduced)
        if faulty is not reduced:
            np.copyto(reduced, faulty)

    # ------------------------------------------------------------------
    # State-restore notification
    # ------------------------------------------------------------------
    def on_state_restored(self) -> None:
        """Called after an external restore of trainer state (recovery
        rewind, checkpoint load) so the backend can resynchronize any
        state living outside the parent process.  In-process: no-op."""


def build_backend(backend, trainer) -> ExecutionBackend:
    """Resolve a backend argument (name or instance) and bind it.

    ``backend`` may be a name from :data:`BACKEND_NAMES` or an already
    constructed :class:`ExecutionBackend` (the way to pass options such
    as collective timeouts or chaos plans).
    """
    from repro.backend.batched import BatchedBackend
    from repro.backend.inprocess import InProcessBackend
    from repro.backend.multiprocess import MultiProcessBackend

    if isinstance(backend, ExecutionBackend):
        backend.bind(trainer)
        return backend
    if backend == "inprocess":
        built = InProcessBackend()
    elif backend == "multiprocess":
        built = MultiProcessBackend()
    elif backend == "batched":
        built = BatchedBackend()
    else:
        raise ValueError(
            f"unknown execution backend {backend!r}; known: "
            f"{', '.join(BACKEND_NAMES)}")
    built.bind(trainer)
    return built
