"""Execution-backend interface: who runs the replicas, and how.

The paper's campaigns ran on 8 real TPU devices (Sec. 3.3); the
reproduction simulates all replicas inside one Python process.  The
:class:`~repro.distributed.sync.SyncDataParallelTrainer` owns the
*algorithm* (hook dispatch, optimizer step, convergence recording,
outcome bookkeeping) and delegates the *execution* of the per-device
work — forward/backward on every replica, gradient reduction, weight
broadcast — to an :class:`ExecutionBackend`.  There is one device-step
program, :class:`~repro.backend.inprocess.InProcessBackend`: D lanes of
one program replica when the model allows it, the sequential
:func:`device_step` loop (the reference) otherwise;
:class:`~repro.backend.batched.BatchedBackend` is the same class sharing
its lanes with other trainers, so E experiments x D devices step together.

A fault hook is a plain closure armed on a replica module (the lane
program hands each lane's hook that lane's slice), and every step
reduces through :meth:`ExecutionBackend.reduce_fused`, which is also
where the comm-fault site lives.  Process death is not a backend
concern: the campaign engine's forked worker pool (timeout / retry /
quarantine) owns it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.nn.linear import Dropout
from repro.nn.module import Module, input_grad_dropped

#: Canonical backend names, in CLI order.
BACKEND_NAMES = ("inprocess", "batched")

#: Hook applied to the in-flight reduced gradient buffer (the comm-fault
#: injection site); returns the possibly perturbed buffer.
CommFaultHook = Callable[[np.ndarray], np.ndarray]


def reseed_random_layers(model: Module, seed) -> None:
    """Reseed every stochastic layer (currently Dropout) in a model.

    Implements requirement (3) of the paper's recovery technique: random
    draws must be reproducible when an iteration is re-executed.
    """
    for index, module in model.instances_of(Dropout):
        module.reseed((seed, index))


class DeviceShare(NamedTuple):
    """One device's share of a reference run's iteration, kept so that an
    experiment in the same state need not compute it again (DESIGN.md
    decision 9): what the device step leaves behind for the reduction."""

    #: The device's gradient row after its step, before the reduction.
    grad: np.ndarray
    #: Its replica's extra state after the forward (BatchNorm moving
    #: statistics), as ``Checkpoint.extra[device]`` holds it.
    extra: list
    loss: float
    acc: float


def device_step(trainer, device: int, iteration: int) -> tuple[float, float]:
    """One device's share of a synchronous iteration: forward, loss,
    backward.  Gradients land in the replica's arena ``grad`` segment;
    returns ``(loss, acc)``.  The model's input gradient is discarded, so
    its first layer computes none unless an ``input_grad`` hook is armed
    there.

    This is the unit of work :meth:`ExecutionBackend.step_devices` runs
    for every device sequentially: the solo loop, which models the lane
    program cannot take fall back to and which the lane program is tested
    against.
    """
    model = trainer.replicas[device]
    model.train()
    reseed_random_layers(model, (trainer.seed, iteration, device))
    x, y = trainer.loader.shard_batch_at(iteration, device, trainer.num_devices)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = model.forward(x)
        loss = trainer.losses[device].forward(out, y)
        trainer.arenas[device].grad.fill(0.0)
        with input_grad_dropped(model, [model]):
            model.backward(trainer.losses[device].backward())
    return float(loss), float(trainer.spec.metric(out, y))


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
        #: device -> :class:`DeviceShare` the next step takes instead of
        #: stepping that device (its gradient row, extra state and
        #: ``(loss, acc)`` are put in place as they are); the step that
        #: takes them clears it.
        self.given: dict[int, DeviceShare] = {}
        #: When a list, every step appends its devices' shares (``extra``
        #: ``None``), in device order, before reducing them.
        self.kept: list | None = None

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
        """Release backend resources and the trainer back-reference: a
        closed trainer and everything it holds (models, arenas) is then
        freed by refcount instead of waiting, tens of MB per experiment,
        for a cycle collection."""
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

    def forward_caches(self, device: int):
        """``(model, index)``: the model instance whose layer caches
        (``_x`` / ``_col`` / ``_out``) and parameters are those of
        ``device``'s last forward, and the index of the device's slice
        in each (``...``: all of it) — or ``None`` when nothing kept
        them.  Integrity checkers (ABFT) read operands through this."""
        return self.trainer.replicas[device], ...

    def stepped_devices(self) -> list[int]:
        """The devices the next step computes: those not :attr:`given`."""
        return [d for d in range(self.trainer.num_devices)
                if d not in self.given]

    def step_devices(self, iteration: int) -> tuple[float, float]:
        """Run :func:`device_step` for every device the step computes, in
        device order, then :meth:`settle` the step."""
        results = {device: device_step(self.trainer, device, iteration)
                   for device in self.stepped_devices()}
        return self.settle(results)

    def settle(self, results: dict[int, tuple[float, float]]
               ) -> tuple[float, float]:
        """The end of every step, once ``results`` (device -> ``(loss,
        acc)``) holds each computed device's: put each :attr:`given`
        share in place, keep the shares when :attr:`kept` asks,
        :meth:`reduce_fused`, and return the shard-averaged ``(loss,
        acc)``, summed in device order."""
        trainer = self.trainer
        given, self.given = self.given, {}
        for device, share in given.items():
            np.copyto(trainer.arenas[device].grad, share.grad)
            trainer.arenas[device].load_extra(share.extra)
            results[device] = (share.loss, share.acc)
        total_loss = 0.0
        total_acc = 0.0
        for device in range(trainer.num_devices):
            loss, acc = results[device]
            total_loss += loss
            total_acc += acc
        if self.kept is not None:
            self.kept.append([
                DeviceShare(arena.grad.copy(), None, *results[device])
                for device, arena in enumerate(trainer.arenas)])
        self.reduce_fused()
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
            np.multiply(accum, inv, out=trainer.master_arena.grad)
            self._apply_comm_fault(trainer.master_arena.grad)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def set_comm_fault_hook(self, hook: CommFaultHook | None) -> None:
        """Arm/disarm the link-fault site: ``hook`` perturbs the reduced
        gradient buffer after averaging, before the optimizer sees it.
        Lane step and solo loop reduce through the same
        :meth:`reduce_fused`, so comm faults propagate identically."""
        self._comm_fault_hook = hook

    def _apply_comm_fault(self, reduced: np.ndarray) -> None:
        """Apply the armed comm-fault hook (if any) to ``reduced`` in
        place."""
        if self._comm_fault_hook is None:
            return
        faulty = self._comm_fault_hook(reduced)
        if faulty is not reduced:
            np.copyto(reduced, faulty)


def build_backend(backend, trainer) -> ExecutionBackend:
    """Resolve a backend argument (name or instance) and bind it.

    ``backend`` may be a name from :data:`BACKEND_NAMES` or an already
    constructed :class:`ExecutionBackend`.
    """
    from repro.backend.batched import BatchedBackend
    from repro.backend.inprocess import InProcessBackend

    if not isinstance(backend, ExecutionBackend):
        classes = {cls.name: cls for cls in (InProcessBackend, BatchedBackend)}
        if backend not in classes:
            raise ValueError(
                f"unknown execution backend {backend!r}; known: "
                f"{', '.join(BACKEND_NAMES)}")
        backend = classes[backend]()
    backend.bind(trainer)
    return backend
