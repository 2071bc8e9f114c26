"""Synchronous data-parallel training over simulated devices.

Models the distributed setting of the paper's experiments (Sec. 2 and
Sec. 3.3): every device holds a replica of the model, computes gradients
on its shard of the mini-batch, gradients are averaged by a central
server, the averaged update is applied, and the weights are broadcast
back.  Key fidelity points:

* **BatchNorm moving statistics are per-device** — they are never
  averaged, so a fault that corrupts one device's mvar stays local, which
  is why LowTestAccuracy manifests on the faulty device (Sec. 4.3.3).
* **Gradients are averaged across devices** — a faulty gradient
  contribution is diluted by ``1/num_devices``, the opposing factor the
  paper discusses for SlowDegrade sensitivity to device count.
* Faults are injected into exactly one device's replica.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import build_backend
from repro.backend.base import reseed_random_layers  # noqa: F401  (re-export)
from repro.data.loader import BatchLoader
from repro.nn.module import Module
from repro.nn.normalization import max_moving_variance
from repro.observe import DIVERGENCE, ITERATION_STATS, NULL_TRACER
from repro.optim.base import Optimizer
from repro.state import build_arenas
from repro.training.metrics import ConvergenceRecord
from repro.workloads.base import WorkloadSpec


class SyncDataParallelTrainer:
    """Synchronous data-parallel trainer with per-iteration hook points.

    Hooks are objects implementing any subset of::

        before_iteration(trainer, iteration)
        after_backward(trainer, iteration)   # grads averaged, pre-update
        after_step(trainer, iteration)       # post-update, pre-record
        after_iteration(trainer, iteration, loss, acc)

    The fault injector, the hardware-failure detector, and the recovery
    manager all attach through this interface.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        num_devices: int = 8,
        seed: int = 0,
        test_every: int = 25,
        eval_device: int = 0,
        stop_on_nonfinite: bool = True,
        hooks: list | None = None,
        tracer=None,
        backend="inprocess",
    ):
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1: {num_devices}")
        self.spec = spec
        self.num_devices = int(num_devices)
        self.seed = int(seed)
        self.test_every = int(test_every)
        self.eval_device = int(eval_device)
        self.stop_on_nonfinite = bool(stop_on_nonfinite)
        self.hooks = list(hooks) if hooks else []
        #: Shared event sink for the trainer and every attached hook
        #: (injector, detector, recovery); defaults to the disabled
        #: :data:`~repro.observe.NULL_TRACER`, whose emit is a no-op.
        self.tracer = tracer if tracer is not None else NULL_TRACER

        # Identical replicas: same model seed on every device.
        self.replicas: list[Module] = [spec.build_model(seed) for _ in range(num_devices)]
        self.master = self.replicas[0]
        # Fused state layer: each replica's parameters/gradients are laid
        # out in one contiguous arena, enabling whole-buffer gradient
        # averaging, broadcast, and snapshotting.  A model that cannot be
        # laid out (e.g. tied weights) raises ``ArenaLayoutError`` here.
        self.arenas = build_arenas(self.replicas)
        self.master_arena = self.arenas[0]
        self.optimizer: Optimizer = spec.build_optimizer(list(self.master.parameters()))
        self.optimizer.bind_arena(self.master_arena)
        self.losses = [spec.loss_fn() for _ in range(num_devices)]
        self.loader = BatchLoader(spec.train_data, spec.batch_size, base_seed=seed)
        self.record = ConvergenceRecord()
        self.iteration = 0
        self._just_recovered = False
        #: The execution substrate (see :mod:`repro.backend`): device
        #: stepping, gradient reduction, and weight broadcast happen
        #: there; hook dispatch and the optimizer step stay here.
        self.backend = build_backend(backend, self)

    # ------------------------------------------------------------------
    # Hook dispatch
    # ------------------------------------------------------------------
    def add_hook(self, hook) -> None:
        self.hooks.append(hook)

    def reset_run(self, eval_device: int = 0, tracer=None) -> None:
        """Start a new run on this trainer: no hooks, an empty record,
        ``eval_device`` and ``tracer`` (``None``: untraced) — everything a
        run keeps that :meth:`Checkpoint.restore
        <repro.training.checkpoints.Checkpoint.restore>`, which the caller
        does next, does not put back."""
        self.eval_device = int(eval_device)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.hooks = []
        self.record = ConvergenceRecord()
        self._just_recovered = False
        self.backend.given = {}

    def _dispatch(self, event: str, *args) -> None:
        for hook in self.hooks:
            fn = getattr(hook, event, None)
            if fn is not None:
                fn(self, *args)

    # ------------------------------------------------------------------
    # Core iteration
    # ------------------------------------------------------------------
    def run_iteration(self, iteration: int) -> tuple[float, float]:
        """Run one synchronous training iteration; returns (loss, acc).

        The returned loss/accuracy are averaged over device shards, as a
        central parameter server would observe them.  Device stepping
        and gradient reduction are delegated to the execution backend;
        hook dispatch and the optimizer step happen here, so the hook
        contract is identical under every backend.
        """
        self._dispatch("before_iteration", iteration)
        loss, acc = self.backend.step(iteration)
        self.apply_update(iteration)
        return loss, acc

    def apply_update(self, iteration: int) -> None:
        """The post-reduction half of an iteration: ``after_backward``
        hooks, optimizer step, ``after_step`` hooks, weight broadcast."""
        self._dispatch("after_backward", iteration)
        self.optimizer.step()
        self._dispatch("after_step", iteration)
        self.backend.broadcast()

    def evaluate(self, device: int | None = None) -> float:
        """Test metric on the chosen device's replica (eval mode).

        Eval mode makes BatchNorm use its *moving* statistics — the path
        through which a faulty mvar degrades test accuracy while training
        accuracy (batch statistics) looks normal (LowTestAccuracy).

        The ``eval_device`` score of a trainer whose lanes step through a
        program replica is computed there
        (:meth:`~repro.backend.batched.LaneGroup.evaluate_many`, the same
        bytes by DESIGN.md decision 16), so whichever device a campaign
        evaluates, the eval caches are the program replica's one set.
        """
        group = getattr(self.backend, "group", None)
        if (device is None or device == self.eval_device) \
                and group is not None and group.vectorized:
            return group.evaluate_many([self])[0]
        return self._evaluate_replica(self.eval_device if device is None
                                      else device)

    def _evaluate_replica(self, device: int) -> float:
        """:meth:`evaluate` on ``device``'s own replica instance."""
        model = self.replicas[device]
        model.eval()
        inputs, batch = self.spec.test_data.inputs, self.spec.batch_size
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            outputs = [model.forward(inputs[start:start + batch])
                       for start in range(0, len(inputs), batch)]
        model.train()
        return self.spec.test_score(outputs)

    # ------------------------------------------------------------------
    # Condition probes (the quantities the detector bounds)
    # ------------------------------------------------------------------
    def history_magnitude(self) -> float:
        """Largest |optimizer gradient-history| value right now."""
        return self.optimizer.history_magnitude()

    def mvar_magnitude(self) -> float:
        """Largest |BatchNorm moving statistic| across all devices."""
        if not self.spec.has_batchnorm:
            return 0.0
        return max(max_moving_variance(replica) for replica in self.replicas)

    @property
    def halted(self) -> bool:
        """Whether a non-finite state has ended training
        (``stop_on_nonfinite``): such a run must not be trained on."""
        return self.stop_on_nonfinite and self.record.nonfinite_at is not None

    def signal_recovered(self) -> None:
        """Called by a recovery hook after it rewinds training state: the
        just-recorded iteration has been rolled back, so the training loop
        must not act on its (possibly non-finite) loss."""
        self._just_recovered = True

    def _state_is_finite(self, loss: float) -> bool:
        return bool(np.isfinite(loss)
                    and np.isfinite(self.master_arena.param).all())

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def record_iteration(self, t: int, loss: float, acc: float) -> bool:
        """First half of the per-iteration tail: condition probes, train
        record, ``ITERATION_STATS`` event.  Returns whether a test
        evaluation is due, whose score goes to :meth:`finish_iteration`
        (the caller evaluates, so lockstep drivers can batch it)."""
        self._log_iteration(t, loss, acc, self.history_magnitude(),
                            self.mvar_magnitude())
        return self.test_due(t)

    def test_due(self, t: int) -> bool:
        """Whether iteration ``t`` ends with a test evaluation."""
        return bool(self.test_every) and (t + 1) % self.test_every == 0

    def _log_iteration(self, t: int, loss: float, acc: float,
                       hist: float, mvar: float) -> None:
        self.record.record_train(t, loss, acc, hist, mvar)
        if self.tracer.enabled:  # skip argument marshalling when off
            self.tracer.emit(ITERATION_STATS, iteration=t,
                             loss=float(loss), acc=float(acc),
                             history_magnitude=hist, mvar_magnitude=mvar)

    def adopt_iterations(self, source: ConvergenceRecord, start: int,
                         stop: int, test_score) -> None:
        """Take iterations ``[start, stop)`` from ``source`` instead of
        training them: the caller has shown that this trainer's run and
        the run ``source`` recorded are in the same training state over
        that span (golden-run reuse, DESIGN.md decision 9).  Record and
        tracer receive what :meth:`record_iteration` and
        :meth:`finish_iteration` would have given them; ``test_score(t)``
        supplies this trainer's ``eval_device`` score at a test point,
        which ``source`` (evaluated on its own device) cannot.  No hook
        runs, so a hook that keeps memory of past iterations rules this
        out; the counter ends at ``stop``."""
        row = source.iterations.index(start) if start < stop else 0
        for t in range(start, stop):
            self._log_iteration(
                t, source.train_loss[row], source.train_acc[row],
                source.history_magnitude[row], source.mvar_magnitude[row])
            if self.test_due(t):
                self.record.record_test(t, test_score(t))
            row += 1
        self.iteration = stop

    def finish_iteration(self, t: int, loss: float, acc: float,
                         test_score: float | None = None) -> bool:
        """Second half of the tail: test record, ``after_iteration``
        hooks, counter advance, recovered / non-finite bookkeeping.
        Returns ``False`` when training must stop (non-finite state with
        ``stop_on_nonfinite``)."""
        if test_score is not None:
            self.record.record_test(t, test_score)
        self._dispatch("after_iteration", t, loss, acc)
        self.iteration += 1
        if self._just_recovered:
            self._just_recovered = False
            return True
        if not self._state_is_finite(loss):
            self.record.mark_nonfinite(t)
            self.tracer.emit(DIVERGENCE, iteration=t, loss=float(loss))
            return not self.stop_on_nonfinite
        return True

    def train(self, iterations: int | None = None) -> ConvergenceRecord:
        """Train for ``iterations`` (default: the spec's budget).

        Stops early (recording the iteration) if the loss or any weight
        becomes non-finite and ``stop_on_nonfinite`` is set, mirroring the
        paper's protocol of training "until an error message (e.g., one
        that reports the occurrence of INFs/NaNs) is encountered".
        """
        budget = self.spec.iterations if iterations is None else int(iterations)
        end = self.iteration + budget
        while self.iteration < end:
            t = self.iteration
            loss, acc = self.run_iteration(t)
            score = self.evaluate() if self.record_iteration(t, loss, acc) else None
            if not self.finish_iteration(t, loss, acc, score):
                break
        return self.record

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the execution backend.  The trainer state remains
        readable afterwards."""
        self.backend.close()

    def __enter__(self) -> "SyncDataParallelTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
