"""The lane program: E experiments x D devices stepped as one replica.

One lane is one (experiment, device) replica.  The lanes' parameters and
gradients are the rows of :class:`~repro.state.ExperimentStacks`, and one
extra, ordinary model instance — the *program replica* — runs their
forward / backward with a leading lane axis on every tensor.  Every
arena trainer has a :class:`LaneGroup`: a private one (E = 1, the
default backend, its D devices the lanes) or, for campaigns with
``experiment_batch=E``, one shared by E trainers through
:class:`BatchedBackend` and driven by :func:`run_lockstep`.

Lane contract (the layer side is in :mod:`repro.nn.module`).  Per block
of at most :attr:`LaneGroup.lane_chunk` lanes, :class:`LaneGroup` — and
nothing else — points the program replica at L lanes:

* ``Module.lanes = (L,)`` on every program module; inputs and gradients
  are ``(L, n, ...)`` stacks of the lanes' shard batches;
* every parameter's ``data`` / ``grad`` is an ``(L,) + shape`` view of the
  block's gathered parameter rows / a zeroed gradient block that is
  written back to the lanes' ``ExperimentStacks.grad`` rows (the storage
  behind each lane replica's ``param.grad``);
* ``extra_state()`` (BatchNorm moving statistics — per device, never
  averaged) is stacked from the lane replicas before the forward pass
  and handed back through ``load_extra_state`` after it;
* the three fault-hook slots of every program module hold a dispatcher
  that hands each lane replica's armed hook that lane's slice, with the
  plain call's site info and ``info["module"]`` the lane's own module —
  one program, L differently-injected replicas.

Bit-identity contract: every experiment produces exactly the traces it
produces on the solo :func:`~repro.backend.base.device_step` loop, alone
or in a batch.  Three design rules deliver that:

* there is one kernel set: the program replica runs the same ``nn``
  ``forward`` / ``backward`` statements as a plain replica, written so
  that slice ``l`` of every lane tensor equals the plain call on lane
  ``l`` (pinned per layer by ``tests/test_lane_native.py``);
* the per-experiment phases that are cheap and stateful stay on the solo
  code path operating on that experiment's arena row views: loss
  objects, metrics, gradient averaging (``reduce_fused`` per
  experiment), comm-fault hooks, ``optimizer.step()``, evaluation of a
  lone trainer, checkpoint capture/rollback;
* a model containing any module type that has not declared itself
  lane-native (attention, recurrent, pooling, dropout, ...), and any
  non-FP32 compute precision, takes the solo loop instead.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from repro.backend.inprocess import InProcessBackend
from repro.nn import config
from repro.nn.config import Precision
from repro.nn.module import HOOK_KINDS, input_grad_dropped
from repro.state import ExperimentStacks


class LaneProgram:
    """The program replica plus the binding half of the lane contract.

    ``model`` is an ordinary, freshly built instance of the workload's
    model; ``index`` is the arena's ``name -> (offset, size, shape)``
    layout its parameters are addressed by inside a parameter row.
    """

    def __init__(self, model, index: dict):
        self.model = model
        self._modules = list(model.named_modules())
        self._stateful = [(path, module) for path, module in self._modules
                          if module.extra_state()]
        self._params = [(index[name], param)
                        for name, param in model.named_parameters()]
        #: Per-lane ``dict(named_modules())`` of the bound lane replicas.
        self._lane_modules: list[dict] = []
        for path, module in self._modules:
            hook = self._lane_hook(path)
            for kind in HOOK_KINDS:
                module.set_fault_hook(kind, hook)

    def _lane_hook(self, path: str):
        """Masked injection: the hook held by every slot of the program
        module at ``path`` applies each lane replica's armed hook (if
        any) to that lane's slice only.  The repo's software fault
        models return fresh float32 arrays of the input shape, so
        writing the result back into the slice is exact."""
        lane_modules = self._lane_modules  # not self: no program<->hook cycle

        def hook(stacked: np.ndarray, info: dict) -> np.ndarray:
            kind = info["kind"]
            for lane, modules in enumerate(lane_modules):
                peer = modules[path]
                if peer._fault_hooks[kind] is None:
                    continue
                site = {key: value for key, value in info.items()
                        if key not in ("module", "kind")}
                tensor = stacked[lane]
                out = peer.apply_fault_hook(kind, tensor, **site)
                if out is not tensor:
                    stacked[lane] = out
            return stacked
        return hook

    def bind(self, lane_modules: list[dict], params: np.ndarray,
             training: bool) -> np.ndarray:
        """Point the program replica at L lanes: ``lane_modules`` is each
        lane replica's ``dict(named_modules())`` and ``params`` the
        lanes' ``(L, total)`` parameter rows.  Returns the zeroed ``(L,
        total)`` gradient block the ``param.grad`` views accumulate
        into."""
        lanes = (len(lane_modules),)
        self._lane_modules[:] = lane_modules
        grads = np.zeros_like(params)
        for entry, param in self._params:
            span = slice(entry.offset, entry.offset + entry.size)
            param.data = params[:, span].reshape(lanes + entry.shape)
            param.grad = grads[:, span].reshape(lanes + entry.shape)
        for _path, module in self._modules:
            module.lanes = lanes
            module.training = training
        for path, module in self._stateful:
            state = [modules[path].extra_state() for modules in lane_modules]
            module.load_extra_state({
                key: np.stack([lane_state[key] for lane_state in state])
                for key in state[0]})
        return grads

    def hand_back_extra_state(self) -> None:
        """Give every bound lane replica its slice of the program
        replica's extra state (the moving statistics a training forward
        updated)."""
        for path, module in self._stateful:
            state = module.extra_state()
            for lane, modules in enumerate(self._lane_modules):
                modules[path].load_extra_state(
                    {key: value[lane] for key, value in state.items()})


#: One adopted experiment: its trainer, its stack rows (one per device)
#: and each device replica's ``dict(named_modules())``.
_Member = namedtuple("_Member", "trainer rows modules")


class LaneGroup:
    """E experiments' lanes stepped together through one program replica.

    Owns the :class:`~repro.state.ExperimentStacks` and the
    :class:`LaneProgram` (built once, from the first adopted trainer's
    spec; all members share one workload layout, which adoption enforces
    via the arena index).
    """

    #: Max lanes per kernel sweep: one compute round walks its
    #: experiments in chunks of this many lanes.  8 lanes already amortize
    #: NumPy's dispatch overhead; measured at E = 32, 16 / 32 lanes buy
    #: 2 / 3 % for 12 / 37 % more memory (``BENCH_backend_scaling.json``).
    #: Chunking is invisible numerically: lanes never mix arithmetic.
    lane_chunk = 8

    def __init__(self, capacity: int = 1):
        self.stacks = ExperimentStacks(capacity)
        self._members: dict[int, _Member] = {}
        #: ``None`` when the model is not lane-native (every round then
        #: takes the per-lane fallback).
        self._program: LaneProgram | None = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def adopt(self, trainer) -> _Member:
        first = self.stacks.param is None
        exp = self.stacks.adopt(trainer.arenas, trainer.optimizer)
        member = _Member(
            trainer=trainer,
            rows=[self.stacks.row(exp, d) for d in range(trainer.num_devices)],
            modules=[dict(r.named_modules()) for r in trainer.replicas],
        )
        self._members[id(trainer)] = member
        if first and trainer.master.is_lane_native():
            self._program = LaneProgram(trainer.spec.build_model(trainer.seed),
                                        trainer.master_arena.index)
        return member

    @property
    def vectorized(self) -> bool:
        """Whether rounds run through the program replica (re-checked
        against the live compute precision every round)."""
        return (self._program is not None
                and config.get_compute_precision() is Precision.FP32)

    # ------------------------------------------------------------------
    # Training rounds
    # ------------------------------------------------------------------
    def compute(self, entries: list[tuple]) -> list[tuple[float, float]]:
        """Run one (forward, loss, backward, reduce) round for every
        ``(trainer, iteration)`` entry; returns per-entry shard-averaged
        ``(loss, acc)``, in blocks of at most :attr:`lane_chunk` lanes."""
        if not self.vectorized:  # each backend then steps its solo loop
            return [trainer.backend.step(iteration)
                    for trainer, iteration in entries]
        results: list[tuple[float, float]] = []
        block: list[tuple] = []
        lanes = 0
        for entry in entries:
            devices = len(entry[0].backend.stepped_devices())
            if block and lanes + devices > self.lane_chunk:
                results.extend(self.compute_block(block))
                block, lanes = [], 0
            block.append(entry)
            lanes += devices
        if block:
            results.extend(self.compute_block(block))
        return results

    def compute_block(self, entries: list[tuple]) -> list[tuple[float, float]]:
        """One lane step — forward, loss, backward, per-experiment
        reduction — for the entries' lanes as a single block (also the
        whole device step of a lone trainer's backend).  An entry's lanes
        are the devices its backend computes (not ``given``); the
        backend's ``settle`` ends each entry's step."""
        lane_modules: list[dict] = []
        rows: list[int] = []
        losses: list = []
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        stepped = []
        for trainer, iteration in entries:
            member = self._members[id(trainer)]
            devices = trainer.backend.stepped_devices()
            stepped.append(devices)
            for d in devices:
                lane_modules.append(member.modules[d])
                rows.append(member.rows[d])
                losses.append(trainer.losses[d])
                x, y = trainer.loader.shard_batch_at(
                    iteration, d, trainer.num_devices)
                xs.append(x)
                ys.append(y)
        if lane_modules:
            out, lane_losses = self._step_lanes(lane_modules, rows, losses, xs, ys)
        # Metrics outside the errstate scope, mirroring device_step.
        results = []
        lane = 0
        for (trainer, _iteration), devices in zip(entries, stepped):
            computed = {}
            for d in devices:
                computed[d] = (float(lane_losses[lane]),
                               float(trainer.spec.metric(out[lane], ys[lane])))
                lane += 1
            results.append(trainer.backend.settle(computed))
        return results

    def _step_lanes(self, lane_modules: list[dict], rows: list[int],
                    losses: list, xs: list, ys: list) -> tuple:
        """Forward, loss and backward of the bound lanes; their gradient
        rows and extra state go back to the lanes.  Returns the stacked
        output and the per-lane losses."""
        program = self._program
        grads = program.bind(lane_modules, self.stacks.param[rows], training=True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = program.model.forward(np.stack(xs))
            lane_losses = [loss.forward(out[lane], ys[lane])
                           for lane, loss in enumerate(losses)]
            with input_grad_dropped(program.model,
                                    [modules[""] for modules in lane_modules]):
                program.model.backward(
                    np.stack([loss.backward() for loss in losses]))
        self.stacks.grad[rows] = grads
        program.hand_back_extra_state()
        return out, lane_losses

    def forward_caches(self, trainer, device: int):
        """``(program model, lane)`` while the program replica still holds
        ``device``'s lane from its last block, else ``None`` (its caches
        cover one block: in a batch of several, only the last)."""
        modules = self._members[id(trainer)].modules[device]
        for lane, bound in enumerate(self._program._lane_modules):
            if bound is modules:
                return self._program.model, lane
        return None

    # ------------------------------------------------------------------
    # Evaluation rounds
    # ------------------------------------------------------------------
    def evaluate_many(self, trainers: list) -> list[float]:
        """Lane form of ``SyncDataParallelTrainer.evaluate`` for the
        trainers' eval-device lanes: the same chunks, one stacked forward
        per chunk, scored by each trainer's ``spec.test_score``."""
        if not self.vectorized:
            return [trainer.evaluate() for trainer in trainers]
        batch = trainers[0].spec.batch_size
        n = len(trainers[0].spec.test_data)
        if any(t.spec.batch_size != batch or len(t.spec.test_data) != n
               for t in trainers):
            return [trainer.evaluate() for trainer in trainers]
        if len(trainers) > self.lane_chunk:
            scores: list[float] = []
            for start in range(0, len(trainers), self.lane_chunk):
                scores.extend(self.evaluate_many(
                    trainers[start:start + self.lane_chunk]))
            return scores
        members = [self._members[id(trainer)] for trainer in trainers]
        rows = [m.rows[t.eval_device] for m, t in zip(members, trainers)]
        self._program.bind(
            [m.modules[t.eval_device] for m, t in zip(members, trainers)],
            self.stacks.param[rows], training=False)
        outputs = []
        for start in range(0, n, batch):
            x_stack = np.stack([
                t.spec.test_data.inputs[start:start + batch] for t in trainers])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                outputs.append(self._program.model.forward(x_stack))
        return [trainer.spec.test_score([out[lane] for out in outputs])
                for lane, trainer in enumerate(trainers)]


class BatchedBackend(InProcessBackend):
    """``--backend batched``: the in-process backend, except that its
    :class:`LaneGroup` may be one shared with other trainers, whose lanes
    then step together under :func:`run_lockstep`.  Constructed bare it
    is the default backend under another name."""

    name = "batched"

    def __init__(self, group: LaneGroup | None = None):
        super().__init__()
        self.group = group


class _LockstepRun:
    __slots__ = ("trainer", "end", "t", "loss", "acc", "test_due")

    def __init__(self, trainer, end: int):
        self.trainer = trainer
        self.end = end
        self.t = 0
        self.loss = 0.0
        self.acc = 0.0
        self.test_due = False


def run_lockstep(group: LaneGroup, trainers: list, budgets: list[int]) -> list:
    """Drive E trainers through ``budgets`` iterations in lockstep.

    Per experiment this is ``SyncDataParallelTrainer.train``: the same
    trainer methods (``apply_update``, ``record_iteration``,
    ``finish_iteration``) run in the same order, with the device work
    and the test evaluations of all experiments batched through the
    group in between — so hooks (fault injectors, detectors, recovery)
    behave identically to a solo run.  Across experiments, iterations
    advance together; an experiment whose recovery hook rewinds its
    iteration counter simply trails its batch-mates (batch shards and
    reseeding are pure functions of the iteration, so divergent counters
    are exact), and experiments leave the round set when they diverge
    non-finite or exhaust their budget.  Returns each trainer's
    ConvergenceRecord.
    """
    runs = [_LockstepRun(trainer, trainer.iteration + int(budget))
            for trainer, budget in zip(trainers, budgets)]
    active = [run for run in runs if run.trainer.iteration < run.end]
    while active:
        for run in active:
            run.t = run.trainer.iteration
            run.trainer._dispatch("before_iteration", run.t)
        results = group.compute([(run.trainer, run.t) for run in active])
        for run, (loss, acc) in zip(active, results):
            run.loss, run.acc = loss, acc
            run.trainer.apply_update(run.t)
            run.test_due = run.trainer.record_iteration(run.t, loss, acc)
        evaluating = [run.trainer for run in active if run.test_due]
        scores = iter(group.evaluate_many(evaluating) if evaluating else ())
        still_active: list[_LockstepRun] = []
        for run in active:
            trainer = run.trainer
            score = next(scores) if run.test_due else None
            if (trainer.finish_iteration(run.t, run.loss, run.acc, score)
                    and trainer.iteration < run.end):
                still_active.append(run)
        active = still_active
    return [run.trainer.record for run in runs]
