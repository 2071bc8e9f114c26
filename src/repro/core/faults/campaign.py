"""Statistical fault-injection campaigns (Sec. 3.3 / Sec. 4 of the paper).

A :class:`Campaign` reproduces the paper's experiment protocol at reduced
scale:

1. train the workload fault-free to a warm-up point once and snapshot it
   (the paper's per-epoch checkpoints);
2. for each experiment, restore the snapshot, sample a random fault
   (FF x cycle x op-site x device x iteration), inject it, and continue
   training "until either an error message [INFs/NaNs] is encountered, or
   until a predefined number of training iterations are completed";
3. classify the outcome against the fault-free reference run and collect
   the necessary-condition magnitudes (Table 4).

The fault-free (*golden*) iterations of step 2 are computed once, by the
reference run of step 1, and never again (DESIGN.md decision 9): an
experiment starts from the reference run's state at its fault iteration,
and stops once its state equals the reference run's to the byte.

An :class:`InferenceCampaign` applies the same faults to inference only,
for the training-vs-inference comparison of Table 5.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.backend.base import DeviceShare
from repro.backend.batched import BatchedBackend, LaneGroup, run_lockstep
from repro.core.analysis.classify import (
    ClassifierThresholds,
    Outcome,
    OutcomeReport,
    classify_inference_experiment,
    classify_outcomes,
)
from repro.core.analysis.propagation import (
    PropagationTrace,
    condition_magnitude_in_window,
)
from repro.core.analysis.report import inference_report_dict
from repro.core.faults.hardware import (
    COMM,
    FORWARD,
    SITE_KINDS,
    WEIGHT_UPDATE,
    HardwareFault,
    enumerate_sites,
    module_at,
    sample_fault,
    sample_forward_fault,
    site_layers,
)
from repro.core.faults.injector import FaultInjector
from repro.core.faults.session import QUIET, InferenceSession
from repro.core.mitigation.bounds import DetectionBounds, derive_bounds_for_trainer
from repro.core.mitigation.detector import HardwareFailureDetector
from repro.distributed.sync import SyncDataParallelTrainer
from repro.engine import (
    CampaignEngine,
    EngineConfig,
    ResultStore,
    WorkUnit,
    experiment_key,
)
from repro.engine.store import config_difference
from repro.nn.losses import top1
from repro.state import training_state_digest
from repro.training.checkpoints import Checkpoint
from repro.training.metrics import ConvergenceRecord
from repro.workloads.base import WorkloadSpec


@dataclass
class ExperimentResult:
    """One fault-injection experiment's full outcome."""

    fault: HardwareFault
    report: OutcomeReport
    #: Number of elements the software fault model perturbed.
    num_faulty_elements: int
    #: Largest absolute faulty value written by the fault model.
    max_abs_faulty: float
    #: Necessary-condition magnitudes within 2 iterations of the fault.
    condition_window: dict[str, float]
    record: ConvergenceRecord | None = None
    #: Digest of the final training state (params + optimizer slots +
    #: per-replica extra state), the replay gate's byte-identity anchor.
    arena_sha256: str | None = None

    @property
    def outcome(self) -> Outcome:
        """The classified outcome (Table 3 taxonomy)."""
        return self.report.outcome


@dataclass
class CampaignResult:
    """One campaign run: its store payloads, ordered by experiment index
    (summarise them with :func:`repro.core.analysis.campaign_report_dict`)."""

    workload: str
    payloads: list[dict]
    #: The :class:`repro.engine.EngineReport` of the run that produced
    #: this result.
    engine_report: object = field(default=None, repr=False, compare=False)

    @property
    def num_experiments(self) -> int:
        """Number of experiments aggregated in this result."""
        return len(self.payloads)

    @cached_property
    def results(self) -> list[ExperimentResult]:
        """The payloads decoded, in the same order."""
        from repro.core.faults.serialization import experiment_from_dict

        return [experiment_from_dict(p) for p in self.payloads]


class _Rung(NamedTuple):
    """The reference run's training state at one iteration boundary."""

    checkpoint: Checkpoint
    #: ``training_state_digest`` of that state: what "the fault is masked
    #: to the byte" is checked against.
    digest: str


@dataclass
class _Experiment:
    """One experiment in flight (solo or as a member of a batch)."""

    fault: HardwareFault
    trainer: SyncDataParallelTrainer
    injector: object
    detector: HardwareFailureDetector | None
    #: Boundary right after the fault iteration when the reference run's
    #: digest there is known, else ``None`` (train to the horizon).
    check: int | None
    arena_sha256: str | None = None


class Campaign:
    """Statistical FI campaign over one workload."""

    def __init__(
        self,
        spec: WorkloadSpec,
        num_devices: int = 8,
        seed: int = 0,
        warmup_iterations: int | None = None,
        horizon: int | None = None,
        inject_window: int | None = None,
        test_every: int = 10,
        thresholds: ClassifierThresholds | None = None,
        site_kinds: tuple[str, ...] = SITE_KINDS,
        keep_records: bool = False,
        detect: bool = False,
        backend: str = "inprocess",
        experiment_batch: int = 1,
    ):
        self.spec = spec
        self.num_devices = int(num_devices)
        self.seed = int(seed)
        #: Execution backend name for every trainer the campaign builds
        #: (see :mod:`repro.backend`); experiment outcomes are
        #: bit-identical under every backend, so stored results stay
        #: comparable.
        self.backend = backend
        #: Experiments whose lanes step together (the ``E`` of
        #: :mod:`repro.backend.batched`; 1 = each experiment's devices
        #: alone, under either backend name).  ``E > 1`` needs
        #: ``backend="batched"``.
        self.experiment_batch = max(int(experiment_batch), 1)
        if self.experiment_batch > 1 and backend != "batched":
            raise ValueError(
                "experiment_batch > 1 requires backend='batched' "
                f"(got backend={backend!r})")
        self.warmup_iterations = (
            spec.iterations // 3 if warmup_iterations is None else int(warmup_iterations)
        )
        self.horizon = spec.iterations if horizon is None else int(horizon)
        self.inject_window = (
            max(self.horizon // 4, 1) if inject_window is None else int(inject_window)
        )
        self.test_every = int(test_every)
        self.thresholds = thresholds or ClassifierThresholds()
        self.site_kinds = site_kinds
        self.keep_records = bool(keep_records)
        #: Attach a Sec. 5.1 :class:`HardwareFailureDetector` to every
        #: experiment.  The detector only *reads* trainer state, so
        #: outcomes and final state bytes are unchanged; with tracing on,
        #: its firings land in the campaign trace as ``detector_fired``
        #: events.
        self.detect = bool(detect)
        #: The warm-up rung's checkpoint; set last by :meth:`prepare`.
        self._snapshot: Checkpoint | None = None
        #: boundary iteration -> golden state there, kept for every
        #: boundary an experiment may start from or be checked against
        #: (warm-up .. warm-up + ``inject_window``) and every boundary
        #: that follows a test point.
        self._rungs: dict[int, _Rung] = {}
        #: Final-state digest of the reference run.
        self._golden_sha256: str | None = None
        #: (test iteration, device) -> the reference run's test score on
        #: that device's replica; filled on first use (the reference run
        #: itself evaluates device 0 only).
        self._golden_test: dict[tuple[int, int], float] = {}
        #: Fault iteration t -> the reference run's per-device shares of
        #: iteration t, kept for every t of the injection window: an
        #: experiment that starts at rung t steps only the devices its
        #: fault can change and takes the rest from here.
        self._shares: dict[int, list[DeviceShare]] = {}
        #: Algorithm 1 bounds shared by every experiment's detector.
        self._bounds: DetectionBounds | None = None
        self._site_model = None
        self.reference: ConvergenceRecord | None = None
        #: The trainers experiments run on, built once and restored into
        #: per experiment (DESIGN.md decision 25): first the reference
        #: run's own trainer, then a pool on one LaneGroup once a lease
        #: of several experiments needs one.
        self._trainers: list[SyncDataParallelTrainer] = []

    # ------------------------------------------------------------------
    # Config round-trip (replay)
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        """Everything needed to rebuild this campaign bit-for-bit.

        Stored in the :class:`~repro.engine.store.ResultStore` header
        (and hence in the merged campaign trace), so ``repro replay`` can
        reconstruct the identical warm-up snapshot, reference run, and
        classifier from the trace alone.
        """
        return {
            **self.spec.config_dict(),
            "num_devices": self.num_devices,
            "seed": self.seed,
            "warmup_iterations": self.warmup_iterations,
            "horizon": self.horizon,
            "inject_window": self.inject_window,
            "test_every": self.test_every,
            "thresholds": asdict(self.thresholds),
            "site_kinds": list(self.site_kinds),
            "detect": self.detect,
            "backend": self.backend,
            "experiment_batch": self.experiment_batch,
        }

    @classmethod
    def from_config(cls, config: dict, *, backend: str | None = None,
                    experiment_batch: int | None = None) -> "Campaign":
        """Rebuild a campaign from a :meth:`config_dict` record.

        ``backend`` overrides the recorded execution backend (outcomes
        are bit-identical across backends, so replays stay valid); the
        batch size is clamped to 1 unless the resolved backend is
        ``"batched"``.
        """
        from repro.workloads import build_workload

        spec = build_workload(
            config["workload"],
            size=config.get("size", "small"),
            seed=int(config.get("workload_seed", 0)),
        )
        resolved_backend = config.get("backend", "inprocess") if backend is None \
            else backend
        batch = int(config.get("experiment_batch", 1)) \
            if experiment_batch is None else int(experiment_batch)
        if resolved_backend != "batched":
            batch = 1
        thresholds = None
        if config.get("thresholds"):
            thresholds = ClassifierThresholds(**config["thresholds"])
        return cls(
            spec,
            num_devices=int(config.get("num_devices", 8)),
            seed=int(config.get("seed", 0)),
            warmup_iterations=int(config["warmup_iterations"]),
            horizon=int(config["horizon"]),
            inject_window=int(config["inject_window"]),
            test_every=int(config.get("test_every", 10)),
            thresholds=thresholds,
            site_kinds=tuple(config.get("site_kinds", SITE_KINDS)),
            detect=bool(config.get("detect", False)),
            backend=resolved_backend,
            experiment_batch=batch,
        )

    # ------------------------------------------------------------------
    # Baseline preparation
    # ------------------------------------------------------------------
    def _new_trainer(self, backend=None) -> SyncDataParallelTrainer:
        return SyncDataParallelTrainer(
            self.spec,
            num_devices=self.num_devices,
            seed=self.seed,
            test_every=self.test_every,
            backend=self.backend if backend is None else backend,
        )

    def _ensure_site_model(self) -> None:
        """Build the op-site enumeration model (much cheaper than
        :meth:`prepare`, so faults can be sampled without training)."""
        if self._site_model is None:
            self._site_model = self.spec.build_model(self.seed)

    def prepare(self) -> None:
        """Train the fault-free baseline and reference (idempotent).

        The reference continuation over the horizon is the only place
        golden iterations are computed: it leaves a rung at every
        boundary :attr:`_rungs` names, and each device's share of every
        injection-window iteration (:attr:`_shares`).  With ``detect``
        it carries the detector the experiments carry, so a firing on
        fault-free state (an Algorithm 1 false positive) is seen here.
        Its trainer is the one later experiments run on, until a lease of
        several needs a pool."""
        if self._snapshot is not None:
            return
        self._ensure_site_model()
        warm, end = self.warmup_iterations, self._end
        window = range(warm, warm + self.inject_window)
        trainer = self._new_trainer()
        keep = set(range(warm, warm + self.inject_window + 1))
        keep.update(t + 1 for t in range(warm, end) if trainer.test_due(t))
        kept: dict[int, list[DeviceShare]] = {}
        try:
            trainer.train(warm)
            if self.detect:
                self._bounds = derive_bounds_for_trainer(trainer)
                trainer.add_hook(HardwareFailureDetector(self._bounds))
            for boundary in range(warm, end + 1):
                if boundary in keep:
                    self._rungs[boundary] = _Rung(
                        Checkpoint.capture(trainer),
                        training_state_digest(trainer))
                if boundary == end or trainer.halted:
                    break
                trainer.backend.kept = kept.setdefault(boundary, []) \
                    if boundary in window else None
                trainer.train(1)
            trainer.backend.kept = None
        except BaseException:
            trainer.close()
            raise
        self._golden_sha256 = training_state_digest(trainer)
        self.reference = trainer.record
        # The forward's BatchNorm statistics are the next rung's: one copy.
        for t, (shares,) in kept.items():
            if t + 1 in self._rungs:
                extra = self._rungs[t + 1].checkpoint.extra
                self._shares[t] = [share._replace(extra=extra[device])
                                   for device, share in enumerate(shares)]
        self._trainers = [trainer]
        self._snapshot = self._rungs[warm].checkpoint

    def _golden_reuse(self) -> bool:
        """Whether experiments may take fault-free iterations from the
        reference run instead of training them.  Not when the reference
        run fired the detector — each experiment must then surface that
        firing itself, on its own trainer — or did not reach the horizon.
        Everything else about reuse is exact and needs no setting; tests
        pin it against the full-horizon path by patching this predicate
        (``tests/conftest.py::full_horizon``)."""
        return (self.reference.nonfinite_at is None
                and not self.reference.detections)

    def _golden_test_score(self, trainer: SyncDataParallelTrainer,
                           t: int) -> float:
        """The reference run's test score at test point ``t`` on
        ``trainer``'s ``eval_device``.  A score not seen before is
        computed by putting the rung after ``t`` into ``trainer`` — the
        caller is about to overwrite that state, or is done with it —
        and calling its ordinary ``evaluate()``, where evaluating every
        device while the reference trains would cost D forwards."""
        key = (t, trainer.eval_device)
        if key not in self._golden_test:
            self._rungs[t + 1].checkpoint.restore(trainer)
            self._golden_test[key] = trainer.evaluate()
        return self._golden_test[key]

    # ------------------------------------------------------------------
    # One experiment
    # ------------------------------------------------------------------
    def sample_experiment(self, rng: np.random.Generator) -> HardwareFault:
        """Sample a fault whose injection falls inside the campaign's
        injection window (post-warmup)."""
        self._ensure_site_model()
        fault = sample_fault(
            self._site_model, rng,
            max_iteration=self.inject_window,
            num_devices=self.num_devices,
            kinds=self.site_kinds,
        )
        fault.iteration += self.warmup_iterations
        return fault

    def _launch(self, fault: HardwareFault, tracer,
                trainer: SyncDataParallelTrainer) -> _Experiment:
        """Put one experiment on ``trainer`` at the latest golden boundary
        not after its fault iteration ``t``: rung ``t`` itself when reuse
        is allowed and the rung exists, else the warm-up rung.  Record
        and tracer receive the reference run's rows for the iterations
        skipped — before the rung goes in, because a test point among
        them is scored through this trainer.  Started at rung ``t``, the
        step of ``t`` computes only the fault's device — none for a
        ``comm`` or ``weight_update`` fault, which strikes after the
        device step — and takes every other device's share from the
        reference run."""
        warm, t = self.warmup_iterations, fault.iteration
        reuse = self._golden_reuse() and t in self._rungs
        start = t if reuse else warm
        trainer.reset_run(eval_device=fault.device, tracer=tracer)
        trainer.adopt_iterations(
            self.reference, warm, start,
            lambda at: self._golden_test_score(trainer, at))
        self._rungs[start].checkpoint.restore(trainer)
        if reuse and t in self._shares:
            stepped = () if fault.site.kind in (COMM, WEIGHT_UPDATE) \
                else (fault.device,)
            trainer.backend.given = {
                device: share for device, share in enumerate(self._shares[t])
                if device not in stepped}
        injector = FaultInjector(fault)
        trainer.add_hook(injector)
        detector = None
        if self.detect:
            detector = HardwareFailureDetector(self._bounds)
            trainer.add_hook(detector)
        check = t + 1 if reuse and t + 1 in self._rungs else None
        return _Experiment(fault, trainer, injector, detector, check)

    def _trainers_for(self, count: int) -> list[SyncDataParallelTrainer]:
        """``count`` trainers for one lease, built only when the campaign
        has fewer: one on the campaign's backend, or a pool of at least
        ``experiment_batch`` sharing one LaneGroup (rebuilt larger if a
        lease outgrows it)."""
        if len(self._trainers) < count:
            self._discard()
            if count == 1:
                self._trainers = [self._new_trainer()]
            else:
                size = max(count, self.experiment_batch)
                group = LaneGroup(capacity=size)
                self._trainers = [
                    self._new_trainer(backend=BatchedBackend(group=group))
                    for _ in range(size)]
        return self._trainers[:count]

    def _discard(self) -> None:
        """Close the campaign's trainers; the next lease builds new ones."""
        for trainer in self._trainers:
            trainer.close()
        self._trainers = []

    @property
    def _end(self) -> int:
        """The boundary every run ends at unless it stops non-finite."""
        return self.warmup_iterations + self.horizon

    def _first_budget(self, exp: _Experiment) -> int:
        """Iterations up to the boundary the experiment is checked at
        (the fault iteration alone), or the whole run without a check."""
        return (self._end if exp.check is None else exp.check) \
            - exp.trainer.iteration

    def _splice(self, exp: _Experiment) -> bool:
        """After the fault iteration: if the experiment's state equals the
        reference run's at the same boundary to the byte (one digest, not
        value equality: -0.0 == +0.0), the rest of its run *is* the
        reference run's — the injector is disarmed for good, the detector
        only reads, and a step from a boundary is a function of the
        digest-covered state and the iteration number alone.  Adopt it
        and return ``True``.  Later reconvergence is not searched for."""
        trainer = exp.trainer
        if exp.check is None or trainer.halted:
            return False
        if training_state_digest(trainer) != self._rungs[exp.check].digest:
            return False
        trainer.adopt_iterations(
            self.reference, exp.check, self._end,
            lambda at: self._golden_test_score(trainer, at))
        exp.arena_sha256 = self._golden_sha256
        return True

    def _result(self, exp: _Experiment,
                report: OutcomeReport) -> ExperimentResult:
        record = exp.trainer.record
        injected = exp.injector.record
        # Table 4's magnitudes are the record's own condition columns:
        # the values a PropagationTracer hook would read a second time.
        conditions = PropagationTrace(iterations=record.iterations,
                                      max_history=record.history_magnitude,
                                      max_mvar=record.mvar_magnitude)
        return ExperimentResult(
            fault=exp.fault,
            report=report,
            num_faulty_elements=injected.num_faulty if injected else 0,
            max_abs_faulty=injected.max_abs_faulty() if injected else 0.0,
            condition_window=condition_magnitude_in_window(
                conditions, exp.fault.iteration),
            record=record if self.keep_records else None,
            arena_sha256=exp.arena_sha256,
        )

    def _run(self, faults: list[HardwareFault],
             sinks: list) -> list[ExperimentResult]:
        """Restore, inject, train to the horizon, classify — the one
        body behind :meth:`run_experiment` and
        :meth:`run_experiment_batch`; ``sinks[i]`` is experiment *i*'s
        event sink (``None``: untraced).  Only how the trainers advance
        depends on how many there are."""
        self.prepare()
        trainers = self._trainers_for(len(faults))
        # One experiment steps its own devices on its backend; several
        # share a LaneGroup and advance in lockstep.
        group = trainers[0].backend.group if len(faults) > 1 else None

        def advance(trainers, budgets) -> None:
            if group is None:
                trainers[0].train(budgets[0])
            else:
                run_lockstep(group, trainers, budgets)

        try:
            exps = [self._launch(fault, sink, trainer) for fault, sink, trainer
                    in zip(faults, sinks, trainers, strict=True)]
            advance([exp.trainer for exp in exps],
                    [self._first_budget(exp) for exp in exps])
            unmasked = [exp for exp in exps if not self._splice(exp)]
            live = [exp.trainer for exp in unmasked if not exp.trainer.halted]
            if live:
                advance(live, [self._end - t.iteration for t in live])
            for exp in unmasked:
                exp.arena_sha256 = training_state_digest(exp.trainer)
        except BaseException:
            # Hooks may be left armed mid-iteration: never reuse these.
            self._discard()
            raise
        reports = classify_outcomes(
            [exp.trainer.record for exp in exps], self.reference,
            [fault.iteration for fault in faults], self.thresholds)
        return [self._result(exp, report)
                for exp, report in zip(exps, reports)]

    def run_experiment(self, fault: HardwareFault,
                       tracer=None) -> ExperimentResult:
        """Restore the baseline, inject, train to the horizon, classify.

        ``tracer`` is the experiment's event sink (``None``: untraced)."""
        return self._run([fault], [tracer])[0]

    def run_experiment_batch(self, faults: list[HardwareFault],
                             sinks: list | None = None
                             ) -> list[ExperimentResult]:
        """Run E experiments concurrently through one batched program.

        Every experiment gets its own trainer, injector hooks, records,
        event sink (``sinks[i]``, one per fault; ``None`` for the list or
        an entry: untraced) and classification — exactly as
        :meth:`run_experiment` — but all E trainers share one
        :class:`~repro.backend.batched.LaneGroup` and advance in
        lockstep, so the NumPy work is E-wide vectorized ops.
        Per-experiment results are bit-identical to solo runs (masked
        injection and rollback isolation are pinned by tests).
        """
        return self._run(faults, [None] * len(faults) if sinks is None
                         else sinks)

    # ------------------------------------------------------------------
    # Full campaign (thin front-end over repro.engine)
    # ------------------------------------------------------------------
    def sample_faults(self, num_experiments: int, seed: int = 1234) -> list[HardwareFault]:
        """Sample the campaign's full experiment list up-front.

        Sampling is decoupled from execution so the seeded fault list —
        and therefore every experiment key — is identical regardless of
        worker count or resume point."""
        rng = np.random.default_rng(seed)
        return [self.sample_experiment(rng) for _ in range(int(num_experiments))]

    def _engine_runner(self):
        """Runner factory for the engine (invoked once per worker): one
        lease of payloads and their event sinks in, their results out,
        in order."""
        from repro.core.faults.serialization import (
            experiment_to_dict,
            fault_from_dict,
        )

        self.prepare()

        def run_lease(payloads: list[dict], sinks: list) -> list[dict]:
            results = self.run_experiment_batch(
                [fault_from_dict(p["fault"]) for p in payloads], sinks)
            return [dict(experiment_to_dict(result), index=p["index"])
                    for p, result in zip(payloads, results)]

        return run_lease

    def run(self, num_experiments: int | None = None, seed: int = 1234, *,
            faults: list[HardwareFault] | None = None,
            parallel: int = 1, store=None, resume: bool = False,
            timeout: float | None = None, max_retries: int = 2,
            on_progress=None, trace: bool = False) -> CampaignResult:
        """Run ``num_experiments`` seeded experiments — or exactly the
        experiments in ``faults``, a directed battery in place of the
        sample — and aggregate.

        Execution is delegated to :class:`repro.engine.CampaignEngine`:
        ``parallel`` fans experiments out over that many forked workers,
        ``store`` streams results into a persistent
        :class:`~repro.engine.store.ResultStore` (a path or an open
        store), and ``resume=True`` skips experiments the store already
        holds.  ``trace=True`` turns on the flight recorder: every
        worker streams its experiments' events into a shard next to the
        store, merged into one campaign trace at the end of the run
        (``EngineReport.trace_path``).  ``on_progress(report)`` is called
        with the :class:`~repro.engine.EngineReport` being built once per
        settled experiment.  Experiments are fully seeded, so the
        aggregate outcome breakdown is identical at any worker count.
        """
        if self.keep_records:
            raise ValueError(
                "keep_records campaigns retain full convergence records, "
                "which the engine does not serialize; call run_experiment "
                "or run_experiment_batch")
        sampled = faults is None
        if sampled:
            faults = self.sample_faults(num_experiments, seed)
        report = _submit(
            self._engine_runner, faults, kind="campaign",
            meta={"workload": self.spec.name,
                  "seed": int(seed) if sampled else None,
                  "num_experiments": len(faults),
                  # Full reconstruction record: repro replay rebuilds
                  # the campaign from this (via the merged trace).
                  "config": self.config_dict()},
            block_size=self.experiment_batch, parallel=parallel, store=store,
            resume=resume, timeout=timeout, max_retries=max_retries,
            on_progress=on_progress, trace=trace,
            # Prepare in the parent so forked workers inherit the trained
            # baseline snapshot instead of each retraining it.
            before_fork=self.prepare if parallel > 1 else None)
        return CampaignResult(
            workload=self.spec.name,
            payloads=sorted(report.results.values(), key=lambda p: p["index"]),
            engine_report=report)


def _submit(runner_factory, faults: list[HardwareFault], *, kind: str,
            meta: dict, block_size: int = 1, parallel: int = 1, store=None,
            resume: bool = False, timeout: float | None = None,
            max_retries: int = 2, on_progress=None,
            trace: bool = False, before_fork=None):
    """Run one work unit per fault through the engine; returns its
    :class:`~repro.engine.EngineReport`.  The one place a campaign meets
    the engine: unit ``index`` is the fault's position in ``faults``, its
    key the content hash of (index, fault); a ``store`` given as a path
    is opened with ``kind``/``meta`` in its header (resuming one another
    run wrote is refused; see :func:`_check_resume`) and closed again.
    ``before_fork`` runs first, unless the store already holds every
    unit (a fully resumed run does no work)."""
    from repro.core.faults.serialization import fault_to_dict

    units = []
    for index, fault in enumerate(faults):
        desc = fault_to_dict(fault)
        units.append(WorkUnit(key=experiment_key(index, desc),
                              payload={"index": index, "fault": desc}))
    owns_store = store is not None and not isinstance(store, ResultStore)
    if owns_store:
        store = ResultStore(store, kind=kind, meta=meta, resume=resume)
        try:
            _check_resume(store, kind, meta, {unit.key for unit in units})
        except ValueError:
            store.close()
            raise
    engine = CampaignEngine(
        runner_factory,
        EngineConfig(parallel=int(parallel), timeout=timeout,
                     max_retries=int(max_retries), trace=trace,
                     block_size=block_size),
        store=store, on_progress=on_progress)
    try:
        if before_fork is not None and (
                store is None or any(u.key not in store for u in units)):
            before_fork()
        return engine.run(units)
    finally:
        if owns_store:
            store.close()


def _check_resume(store: ResultStore, kind: str, meta: dict,
                  keys: set[str]) -> None:
    """Refuse to continue a store another run wrote, whose results would
    otherwise be returned as this run's: the header's ``kind`` must be
    ``kind``, the two ``config`` records must agree
    (:func:`~repro.engine.store.config_difference`), and every key the
    store holds must be one of this run's ``keys``.  A key hashes (index,
    fault), so that refuses another sample seed, a smaller sample and
    another fault list; a larger sample with the same seed extends the
    store.  A fresh store's header is ``kind``/``meta`` itself and
    always passes."""
    if store.kind != kind:
        raise ValueError(f"cannot resume {store.path}: it holds a "
                         f"{store.kind!r} run, not a {kind!r} run")
    differ = config_difference(meta, store.meta)
    if differ:
        raise ValueError(f"cannot resume {store.path}: its campaign config "
                         f"differs from this run's in {', '.join(differ)}")
    foreign = (store.completed.keys() | store.quarantined.keys()) - keys
    if foreign:
        raise ValueError(f"cannot resume {store.path}: {len(foreign)} of its "
                         f"experiments are not in this run (another seed, a "
                         f"smaller sample or another fault list)")


#: Units per lease of an :class:`InferenceCampaign`: a lease forwards
#: once per top-level layer its units start at and reaches the store with
#: one ``fsync`` (DESIGN.md decision 18).
INFERENCE_LEASE = 64


class InferenceCampaign:
    """Fault injection into *inference* of a trained model (Table 5).

    Each experiment injects one fault into one forward-pass op site during
    a batched prediction and reports whether any prediction changed (an
    SDC).  Contrasts with training: here there is no recovery mechanism,
    so control faults that flip many outputs almost always change the
    prediction.

    In eval mode every layer is per-image and an image's output bytes do
    not depend on its batch-mates (DESIGN.md decision 16), so the images
    a fault left alone come out golden; a unit forwards only the images
    whose bytes the fault changed at its site and judges them against
    their golden top-1 (decision 12), in one forward with the rest of its
    lease that starts at the same layer (decision 18).  The model, its
    training run and its forwards are an :class:`InferenceSession`'s,
    the one the inference server runs on too (decision 24).
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0,
                 train_iterations: int | None = None, num_devices: int = 2):
        self.spec = spec
        self.session = InferenceSession(spec, seed, train_iterations,
                                        num_devices)
        #: The ``batch`` the golden pass was taken over (``None``: none
        #: yet, or one over other inputs).
        self._golden_batch: int | None = None

    @property
    def model(self):
        """The session's trained model."""
        return self.session.model

    def _forward(self, hooks: dict, x: np.ndarray,
                 start: int | None = None) -> np.ndarray:
        """``session.forward(x, start)`` with ``hooks[name]`` as site
        ``name``'s forward hook."""
        for name, hook in hooks.items():
            module_at(self.model, name).set_fault_hook(FORWARD, hook)
        try:
            return self.session.forward(x, start)
        finally:
            for name in hooks:
                module_at(self.model, name).set_fault_hook(FORWARD, None)

    def _golden_pass(self, inputs: np.ndarray) -> None:
        """The golden forward, layer by layer.  Keeps what a unit starts
        from: each top-level layer's input (what the session's primary
        forward keeps), and each site module's forward-hook tensor (what
        a fault at that site rewrites); and what it is judged against:
        each image's golden top-1."""
        self._golden_batch = None
        self._golden_sites: dict[str, np.ndarray] = {}

        def keep(name: str):
            def hook(tensor: np.ndarray, info: dict) -> np.ndarray:
                self._golden_sites[name] = tensor.copy()
                return tensor
            return hook

        self._golden_top1 = top1(self._forward(
            {site.module_name: keep(site.module_name)
             for site in enumerate_sites(self.model, (FORWARD,))}, inputs))
        self._golden_inputs = self.session.layer_inputs

    def _engine_runner(self):
        """Runner factory: one lease of forward-pass injections per call.

        A unit starts at the top-level layer holding its site, on that
        layer's golden input, and forwards only the rows whose bytes its
        fault changed at the site (none when it changed none).  The
        lease's units share one forward per start layer, over their rows
        stacked, each site's hook writing its units' faulty rows
        (DESIGN.md decision 18).  An inference unit emits no events, so
        the runner ignores its ``sinks``."""
        from repro.core.faults.serialization import fault_from_dict

        # Tests map every site to layer 0 here (patching ``site_layers``)
        # to get the whole-model forward as the oracle.
        layer_of = site_layers(self.model)

        def inject(payload: dict) -> tuple[str, FaultInjector, np.ndarray]:
            """The fault applied to its site's golden tensor: the site,
            the injector (``rows`` = the rows it changed) and those rows'
            faulty values."""
            fault = fault_from_dict(payload["fault"])
            name = fault.site.module_name
            injector = FaultInjector(fault)
            faulty = injector.apply(self._golden_sites[name],
                                    module_at(self.model, name))
            return name, injector, faulty[injector.rows]

        def substitute(name: str, count: int, parts: list) -> object:
            """Site ``name``'s hook in a forward of ``count`` stacked rows:
            each ``(slice, values)`` of ``parts`` replaces those rows."""
            shape = (count, *self._golden_sites[name].shape[1:])

            def hook(tensor: np.ndarray, info: dict) -> np.ndarray:
                if tensor.shape != shape:
                    raise ValueError(
                        f"site {name!r} produced {tensor.shape} for {count} "
                        f"rows, not {shape}: its forward hook does not see "
                        f"the batch on axis 0")
                out = tensor.copy()
                for where, values in parts:
                    out[where] = values
                return out
            return hook

        def judge(start: int, units: list) -> list[tuple[bool, bool]]:
            """Forward the rows of ``units`` (:func:`inject` triples),
            stacked, from top-level layer ``start``; per unit, whether the
            top-1 of one of its rows moved off the golden one (an SDC)
            and whether one of their outputs is not finite."""
            ends = np.cumsum([len(injector.rows) for _n, injector, _v in units])
            where = [slice(end - len(injector.rows), end)
                     for end, (_n, injector, _v) in zip(ends, units)]
            parts: dict[str, list] = {}
            for (name, _injector, values), rows in zip(units, where):
                parts.setdefault(name, []).append((rows, values))
            images = np.concatenate([injector.rows for _n, injector, _v in units])
            x = self._golden_inputs[start][images]
            out = self._forward({name: substitute(name, len(x), at_site)
                                 for name, at_site in parts.items()}, x, start)
            flipped = top1(out) != self._golden_top1[images]
            finite = np.isfinite(out).reshape(len(out), -1).all(axis=1)
            return [(bool(flipped[rows].any()), not bool(finite[rows].all()))
                    for rows in where]

        def run_lease(payloads: list[dict], sinks=None) -> list[dict]:
            with np.errstate(**QUIET):
                units = [inject(payload) for payload in payloads]
                by_start: dict[int, list[int]] = {}
                for i, (name, injector, _values) in enumerate(units):
                    if injector.rows.size:
                        by_start.setdefault(layer_of[name], []).append(i)
                verdicts = {}
                for start, members in by_start.items():
                    verdicts.update(zip(members, judge(
                        start, [units[i] for i in members])))
            results = []
            for i, (payload, (_name, injector, _values)) in enumerate(
                    zip(payloads, units)):
                sdc, nonfinite = verdicts.get(i, (False, False))
                results.append({
                    "index": payload["index"], "fault": payload["fault"],
                    "sdc": sdc, "nonfinite": nonfinite,
                    "outcome": classify_inference_experiment(
                        sdc=sdc, nonfinite=nonfinite).value,
                    "rows_touched": int(injector.rows.size),
                    "num_faulty_elements": injector.record.num_faulty})
            return results

        return run_lease

    def run(self, num_experiments: int, seed: int = 99, batch: int = 32, *,
            parallel: int = 1, store=None, resume: bool = False,
            timeout: float | None = None, max_retries: int = 2,
            on_progress=None) -> dict:
        """Inject ``num_experiments`` forward-pass faults into the first
        ``batch`` inputs and report SDC rates; engine keywords behave as
        in :meth:`Campaign.run`.  The golden pass over those inputs is
        taken once: a later run over the same ``batch`` reuses it."""
        rng = np.random.default_rng(seed)
        faults = [sample_forward_fault(self.model, rng)
                  for _ in range(int(num_experiments))]
        # The session keeps the model in eval mode; a caller may not have.
        self.model.eval()
        if self._golden_batch != batch:
            self._golden_pass(self.session.inputs[:batch])
            self._golden_batch = batch
        report = _submit(
            self._engine_runner, faults, kind="inference",
            meta={"workload": self.spec.name, "seed": int(seed),
                  "num_experiments": int(num_experiments),
                  "config": dict(self.session.config, batch=int(batch))},
            block_size=INFERENCE_LEASE, parallel=parallel, store=store,
            resume=resume, timeout=timeout, max_retries=max_retries,
            on_progress=on_progress)
        return inference_report_dict(list(report.results.values()))
