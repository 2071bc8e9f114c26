"""Tests for the experiment-batched backend (repro.backend.batched).

Covers the bit-identity contract (batch == solo in-process, per field),
the cross-experiment isolation property (a fault injected into
experiment i never touches a byte of experiment j != i, for every
Table 1 fault kind including comm), rollback isolation (Algorithm 1
re-execution inside a batch leaves batch-mates bit-identical), the
engine's E-sized block leases, the vectorized outcome classifier, and
the backend registry the CLI help is generated from.
"""

import gc

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    BACKEND_REGISTRY,
    BatchedBackend,
    LaneGroup,
    backend_choices_help,
    run_lockstep,
)
from repro.core.analysis.classify import (
    Outcome,
    classify_outcome,
    classify_outcomes,
)
from repro.core.faults import Campaign
from repro.core.faults.comm import CommFaultInjector
from repro.core.faults.hardware import sample_fault
from repro.core.faults.injector import FaultInjector
from repro.core.mitigation.detector import HardwareFailureDetector
from repro.core.mitigation.recovery import MitigationHook
from repro.distributed import SyncDataParallelTrainer
from repro.engine import CampaignEngine, EngineConfig, WorkUnit
from repro.nn import Module
from repro.state import StateArena
from repro.training.checkpoints import Checkpoint
from repro.training.metrics import ConvergenceRecord
from repro.workloads import build_workload

DEVICES = 2
WARMUP = 6
HORIZON = 8


def _spec():
    return build_workload("resnet", size="tiny", seed=0)


def _hex(values) -> list:
    return [None if v is None else float(v).hex() for v in values]


def _record_fields(record) -> dict:
    return {
        "loss": _hex(record.train_loss),
        "acc": _hex(record.train_acc),
        "hist": _hex(record.history_magnitude),
        "mvar": _hex(record.mvar_magnitude),
        "test": _hex(record.test_acc),
        "nonfinite_at": record.nonfinite_at,
        "detections": list(record.detections),
        "recoveries": list(record.recoveries),
    }


def _param_bytes(trainer) -> bytes:
    return b"".join(arena.param.tobytes() for arena in trainer.arenas)


@pytest.fixture(scope="module")
def warm_checkpoint():
    """A shared warmed-up baseline every differential test restores from,
    so solo and batched runs start from identical bytes with identical
    (fresh) records."""
    trainer = SyncDataParallelTrainer(_spec(), num_devices=DEVICES, seed=0,
                                      test_every=4)
    trainer.train(WARMUP)
    snap = Checkpoint.capture(trainer)
    trainer.close()
    return snap


def _solo_run(warm_checkpoint, hooks=None, budget=HORIZON):
    trainer = SyncDataParallelTrainer(_spec(), num_devices=DEVICES, seed=0,
                                      test_every=4)
    warm_checkpoint.restore(trainer)
    for hook in hooks or []:
        trainer.add_hook(hook)
    try:
        trainer.train(budget)
    finally:
        trainer.close()
    return trainer


def _batched_runs(warm_checkpoint, hooks_per_exp, budget=HORIZON):
    """Run ``len(hooks_per_exp)`` experiments through one LaneGroup; each
    entry is the hook list for that experiment.  Returns the trainers
    (closed) after ``run_lockstep``."""
    group = LaneGroup(capacity=len(hooks_per_exp))
    trainers = []
    for hooks in hooks_per_exp:
        trainer = SyncDataParallelTrainer(
            _spec(), num_devices=DEVICES, seed=0, test_every=4,
            backend=BatchedBackend(group=group))
        warm_checkpoint.restore(trainer)
        for hook in hooks:
            trainer.add_hook(hook)
        trainers.append(trainer)
    assert group.vectorized, "tiny resnet must compile to the fast path"
    try:
        run_lockstep(group, trainers, [budget] * len(trainers))
    finally:
        for trainer in trainers:
            trainer.close()
    return group, trainers


def _site_fault(site_kind: str, seed: int = 0):
    spec = _spec()
    model = spec.build_model(seed=0)
    rng = np.random.default_rng(seed)
    fault = sample_fault(model, rng, max_iteration=1, num_devices=DEVICES,
                         kinds=(site_kind,))
    fault.iteration = WARMUP + 2
    fault.device = 0
    return fault


# ----------------------------------------------------------------------
# Bit-identity: each batched experiment == the same experiment solo
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_plain_batch_matches_solo(self, warm_checkpoint):
        group, trainers = _batched_runs(warm_checkpoint, [[], [], []])
        solo = _solo_run(warm_checkpoint)
        want = _record_fields(solo.record)
        for trainer in trainers:
            assert _record_fields(trainer.record) == want
            assert _param_bytes(trainer) == _param_bytes(solo)

    def test_faulty_batch_matches_solo(self, warm_checkpoint):
        fault = _site_fault("weight_grad", seed=3)
        solo_inj = FaultInjector(fault)
        solo = _solo_run(warm_checkpoint, hooks=[solo_inj])
        batch_inj = FaultInjector(fault)
        group, trainers = _batched_runs(
            warm_checkpoint, [[], [batch_inj], []])
        assert batch_inj.fired and solo_inj.fired
        assert _record_fields(trainers[1].record) == _record_fields(solo.record)
        assert _param_bytes(trainers[1]) == _param_bytes(solo)


# ----------------------------------------------------------------------
# Isolation property: a fault in experiment i leaves every byte of
# j != i untouched — all Table 1 site kinds plus comm
# ----------------------------------------------------------------------
class TestCrossExperimentIsolation:
    @pytest.mark.parametrize("kind", ["forward", "weight_grad", "input_grad"])
    def test_site_fault_isolated(self, warm_checkpoint, kind):
        injector = FaultInjector(_site_fault(kind, seed=1))
        self._assert_bystanders_untouched(warm_checkpoint, injector)
        assert injector.fired

    def test_comm_fault_isolated(self, warm_checkpoint):
        spec = _spec()
        model = spec.build_model(seed=0)
        fault = sample_fault(model, np.random.default_rng(2), max_iteration=1,
                             num_devices=DEVICES, kinds=("comm",))
        fault.iteration = WARMUP + 2
        injector = CommFaultInjector(fault)
        self._assert_bystanders_untouched(warm_checkpoint, injector)
        assert injector.fired

    @staticmethod
    def _assert_bystanders_untouched(warm_checkpoint, injector):
        control_group, control = _batched_runs(warm_checkpoint, [[], [], []])
        faulty_group, faulty = _batched_runs(
            warm_checkpoint, [[], [injector], []])
        # Arena-level memcmp: the bystander experiments' stacked state is
        # byte-for-byte what it is in an all-clean batch.
        for exp in (0, 2):
            rows = faulty_group.stacks.experiment_rows(exp)
            assert (faulty_group.stacks.param[rows].tobytes()
                    == control_group.stacks.param[rows].tobytes())
            for slot in faulty_group.stacks.opt:
                assert (faulty_group.stacks.opt[slot][exp].tobytes()
                        == control_group.stacks.opt[slot][exp].tobytes())
            assert (_record_fields(faulty[exp].record)
                    == _record_fields(control[exp].record))


# ----------------------------------------------------------------------
# Rollback isolation: Algorithm 1 re-execution inside a batch must not
# perturb batch-mates (differential golden-trace check)
# ----------------------------------------------------------------------
class TestRollbackIsolation:
    def test_mitigated_experiment_does_not_perturb_batch_mates(
            self, warm_checkpoint):
        fault = _site_fault("weight_grad", seed=7)
        hooks = [FaultInjector(fault),
                 MitigationHook(HardwareFailureDetector())]
        group, trainers = _batched_runs(warm_checkpoint, [[], hooks, []])
        solo_plain = _solo_run(warm_checkpoint)
        want = _record_fields(solo_plain.record)
        for exp in (0, 2):
            assert _record_fields(trainers[exp].record) == want
            assert _param_bytes(trainers[exp]) == _param_bytes(solo_plain)

    def test_mitigated_experiment_matches_solo_mitigated(
            self, warm_checkpoint):
        fault = _site_fault("weight_grad", seed=7)
        solo = _solo_run(warm_checkpoint, hooks=[
            FaultInjector(fault), MitigationHook(HardwareFailureDetector())])
        group, trainers = _batched_runs(warm_checkpoint, [
            [], [FaultInjector(fault),
                 MitigationHook(HardwareFailureDetector())], []])
        assert (_record_fields(trainers[1].record)
                == _record_fields(solo.record))
        assert _param_bytes(trainers[1]) == _param_bytes(solo)


# ----------------------------------------------------------------------
# Campaign integration: run_experiment_batch == run_experiment per fault
# ----------------------------------------------------------------------
class TestCampaignBatch:
    @pytest.fixture(scope="class")
    def campaigns(self):
        kwargs = dict(num_devices=DEVICES, seed=0, warmup_iterations=WARMUP,
                      horizon=HORIZON, inject_window=4, test_every=4,
                      keep_records=True, detect=True)
        solo = Campaign(_spec(), **kwargs)
        solo.prepare()
        batched = Campaign(_spec(), backend="batched", experiment_batch=3,
                           **kwargs)
        batched.prepare()
        return solo, batched

    def test_batch_results_match_solo(self, campaigns):
        solo, batched = campaigns
        faults = solo.sample_faults(3, seed=11)
        want = [solo.run_experiment(fault) for fault in faults]
        got = batched.run_experiment_batch(faults)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.report.outcome == b.report.outcome
            assert float(a.report.final_train_delta).hex() == \
                float(b.report.final_train_delta).hex()
            assert a.num_faulty_elements == b.num_faulty_elements
            assert float(a.max_abs_faulty).hex() == float(b.max_abs_faulty).hex()
            assert a.condition_window == b.condition_window
            assert _record_fields(a.record) == _record_fields(b.record)

    @pytest.mark.parametrize("which", ["solo", "batched"])
    def test_finished_experiments_leave_no_cyclic_garbage(self, campaigns,
                                                          which):
        # A closed trainer and its models/arenas must die by refcount.
        # Held in cycles (trainer <-> backend, lane group, program <->
        # hook) they waited, tens of MB per experiment, for a cycle
        # collection, and campaign peak RSS swung by 30 MB with GC phase.
        solo, batched = campaigns
        faults = solo.sample_faults(3, seed=19)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            if which == "solo":
                for fault in faults:
                    solo.run_experiment(fault)
            else:
                batched.run_experiment_batch(faults)
            gc.collect()
            leaked = sorted({type(o).__name__ for o in gc.garbage
                             if isinstance(o, (SyncDataParallelTrainer,
                                               StateArena, Module))})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    def test_run_chunks_by_experiment_batch(self):
        batched = Campaign(_spec(), num_devices=DEVICES, seed=0,
                           warmup_iterations=WARMUP, horizon=HORIZON,
                           inject_window=4, test_every=4, detect=True,
                           backend="batched", experiment_batch=3)
        result = batched.run(num_experiments=5, seed=13)
        assert result.num_experiments == 5
        assert all(isinstance(r.outcome, Outcome) for r in result.results)

    def test_batch_requires_batched_backend(self):
        with pytest.raises(ValueError, match="requires backend='batched'"):
            Campaign(_spec(), experiment_batch=2)

    def test_single_fault_batch_delegates(self, campaigns):
        solo, batched = campaigns
        fault = solo.sample_faults(1, seed=17)[0]
        (got,) = batched.run_experiment_batch([fault])
        want = solo.run_experiment(fault)
        assert got.report.outcome == want.report.outcome
        assert _record_fields(got.record) == _record_fields(want.record)


# ----------------------------------------------------------------------
# Engine block leases
# ----------------------------------------------------------------------
def _block_factory():
    def run_one(payload):
        if payload.get("fail"):
            raise RuntimeError("deliberate unit failure")
        return {"value": payload["x"] * 2, "outcome": "ok"}

    def run(payloads):
        if any(p.get("fail_in_block") for p in payloads) and len(payloads) > 1:
            raise RuntimeError("deliberate block failure")
        return [run_one(p) for p in payloads]

    return run


def _units(payloads):
    return [WorkUnit(key=f"key{i}", payload={"key": f"key{i}", "x": i, **p})
            for i, p in enumerate(payloads)]


class TestBlockLeases:
    def test_serial_blocks_match_unblocked(self):
        units = _units([{} for _ in range(7)])
        plain = CampaignEngine(_block_factory, EngineConfig(parallel=1)).run(units)
        blocked = CampaignEngine(
            _block_factory, EngineConfig(parallel=1, block_size=3)).run(units)
        assert blocked.results == plain.results
        assert blocked.executed == 7

    def test_parallel_blocks_match_unblocked(self):
        units = _units([{} for _ in range(8)])
        plain = CampaignEngine(_block_factory, EngineConfig(parallel=1)).run(units)
        blocked = CampaignEngine(
            _block_factory,
            EngineConfig(parallel=2, block_size=2),
        ).run(units)
        assert blocked.results == plain.results

    def test_failed_block_retries_units_solo(self):
        # One poisoned unit fails any multi-unit block it lands in; the
        # whole block fails and every unit is then re-leased solo, where
        # all of them (including the poison) succeed.
        units = _units([{}, {"fail_in_block": True}, {}, {}])
        report = CampaignEngine(
            _block_factory,
            EngineConfig(parallel=1, block_size=4, max_retries=1,
                         retry_backoff=0.01),
        ).run(units)
        assert sorted(report.results) == ["key0", "key1", "key2", "key3"]
        assert report.quarantined == {}
        assert report.retries == 4

    def test_hard_failure_quarantines_only_its_unit(self):
        units = _units([{}, {"fail": True}, {}])
        report = CampaignEngine(
            _block_factory,
            EngineConfig(parallel=1, block_size=3, max_retries=1,
                         retry_backoff=0.01),
        ).run(units)
        assert sorted(report.results) == ["key0", "key2"]
        assert list(report.quarantined) == ["key1"]
        assert "deliberate unit failure" in report.quarantined["key1"]


# ----------------------------------------------------------------------
# Vectorized classifier
# ----------------------------------------------------------------------
def _make_record(train_acc, test_acc=None, nonfinite_at=None):
    rec = ConvergenceRecord()
    for i, acc in enumerate(train_acc):
        rec.record_train(i, 1.0 - acc, acc)
    if test_acc is not None:
        for i, acc in enumerate(test_acc):
            rec.record_test(i * 10, acc)
    if nonfinite_at is not None:
        rec.nonfinite_at = nonfinite_at
    return rec


class TestClassifyOutcomes:
    def test_matches_scalar_classifier(self):
        reference = _make_record(
            np.concatenate([np.linspace(0.2, 0.95, 50), np.full(100, 0.95)]),
            test_acc=np.full(15, 0.9))
        t = 60
        records = [
            _make_record(np.full(61, 0.9), nonfinite_at=t),          # immediate
            _make_record(np.full(63, 0.9), nonfinite_at=t + 2),      # short-term
            _make_record(np.full(100, 0.9), nonfinite_at=t + 30),    # latent
            _make_record(reference.train_acc, test_acc=np.full(15, 0.9)),
            _make_record(np.concatenate([np.linspace(0.2, 0.95, 50),
                                         np.full(50, 0.95),
                                         np.linspace(0.95, 0.5, 50)])),
        ]
        batched = classify_outcomes(records, reference, [t] * len(records))
        for record, report in zip(records, batched):
            want = classify_outcome(record, reference, t)
            assert report.outcome == want.outcome
            assert report.injection_iteration == want.injection_iteration
            assert report.final_train_delta == want.final_train_delta
            assert report.details == want.details

    def test_empty_batch(self):
        assert classify_outcomes([], _make_record([0.5]), []) == []


# ----------------------------------------------------------------------
# Backend registry / CLI help consistency
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_registry_covers_every_backend(self):
        assert tuple(BACKEND_REGISTRY) == BACKEND_NAMES
        assert "batched" in BACKEND_NAMES

    def test_help_text_generated_from_registry(self):
        text = backend_choices_help()
        for name, info in BACKEND_REGISTRY.items():
            assert name in text
            assert info.summary in text
            assert info.tradeoff in text

    def test_cli_backend_help_lists_every_backend(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = parser.format_help()
        # Subcommand help strings live on the subparsers.
        import argparse
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    text += sub.format_help()
        for name in BACKEND_NAMES:
            assert name in text

    def test_cli_rejects_batch_without_batched_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--workload", "resnet", "--experiments", "1",
                  "--experiment-batch", "4"])
        assert exc.value.code == 2
