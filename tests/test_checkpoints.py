"""Tests for checkpoint capture/restore."""

import numpy as np
import pytest

from repro.core.mitigation import RecoveryManager
from repro.training.checkpoints import Checkpoint


class TestCheckpoint:
    def test_capture_restore_exact(self, make_trainer):
        trainer = make_trainer(num_devices=2)
        trainer.train(5)
        ckpt = Checkpoint.capture(trainer)
        before = {n: p.data.copy() for n, p in trainer.master.named_parameters()}
        opt_m0 = trainer.optimizer.first_moment_arrays()[0].copy()
        trainer.train(5)
        ckpt.restore(trainer)
        assert trainer.iteration == 5
        for n, p in trainer.master.named_parameters():
            assert np.array_equal(p.data, before[n])
        assert np.array_equal(trainer.optimizer.first_moment_arrays()[0], opt_m0)

    def test_restore_resumes_identically(self, make_trainer):
        """Training from a restored checkpoint replays the exact same
        trajectory (deterministic loader + reseeded random layers)."""
        trainer = make_trainer(num_devices=2)
        trainer.train(4)
        ckpt = Checkpoint.capture(trainer)
        trainer.train(3)
        after_first = {n: p.data.copy() for n, p in trainer.master.named_parameters()}
        ckpt.restore(trainer)
        trainer.record.truncate_to(4)
        trainer.train(3)
        for n, p in trainer.master.named_parameters():
            assert np.array_equal(p.data, after_first[n])

    def test_replica_count_mismatch(self, make_trainer):
        t2 = make_trainer(num_devices=2)
        t3 = make_trainer(num_devices=3)
        t2.train(1)
        ckpt = Checkpoint.capture(t2)
        with pytest.raises(ValueError):
            ckpt.restore(t3)

    def test_nbytes_positive(self, make_trainer):
        trainer = make_trainer()
        trainer.train(1)
        assert Checkpoint.capture(trainer).nbytes() > 1000


class TestCheckpointStore:
    """The checkpoint store is the recovery ring at a cadence:
    ``RecoveryManager(every, keep)`` captures before every iteration
    divisible by ``every`` and keeps the ``keep`` newest."""

    def test_captures_on_boundaries(self, make_trainer):
        trainer = make_trainer()
        ring = RecoveryManager(every=3, keep=10)
        trainer.add_hook(ring)
        trainer.train(7)
        assert [s.iteration for s in ring.snapshots] == [0, 3, 6]

    def test_keep_limit(self, make_trainer):
        trainer = make_trainer()
        ring = RecoveryManager(every=2, keep=2)
        trainer.add_hook(ring)
        trainer.train(9)
        assert [s.iteration for s in ring.snapshots] == [6, 8]

    def test_latest_before(self, make_trainer):
        """Each rewind restores the newest snapshot at or before
        ``detected_at - 1`` and drops the newer ones."""
        trainer = make_trainer()
        ring = RecoveryManager(every=3, keep=10)
        trainer.add_hook(ring)
        trainer.train(8)
        assert [ring.rewind(trainer, detected_at=at) for at in (7, 6, 3)] \
            == [6, 3, 0]
        assert [s.iteration for s in ring.snapshots] == [0]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            RecoveryManager(every=0)
        with pytest.raises(ValueError):
            RecoveryManager(keep=0)
