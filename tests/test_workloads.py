"""Tests for the Table 2 workload zoo."""

import numpy as np
import pytest

from repro import nn
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import WORKLOAD_BUILDERS, build_workload, workload_names

ALL = sorted(WORKLOAD_BUILDERS)


class TestRegistry:
    def test_all_table2_rows_present(self):
        names = set(workload_names())
        # Table 2's ten workloads plus googlenet (from the Sec. 3.2.3
        # validation model set).
        assert names == {
            "resnet", "resnet_nobn", "resnet_sgd", "resnet_largedecay",
            "densenet", "efficientnet", "nfnet", "yolo", "multigrid",
            "transformer", "googlenet",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_workload("alexnet")

    def test_describe(self):
        desc = build_workload("resnet", size="tiny").describe()
        assert desc["name"] == "resnet"
        assert desc["bn_momentum"] == 0.9


@pytest.mark.parametrize("name", ALL)
class TestEveryWorkload:
    def test_builds_and_runs_one_iteration(self, name):
        spec = build_workload(name, size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0, test_every=0)
        loss, acc = trainer.run_iteration(0)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("size", ["tiny", "small"])
    def test_builds_arenas_and_an_arena_bound_optimizer(self, name, size):
        # Every trainer is an arena trainer: no registry workload may need
        # another state representation (ArenaLayoutError otherwise).
        spec = build_workload(name, size=size, seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0, test_every=0)
        assert len(trainer.arenas) == 2
        assert trainer.master_arena is trainer.arenas[0]
        assert trainer.optimizer.arena is trainer.master_arena
        assert trainer.master_arena.total == trainer.master.num_parameters()
        for param in trainer.master.parameters():
            assert np.shares_memory(param.data, trainer.master_arena.param)

    def test_model_construction_deterministic(self, name):
        spec = build_workload(name, size="tiny", seed=0)
        m1, m2 = spec.build_model(7), spec.build_model(7)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_has_batchnorm_flag_is_accurate(self, name):
        spec = build_workload(name, size="tiny", seed=0)
        model = spec.build_model(0)
        has_bn = any(isinstance(m, nn.BatchNorm) for m in model.modules())
        assert has_bn == spec.has_batchnorm

    def test_evaluate_runs(self, name):
        spec = build_workload(name, size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0, test_every=0)
        trainer.train(2)
        acc = trainer.evaluate()
        assert 0.0 <= acc <= 1.0


class TestConfigurationDifferences:
    def test_resnet_variants(self):
        base = build_workload("resnet", size="tiny")
        nobn = build_workload("resnet_nobn", size="tiny")
        sgd = build_workload("resnet_sgd", size="tiny")
        decay = build_workload("resnet_largedecay", size="tiny")
        assert base.has_batchnorm and not nobn.has_batchnorm
        assert decay.bn_momentum == 0.99 and base.bn_momentum == 0.9

        from repro.optim import SGD, Adam

        p = list(base.build_model(0).parameters())
        assert isinstance(base.build_optimizer(p), Adam)
        assert isinstance(sgd.build_optimizer(p), SGD)
        assert not sgd.build_optimizer(p).normalizes_gradients()

    def test_largedecay_bn_momentum_propagates(self):
        from repro.nn.normalization import batchnorm_layers

        spec = build_workload("resnet_largedecay", size="tiny")
        model = spec.build_model(0)
        assert all(bn.momentum == 0.99 for bn in batchnorm_layers(model))

    def test_nfnet_and_transformer_have_no_moving_stats(self):
        for name in ("nfnet", "transformer", "multigrid"):
            spec = build_workload(name, size="tiny")
            model = spec.build_model(0)
            assert all(m.extra_state() == {} for m in model.modules()), name

    def test_sizes_differ(self):
        tiny = build_workload("resnet", size="tiny")
        small = build_workload("resnet", size="small")
        assert len(small.train_data) > len(tiny.train_data)
        assert small.iterations > tiny.iterations


class TestConvergence:
    """Longer-running sanity checks that each workload family learns."""

    @pytest.mark.parametrize("name", ["resnet", "multigrid", "transformer"])
    def test_tiny_workloads_learn(self, name):
        spec = build_workload(name, size="tiny", seed=0)
        trainer = SyncDataParallelTrainer(spec, num_devices=2, seed=0, test_every=0)
        rec = trainer.train()
        assert rec.final_train_accuracy() > rec.train_acc[0] + 0.15
