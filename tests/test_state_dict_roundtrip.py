"""state_dict round-trip property test over the full Table 2 model zoo,
plus the ``load_state_dict`` validation contract."""

import numpy as np
import pytest

from repro import nn
from repro.state import StateArena
from repro.workloads import WORKLOAD_BUILDERS, build_workload


@pytest.mark.parametrize("name", sorted(WORKLOAD_BUILDERS))
class TestRoundTripEveryWorkload:
    """For every registered workload: serialize, perturb, reload, and the
    state (params + extra state like BatchNorm moving stats) must be
    bit-identical to what was saved — with and without an arena bound."""

    def run_round_trip(self, name, use_arena):
        spec = build_workload(name, size="tiny", seed=0)
        model = spec.build_model(seed=0)
        if use_arena:
            arena = StateArena(model)
        # Populate non-trivial extra state (BatchNorm moving statistics)
        # by running a couple of training-mode forward passes.
        x = spec.train_data.inputs[: spec.batch_size]
        model.forward(x)
        model.forward(spec.train_data.inputs[spec.batch_size : 2 * spec.batch_size])

        saved = {k: np.array(v, copy=True) for k, v in model.state_dict().items()}

        # Perturb everything, then reload the saved state.
        for param in model.parameters():
            param.data[...] = param.data + 1.0
        for _mod_name, module in model.named_modules():
            state = module.extra_state()
            if state:
                module.load_extra_state(
                    {k: np.asarray(v) * 0.5 for k, v in state.items()}
                )
        model.load_state_dict({k: np.array(v, copy=True) for k, v in saved.items()})

        restored = model.state_dict()
        assert set(restored) == set(saved)
        for key in saved:
            assert np.array_equal(restored[key], saved[key]), key
        if use_arena:
            # Reload must have written through the fused buffer, not
            # rebound the views away from it.
            for param in model.parameters():
                assert param.data.base is arena.param or param.data is arena.param

    def test_round_trip_plain(self, name):
        self.run_round_trip(name, use_arena=False)

    def test_round_trip_with_arena(self, name):
        self.run_round_trip(name, use_arena=True)


class TestLoadStateDictValidation:
    def build(self):
        rng = np.random.default_rng(0)
        return nn.Sequential(nn.Dense(4, 8, rng), nn.BatchNorm(8), nn.ReLU())

    def test_missing_key_raises(self):
        model = self.build()
        state = model.state_dict()
        state.pop("param:0.weight")
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self):
        model = self.build()
        state = model.state_dict()
        state["param:9.bogus"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = self.build()
        state = model.state_dict()
        state["param:0.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)
