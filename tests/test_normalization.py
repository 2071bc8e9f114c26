"""Tests for BatchNorm / LayerNorm, with emphasis on the moving-variance
history term at the center of the paper's analysis."""

import numpy as np
import pytest

from repro import nn
from repro.nn.normalization import batchnorm_layers, max_moving_variance
from tests.conftest import directional_gradcheck


class TestBatchNormForward:
    def test_normalizes_in_training(self, rng):
        bn = nn.BatchNorm(4)
        x = rng.normal(3.0, 2.0, size=(64, 4)).astype(np.float32)
        out = bn.forward(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-4)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-2)

    def test_4d_normalizes_per_channel(self, rng):
        bn = nn.BatchNorm(3)
        x = rng.normal(1.0, 3.0, size=(8, 3, 6, 6)).astype(np.float32)
        out = bn.forward(x)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)

    def test_moving_stats_update_formula(self, rng):
        """mvar_t = decay * mvar_{t-1} + (1-decay) * batch_var — the exact
        history-term recurrence of Sec. 4.2.2."""
        bn = nn.BatchNorm(2, momentum=0.9)
        x = rng.normal(0.0, 2.0, size=(128, 2)).astype(np.float32)
        prev_var = bn.moving_var.copy()
        bn.forward(x)
        expected = 0.9 * prev_var + 0.1 * x.var(axis=0)
        assert np.allclose(bn.moving_var, expected, rtol=1e-5)

    def test_eval_uses_moving_stats(self, rng):
        bn = nn.BatchNorm(2)
        x = rng.normal(size=(64, 2)).astype(np.float32)
        for _ in range(50):
            bn.forward(x)
        bn.training = False
        out_eval = bn.forward(x)
        mean, var = bn.moving_mean, bn.moving_var
        ref = (x - mean) / np.sqrt(var + bn.eps)
        assert np.allclose(out_eval, ref, atol=1e-4)

    def test_eval_does_not_update_stats(self, rng):
        bn = nn.BatchNorm(2)
        bn.training = False
        before = bn.moving_var.copy()
        bn.forward(rng.normal(size=(16, 2)).astype(np.float32))
        assert np.array_equal(bn.moving_var, before)

    def test_corrupted_mvar_degrades_eval_only(self, rng):
        """The LowTestAccuracy mechanism: a huge mvar leaves training-mode
        outputs untouched but destroys eval-mode outputs."""
        bn = nn.BatchNorm(2)
        x = rng.normal(size=(32, 2)).astype(np.float32)
        train_out = bn.forward(x)
        bn.moving_var[:] = 1e30
        train_out2 = bn.forward(x)
        assert np.allclose(train_out, train_out2, atol=1e-5)
        bn.training = False
        eval_out = bn.forward(x)
        # Outputs collapse toward beta (≈0): everything normalized away.
        assert np.abs(eval_out).max() < 1e-3

    def test_overflow_produces_inf_mvar(self):
        """Float32 overflow semantics: huge inputs overflow the variance,
        as on the accelerator (short-term INFs/NaNs precondition)."""
        bn = nn.BatchNorm(1)
        x = np.full((8, 1), 1e30, dtype=np.float32)
        x[0] = -1e30
        bn.forward(x)
        assert np.isinf(bn.moving_var[0])
        assert bn.history_magnitude() == float("inf")


class TestBatchNormBackward:
    def test_gradcheck_2d(self, rng):
        model = nn.Sequential(nn.Dense(4, 6, rng), nn.BatchNorm(6), nn.Tanh(),
                              nn.Dense(6, 3, rng))
        x = rng.normal(size=(16, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=16)
        assert directional_gradcheck(model, x, nn.SoftmaxCrossEntropy(), y, rng) < 0.02

    def test_gradcheck_4d(self, rng):
        model = nn.Sequential(nn.Conv2D(2, 4, 3, rng), nn.BatchNorm(4), nn.Tanh(),
                              nn.GlobalAvgPool2D(), nn.Dense(4, 3, rng))
        x = rng.normal(size=(6, 2, 5, 5)).astype(np.float32)
        y = rng.integers(0, 3, size=6)
        assert directional_gradcheck(model, x, nn.SoftmaxCrossEntropy(), y, rng) < 0.02

    def test_invalid_ndim(self):
        bn = nn.BatchNorm(2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((2, 2, 2), np.float32))


class TestBatchNormState:
    def test_extra_state_round_trip(self, rng):
        bn = nn.BatchNorm(3)
        bn.forward(rng.normal(size=(16, 3)).astype(np.float32))
        state = {k: v.copy() for k, v in bn.extra_state().items()}
        bn.forward(rng.normal(size=(16, 3)).astype(np.float32))
        bn.load_extra_state(state)
        assert np.array_equal(bn.moving_var, state["moving_var"])

    def test_history_magnitude(self):
        bn = nn.BatchNorm(2)
        bn.moving_var[:] = [2.0, 5.0]
        bn.moving_mean[:] = [-7.0, 1.0]
        assert bn.history_magnitude() == 7.0


class TestModelHelpers:
    def test_batchnorm_layers_found(self, rng):
        model = nn.Sequential(nn.ResidualBlock(4, 8, rng, stride=2))
        layers = batchnorm_layers(model)
        assert len(layers) == 3  # bn1, bn2, proj_bn

    def test_max_moving_variance_no_bn(self, rng):
        model = nn.Sequential(nn.Dense(4, 4, rng))
        assert max_moving_variance(model) == 0.0

    def test_max_moving_variance(self, rng):
        model = nn.Sequential(nn.BatchNorm(2), nn.BatchNorm(2))
        model.layers[1].moving_var[:] = 42.0
        assert max_moving_variance(model) == 42.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_max_moving_variance_is_the_per_layer_walk(self, rng, bad):
        """The one-pass probe equals the max over each layer's
        ``history_magnitude``: sign dropped, any non-finite -> inf."""
        model = nn.Sequential(nn.BatchNorm(3), nn.BatchNorm(5), nn.BatchNorm(2))
        for bn in batchnorm_layers(model):
            bn.moving_mean[:] = rng.normal(size=bn.moving_mean.shape)
            bn.moving_var[:] = rng.uniform(0.5, 2.0, bn.moving_var.shape)
        model.layers[1].moving_mean[3] = -9.5

        def walk():
            return max(bn.history_magnitude() for bn in batchnorm_layers(model))

        assert max_moving_variance(model) == walk() == 9.5
        model.layers[2].moving_mean[0] = bad
        assert max_moving_variance(model) == walk() == float("inf")


class TestLayerNorm:
    def test_normalizes_last_dim(self, rng):
        ln = nn.LayerNorm(8)
        x = rng.normal(2.0, 4.0, size=(4, 6, 8)).astype(np.float32)
        out = ln.forward(x)
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-2)

    def test_no_history_terms(self):
        """LayerNorm has no moving statistics: the mvar necessary condition
        is structurally impossible in pure-LayerNorm workloads."""
        ln = nn.LayerNorm(4)
        assert ln.extra_state() == {}

    def test_gradcheck(self, rng):
        model = nn.Sequential(nn.Dense(5, 8, rng), nn.LayerNorm(8), nn.Tanh(),
                              nn.Dense(8, 3, rng))
        x = rng.normal(size=(10, 5)).astype(np.float32)
        y = rng.integers(0, 3, size=10)
        assert directional_gradcheck(model, x, nn.SoftmaxCrossEntropy(), y, rng) < 0.02
