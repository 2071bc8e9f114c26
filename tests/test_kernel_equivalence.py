"""New ``nn`` kernels == the kernels they replaced, byte for byte.

PR 14 rewrote the data movement of the hot kernels (gather-index
``im2col``, tap-plane ``col2im``, bit-mask ReLU family, one-pass
BatchNorm statistics, recycled patch matrices) under one rule: *data
movement may change, the sequence of floating-point operations per
output element may not*.  The bodies they replaced live on here, and
only here, as reference oracles; every comparison is ``tobytes()``
equality plus dtype, shape and memory layout (a downstream reduction
picks its summation order from the layout, so a result that is equal
but laid out differently would still change later bytes).

Values cover what a fault campaign produces, not what a test author
would pick: NaNs of either sign with and without a payload, +-inf, -0.0,
subnormals, and the 1e30-scale magnitudes of Table 4's moving-variance
regime.

One thing no NumPy kernel can pin, old or new: *which* payload survives
when two different NaNs are added.  A ufunc's vector body returns its
first operand's and its scalar tail the second's (a 17-element ``a + b``
already mixes both), so the answer moves with loop length.  ``col2im``
accumulates, and its comparisons (``nan_payload=False``) therefore treat
every NaN alike; everything else compares raw bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.nn import config
from repro.nn.conv import col2im, conv_output_size, im2col

FAST = settings(max_examples=60, deadline=None, derandomize=True)
LANES = st.sampled_from([(), (2,), (8,)])


# ----------------------------------------------------------------------
# The replaced kernels, verbatim
# ----------------------------------------------------------------------
def oracle_im2col(x, kh, kw, stride, padding):
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    img = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    col = np.empty((n, c, kh, kw, oh, ow), dtype=np.float32)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            col[:, :, i, j, :, :] = img[:, :, i:i_max:stride, j:j_max:stride]
    return np.ascontiguousarray(col.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1))


def oracle_col2im(col, input_shape, kh, kw, stride, padding):
    n, c, h, w = input_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    col6 = col.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            img[:, :, i:i_max:stride, j:j_max:stride] += col6[:, :, i, j, :, :]
    if padding == 0:
        return img
    return img[:, :, padding : padding + h, padding : padding + w]


def oracle_tap_plane_col2im(col, input_shape, kh, kw, stride, padding):
    """The tap-plane ``col2im`` body, which the one-tap (1x1) fold replaced."""
    n, c, h, w = input_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    hr, wr = -(-hp // stride), -(-wp // stride)
    taps = np.zeros((kh * kw, n, c, hr, wr), dtype=np.float32)
    taps[..., :oh, :ow] = col.reshape(n, oh, ow, c, kh * kw).transpose(4, 0, 3, 1, 2)
    phases = np.zeros((min(stride, kh), min(stride, kw), n, c, hr, wr), dtype=np.float32)
    flat = phases.reshape(*phases.shape[:2], -1)
    for i in range(kh):
        for j in range(kw):
            block = flat[i % stride, j % stride, i // stride * wr + j // stride :]
            block += taps[i * kw + j].reshape(-1)[: block.size]
    if stride == 1:
        img = phases[0, 0]
    else:
        img = np.zeros((n, c, hp, wp), dtype=np.float32)
        for a, b in np.ndindex(phases.shape[:2]):
            part = img[:, :, a::stride, b::stride]
            part[...] = phases[a, b, :, :, : part.shape[2], : part.shape[3]]
    if padding == 0:
        return img
    return img[:, :, padding : padding + h, padding : padding + w]


class OracleConv2D(nn.Conv2D):
    def forward(self, x):
        lanes, (n, c, h, w) = x.shape[:-4], x.shape[-4:]
        k, s, p = self.kernel_size, self.stride, self.padding
        oh, ow = conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)
        folded = x.reshape(-1, c, h, w)
        col = oracle_im2col(folded, k, k, s, p).reshape(*lanes, -1, c * k * k)
        self._col = col
        self._input_shape = x.shape
        self._folded_shape = folded.shape
        w_row = self.weight.data.reshape(*lanes, self.out_channels, -1)
        out = config.matmul(col, w_row.swapaxes(-1, -2))
        if self.use_bias:
            out = out + self.bias.data[..., None, :]
        out = out.reshape(*lanes, n, oh, ow, self.out_channels)
        out = out.swapaxes(-1, -3).swapaxes(-1, -2)
        out = np.ascontiguousarray(out, dtype=np.float32)
        out = self.apply_fault_hook("forward", out)
        self._out = out
        return out

    def backward(self, grad):
        lanes = self._input_shape[:-4]
        g2 = grad.swapaxes(-3, -1).swapaxes(-3, -2).reshape(*lanes, -1, self.out_channels)
        dw = config.matmul(self._col.swapaxes(-1, -2), g2).astype(np.float32)
        dw = dw.swapaxes(-1, -2).reshape(self.weight.data.shape)
        dw = self.apply_fault_hook("weight_grad", dw, param="weight")
        self.weight.grad += dw
        if self.use_bias:
            self.bias.grad += g2.sum(axis=-2).astype(np.float32)
        w_row = self.weight.data.reshape(*lanes, self.out_channels, -1)
        dcol = config.matmul(g2, w_row).astype(np.float32)
        dx = oracle_col2im(dcol.reshape(-1, dcol.shape[-1]), self._folded_shape,
                           self.kernel_size, self.kernel_size, self.stride, self.padding)
        return self.apply_fault_hook("input_grad", dx.reshape(self._input_shape))


class OracleReLU(nn.ReLU):
    def forward(self, x):
        self._mask = x > 0
        out = np.where(self._mask, x, 0.0).astype(np.float32)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad):
        out = np.where(self._mask, grad, 0.0).astype(np.float32)
        return self.apply_fault_hook("input_grad", out)


class OracleLeakyReLU(nn.LeakyReLU):
    def forward(self, x):
        self._mask = x > 0
        out = np.where(self._mask, x, self.negative_slope * x).astype(np.float32)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad):
        out = np.where(self._mask, grad, self.negative_slope * grad).astype(np.float32)
        return self.apply_fault_hook("input_grad", out)


class OracleScaledReLU(nn.ScaledReLU):
    def forward(self, x):
        self._mask = x > 0
        out = (np.where(self._mask, x, 0.0) * self.GAMMA).astype(np.float32)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad):
        out = (np.where(self._mask, grad, 0.0) * self.GAMMA).astype(np.float32)
        return self.apply_fault_hook("input_grad", out)


class OracleBatchNorm(nn.BatchNorm):
    def forward(self, x):
        axes, expand = self._layout(x)
        if self.training:
            with np.errstate(over="ignore", invalid="ignore"):
                mean = x.mean(axis=axes, dtype=np.float32)
                var = x.var(axis=axes, dtype=np.float32)
                self.moving_mean = (
                    self.momentum * self.moving_mean + (1.0 - self.momentum) * mean
                ).astype(np.float32)
                self.moving_var = (
                    self.momentum * self.moving_var + (1.0 - self.momentum) * var
                ).astype(np.float32)
        else:
            mean = self.moving_mean
            var = self.moving_var
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mean[expand]) * inv_std[expand]
            out = (self.gamma.data[expand] * xhat + self.beta.data[expand]).astype(np.float32)
        if self.training:
            self._cache = (xhat, inv_std, axes, expand)
        return self.apply_fault_hook("forward", out)

    def backward(self, grad):
        xhat, inv_std, axes, expand = self._cache
        m = float(np.prod([xhat.shape[a] for a in axes]))
        dgamma = (grad * xhat).sum(axis=axes).astype(np.float32)
        dbeta = grad.sum(axis=axes).astype(np.float32)
        dgamma = self.apply_fault_hook("weight_grad", dgamma, param="gamma")
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        inv = inv_std[expand]
        dxhat = grad * self.gamma.data[expand]
        with np.errstate(over="ignore", invalid="ignore"):
            dx = (
                inv
                / m
                * (
                    m * dxhat
                    - dxhat.sum(axis=axes, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
                )
            ).astype(np.float32)
        return self.apply_fault_hook("input_grad", dx)


# ----------------------------------------------------------------------
# Values and comparison
# ----------------------------------------------------------------------
_NEG_NAN = np.frombuffer(np.uint32(0xFFC00001).tobytes(), dtype=np.float32)[0]
SPECIALS = np.array(
    [np.nan, _NEG_NAN, np.inf, -np.inf, -0.0, 0.0, 1e-40, -1e-42, 1.1754944e-38,
     1e30, -1e30, 3e38, -3e38], dtype=np.float32)
REGIMES = st.sampled_from(["clean", "specials", "faulty"])


def values(rng, shape, regime, dtype=np.float32):
    """Seeded tensor: normal data; under ``specials`` a fifth of the
    entries are NaN/inf/-0.0/subnormal/huge; under ``faulty`` everything
    sits at the 1e30 scale a flipped exponent bit leaves behind."""
    out = rng.standard_normal(shape).astype(np.float32)
    out *= np.float32(10.0) ** rng.integers(-3, 4)
    if regime == "faulty":
        out *= np.float32(1e30)
    if regime != "clean" and out.size:
        hits = rng.random(shape) < 0.2
        out[hits] = rng.choice(SPECIALS, size=int(hits.sum()))
    return out.astype(dtype)


def layout(a):
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


def assert_same(new, old, what, nan_payload=True):
    assert new.shape == old.shape and new.dtype == old.dtype, what
    assert layout(new) == layout(old), f"{what}: memory layout"
    if not nan_payload:
        new, old = (np.where(np.isnan(a), np.float32(np.nan), a) for a in (new, old))
    assert new.tobytes() == old.tobytes(), what


@st.composite
def window(draw):
    k, stride, padding = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    low = max(1, k - 2 * padding)
    return k, stride, padding, draw(st.integers(low, 7)), draw(st.integers(low, 7))


def lane_layer(cls, lanes, rng, *args, **kwargs):
    """An oracle/subject pair with identical state; under ``lanes`` every
    parameter and moving statistic carries the leading lane axis, as on a
    bound program replica."""
    pair = []
    for klass in (cls, cls.__mro__[1]):
        takes_rng = klass in (OracleConv2D, nn.Conv2D)
        layer = klass(*args, **({"rng": np.random.default_rng(0)} if takes_rng else {}), **kwargs)
        layer.lanes = lanes
        pair.append(layer)
    state = np.random.default_rng(int(rng.integers(2**31)))
    for param in pair[0].parameters():
        param.data = state.standard_normal(lanes + param.shape).astype(np.float32)
    for (_, theirs), (_, ours) in zip(pair[0].named_parameters(), pair[1].named_parameters()):
        ours.data = theirs.data.copy()
        theirs.grad, ours.grad = np.zeros_like(theirs.data), np.zeros_like(theirs.data)
    extra = pair[0].extra_state()
    if extra:
        mean = state.standard_normal(lanes + extra["moving_mean"].shape).astype(np.float32)
        var = state.uniform(0.5, 2.0, lanes + extra["moving_var"].shape).astype(np.float32)
        for layer in pair:
            layer.load_extra_state({"moving_mean": mean, "moving_var": var})
    return pair


def assert_step_equal(oracle, subject, x, grad, training=True, nan_payload=True):
    """One forward (and backward) on both; every visible byte compared."""
    for layer in (oracle, subject):
        layer.train() if training else layer.eval()
    with np.errstate(all="ignore"):
        expected, got = oracle.forward(x), subject.forward(x)
        assert_same(got, expected, "forward")
        if training:
            assert_same(subject.backward(grad), oracle.backward(grad), "input grad", nan_payload)
    for (name, theirs), (_, ours) in zip(oracle.named_parameters(),
                                         subject.named_parameters()):
        assert_same(ours.grad, theirs.grad, f"grad of {name}")
    for key, value in oracle.extra_state().items():
        assert_same(subject.extra_state()[key], value, key)


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
@FAST
@given(win=window(), n=st.integers(1, 9), c=st.integers(1, 5), regime=REGIMES,
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_im2col_matches_oracle(win, n, c, regime, dtype, seed):
    k, stride, padding, h, w = win
    x = values(np.random.default_rng(seed), (n, c, h, w), regime, dtype)
    with np.errstate(all="ignore"):
        got, expected = im2col(x, k, k, stride, padding), oracle_im2col(x, k, k, stride, padding)
    assert_same(got, expected, "im2col")
    assert got.flags.c_contiguous and got.dtype == np.float32
    # Into a caller's buffer (how Conv2D recycles its patch matrix).
    out = np.full((n, got.shape[0] // n, got.shape[1]), 7.0, dtype=np.float32)
    with np.errstate(all="ignore"):
        again = im2col(x, k, k, stride, padding, out=out)
    assert np.shares_memory(again, out)
    assert_same(again, expected, "im2col(out=)")


@FAST
@given(win=window(), n=st.integers(1, 9), c=st.integers(1, 5), regime=REGIMES,
       seed=st.integers(0, 2**16))
def test_col2im_matches_oracle(win, n, c, regime, seed):
    k, stride, padding, h, w = win
    rows = n * conv_output_size(h, k, stride, padding) * conv_output_size(w, k, stride, padding)
    col = values(np.random.default_rng(seed), (rows, c * k * k), regime)
    with np.errstate(all="ignore"):
        got = col2im(col, (n, c, h, w), k, k, stride, padding)
        expected = oracle_col2im(col, (n, c, h, w), k, k, stride, padding)
    assert_same(got, expected, "col2im", nan_payload=False)


@FAST
@given(stride=st.integers(1, 3), padding=st.integers(0, 2), n=st.integers(1, 9),
       c=st.integers(1, 5), h=st.integers(1, 7), w=st.integers(1, 7),
       regime=REGIMES, seed=st.integers(0, 2**16))
def test_one_tap_col2im_matches_tap_plane(stride, padding, n, c, h, w, regime, seed):
    """The 1x1 fold against the tap-plane body it replaced: raw bytes,
    NaN payloads included (one tap, one add per pixel)."""
    rows = n * conv_output_size(h, 1, stride, padding) * conv_output_size(w, 1, stride, padding)
    col = values(np.random.default_rng(seed), (rows, c), regime)
    with np.errstate(all="ignore"):
        got = col2im(col, (n, c, h, w), 1, 1, stride, padding)
        expected = oracle_tap_plane_col2im(col, (n, c, h, w), 1, 1, stride, padding)
    assert_same(got, expected, "one-tap col2im")


def test_pooling_layers_still_fold_through_im2col(rng):
    """MaxPool2D/AvgPool2D call the two functions with (N*C, 1, H, W)."""
    x = values(rng, (3, 4, 6, 6), "specials")
    for pool in (nn.MaxPool2D(2), nn.AvgPool2D(2), nn.MaxPool2D(3, stride=1)):
        k, s = pool.pool_size, pool.stride
        with np.errstate(all="ignore"):
            folded = x.reshape(12, 1, 6, 6)
            assert_same(im2col(folded, k, k, s, 0), oracle_im2col(folded, k, k, s, 0), "pool")
            out = pool.forward(x)
            assert pool.backward(np.ones_like(out)).shape == x.shape


# ----------------------------------------------------------------------
# Layers: forward + backward, lanes, train and eval
# ----------------------------------------------------------------------
@FAST
@given(win=window(), n=st.integers(1, 4), cin=st.integers(1, 4), cout=st.integers(1, 5),
       bias=st.booleans(), lanes=LANES, regime=REGIMES, seed=st.integers(0, 2**16))
def test_conv2d_matches_oracle(win, n, cin, cout, bias, lanes, regime, seed):
    k, stride, padding, h, w = win
    rng = np.random.default_rng(seed)
    oracle, subject = lane_layer(OracleConv2D, lanes, rng, cin, cout, k,
                                 stride=stride, padding=padding, use_bias=bias)
    for _ in range(2):  # the second step runs on the recycled patch matrix
        x = values(rng, lanes + (n, cin, h, w), regime)
        with np.errstate(all="ignore"):
            grad = values(rng, oracle.forward(x).shape, regime)
        assert_step_equal(oracle, subject, x, grad, nan_payload=False)


@FAST
@given(cls=st.sampled_from([OracleReLU, OracleLeakyReLU, OracleScaledReLU]),
       shape=st.lists(st.integers(1, 6), min_size=2, max_size=4), lanes=LANES,
       regime=REGIMES, dtype=st.sampled_from([np.float32, np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_relu_family_matches_oracle(cls, shape, lanes, regime, dtype, seed):
    if cls is OracleScaledReLU and dtype is np.float64:
        dtype = np.float32  # the scale multiplies a float32 tensor (see its comment)
    rng = np.random.default_rng(seed)
    oracle, subject = lane_layer(cls, lanes, rng)
    x = values(rng, lanes + tuple(shape), regime, dtype)
    assert_step_equal(oracle, subject, x, values(rng, x.shape, regime, dtype))
    # A strided input (Conv2D.backward hands out a view of a padded image).
    wide = values(rng, lanes + tuple(shape[:-1]) + (shape[-1] + 2,), regime)
    assert_step_equal(oracle, subject, wide[..., 1:-1], values(rng, x.shape, regime))


@FAST
@given(n=st.integers(1, 5), c=st.integers(1, 5),
       spatial=st.one_of(st.none(), st.tuples(st.integers(1, 6), st.integers(1, 6))),
       momentum=st.sampled_from([0.9, 0.99]), lanes=LANES, regime=REGIMES,
       training=st.booleans(), dtype=st.sampled_from([np.float32, np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_batchnorm_matches_oracle(n, c, spatial, momentum, lanes, regime, training, dtype, seed):
    rng = np.random.default_rng(seed)
    oracle, subject = lane_layer(OracleBatchNorm, lanes, rng, c, momentum=momentum)
    shape = lanes + (n, c) + (spatial or ())
    for _ in range(2):  # moving statistics carry from step to step
        x = values(rng, shape, regime, dtype)
        assert_step_equal(oracle, subject, x, values(rng, shape, regime, dtype), training)


# ----------------------------------------------------------------------
# Recycled storage leaks nothing
# ----------------------------------------------------------------------
LAYERS = {
    "conv": lambda rng: nn.Conv2D(3, 4, 3, rng),
    "conv-1x1-stride2": lambda rng: nn.Conv2D(3, 4, 1, rng, stride=2, padding=0),
    "batchnorm": lambda rng: nn.BatchNorm(3),
    "relu": lambda rng: nn.ReLU(),
    "leaky-relu": lambda rng: nn.LeakyReLU(),
    "residual": lambda rng: nn.ResidualBlock(3, 4, rng, stride=2),
}


@pytest.mark.parametrize("poison", [False, True], ids=["plain", "in-place-hook"])
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_second_iteration_equals_a_fresh_layer(name, poison, rng):
    """Two forward/backward iterations on one layer, different inputs: the
    second equals what a fresh layer with the same state computes, also
    when an armed forward hook mutated the first iteration's output in
    place (a hook never sees recycled storage, so it cannot reach it)."""
    def step(layer, x, grad):
        layer.zero_grad()
        with np.errstate(all="ignore"):
            out = layer.forward(x)
            dx = layer.backward(grad)
        return [out, dx] + [p.grad.copy() for p in layer.parameters()] \
            + [v.copy() for m in layer.modules() for v in m.extra_state().values()]

    used = LAYERS[name](np.random.default_rng(1))
    x1, x2 = values(rng, (4, 3, 6, 6), "clean"), values(rng, (4, 3, 6, 6), "specials")
    with np.errstate(all="ignore"):
        grad = values(rng, used.forward(x1).shape, "clean")
    fired = []

    def scribble(tensor, info):
        tensor[...] = np.float32(np.inf)
        fired.append(info["module"])
        return tensor

    leaf = next(m for m in used.modules() if not m._modules)
    leaf.set_fault_hook("forward", scribble if poison else None)
    step(used, x1, grad)
    leaf.clear_fault_hooks()
    assert fired == ([leaf] if poison else [])

    fresh = LAYERS[name](np.random.default_rng(1))
    fresh.load_state_dict(used.state_dict())
    for got, expected in zip(step(used, x2, grad), step(fresh, x2, grad)):
        assert_same(got, expected, name)
    # ... and a different batch size in between does not confuse the reuse.
    with np.errstate(all="ignore"):
        assert_same(used.forward(x2[:1]), fresh.forward(x2[:1]), "smaller batch")
        assert_same(used.forward(x1), fresh.forward(x1), "back to the first size")


# ----------------------------------------------------------------------
# Memoised per-model layer lists (the per-iteration probes' other cost)
# ----------------------------------------------------------------------
def test_layer_lists_are_memoised_until_the_structure_changes(rng):
    import copy

    from repro.backend import reseed_random_layers
    from repro.nn.normalization import batchnorm_layers, max_moving_variance

    model = nn.Sequential(nn.Conv2D(1, 2, 3, rng), nn.BatchNorm(2), nn.Dropout(0.5, seed=1))
    assert batchnorm_layers(model) == [model[1]]
    assert model.instances_of(nn.BatchNorm) is model.instances_of(nn.BatchNorm)
    assert model.instances_of(nn.Dropout) == [(3, model[2])]  # index in modules() order

    # A module added anywhere, here two levels down, shows up at once.
    inner = nn.Sequential(nn.BatchNorm(2))
    model.append(inner)
    late = inner.append(nn.BatchNorm(2))[1]
    late.moving_var[:] = 50.0
    assert batchnorm_layers(model) == [model[1], inner[0], late]
    assert max_moving_variance(model) == 50.0
    assert max_moving_variance(nn.Sequential(nn.ReLU())) == 0.0

    # A copy answers with its own layers, and reseeding keeps its old
    # (seed, traversal index) contract through the memo.
    twin = copy.deepcopy(model)
    assert [id(m) for m in batchnorm_layers(twin)] != [id(m) for m in batchnorm_layers(model)]
    assert all(any(m is own for own in twin.modules()) for m in batchnorm_layers(twin))
    reseed_random_layers(model, 7)
    assert model[2].seed == (7, 3)
