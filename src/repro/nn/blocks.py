"""Composite building blocks: residual, dense, squeeze-excite, NF blocks.

These provide the architectural ingredients of the paper's workload zoo
(Table 2): ResNet (residual + BatchNorm), DenseNet (dense connectivity),
EfficientNet (squeeze-excite), and NFNet (normalizer-free residual).  Each
block implements its own explicit backward so every internal operation
remains an injectable op site.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU, ScaledReLU, Sigmoid, SiLU
from repro.nn.conv import Conv2D, GlobalAvgPool2D
from repro.nn.linear import Dense
from repro.nn.module import Module, Sequential
from repro.nn.normalization import BatchNorm


class ResidualBlock(Module):
    """Basic ResNet block: conv-(BN)-ReLU-conv-(BN) + shortcut, then ReLU.

    ``use_bn=False`` gives the paper's Resnet_NoBN configuration, the one
    where SharpSlowDegrade becomes reachable (Sec. 4.2.3: it "can only
    occur if normalization layers are not present").
    """

    lane_native = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
        use_bn: bool = True,
        bn_momentum: float = 0.9,
    ):
        super().__init__()
        self.use_bn = bool(use_bn)
        self.add_module(
            "conv1",
            Conv2D(in_channels, out_channels, 3, rng, stride=stride, use_bias=not use_bn),
        )
        self.add_module(
            "conv2", Conv2D(out_channels, out_channels, 3, rng, use_bias=not use_bn)
        )
        if use_bn:
            self.add_module("bn1", BatchNorm(out_channels, momentum=bn_momentum))
            self.add_module("bn2", BatchNorm(out_channels, momentum=bn_momentum))
        self.add_module("relu1", ReLU())
        self.add_module("relu_out", ReLU())
        self.has_projection = stride != 1 or in_channels != out_channels
        if self.has_projection:
            self.add_module(
                "proj",
                Conv2D(in_channels, out_channels, 1, rng, stride=stride, padding=0,
                       use_bias=not use_bn),
            )
            if use_bn:
                self.add_module("proj_bn", BatchNorm(out_channels, momentum=bn_momentum))

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.conv1.forward(x)
        if self.use_bn:
            h = self.bn1.forward(h)
        h = self.relu1.forward(h)
        h = self.conv2.forward(h)
        if self.use_bn:
            h = self.bn2.forward(h)
        if self.has_projection:
            shortcut = self.proj.forward(x)
            if self.use_bn:
                shortcut = self.proj_bn.forward(shortcut)
        else:
            shortcut = x
        with np.errstate(over="ignore", invalid="ignore"):
            out = (h + shortcut).astype(np.float32, copy=False)
        return self.relu_out.forward(out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.relu_out.backward(grad)
        g_main = grad
        g_short = grad
        if self.use_bn:
            g_main = self.bn2.backward(g_main)
        g_main = self.conv2.backward(g_main)
        g_main = self.relu1.backward(g_main)
        if self.use_bn:
            g_main = self.bn1.backward(g_main)
        g_main = self.conv1.backward(g_main)
        if self.has_projection:
            if self.use_bn:
                g_short = self.proj_bn.backward(g_short)
            g_short = self.proj.backward(g_short)
        with np.errstate(over="ignore", invalid="ignore"):
            return (g_main + g_short).astype(np.float32, copy=False)


class DenseLayer(Module):
    """One DenseNet layer: BN-ReLU-conv producing ``growth_rate`` channels."""

    def __init__(self, in_channels: int, growth_rate: int, rng: np.random.Generator,
                 bn_momentum: float = 0.9):
        super().__init__()
        self.add_module("bn", BatchNorm(in_channels, momentum=bn_momentum))
        self.add_module("relu", ReLU())
        self.add_module("conv", Conv2D(in_channels, growth_rate, 3, rng, use_bias=False))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.conv.forward(self.relu.forward(self.bn.forward(x)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.bn.backward(self.relu.backward(self.conv.backward(grad)))


class DenseBlock(Module):
    """DenseNet block: each layer consumes the concatenation of all
    previous feature maps and contributes ``growth_rate`` new channels."""

    def __init__(self, in_channels: int, growth_rate: int, num_layers: int,
                 rng: np.random.Generator, bn_momentum: float = 0.9):
        super().__init__()
        self.growth_rate = int(growth_rate)
        self.num_layers = int(num_layers)
        self.dense_layers: list[DenseLayer] = []
        channels = in_channels
        for i in range(num_layers):
            layer = DenseLayer(channels, growth_rate, rng, bn_momentum=bn_momentum)
            self.add_module(f"layer{i}", layer)
            self.dense_layers.append(layer)
            channels += growth_rate
        self.out_channels = channels
        self._widths: list[int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        features = x
        self._widths = [x.shape[1]]
        for layer in self.dense_layers:
            new = layer.forward(features)
            self._widths.append(new.shape[1])
            features = np.concatenate([features, new], axis=1)
        return features

    def backward(self, grad: np.ndarray) -> np.ndarray:
        # Walk layers in reverse: split off the channels each layer
        # contributed, backprop through the layer, and fold its input
        # gradient back into the accumulated gradient of the concatenation.
        for i in range(self.num_layers - 1, -1, -1):
            width = self._widths[i + 1]
            g_new = grad[:, -width:]
            grad = grad[:, :-width].copy()
            g_input = self.dense_layers[i].backward(g_new)
            with np.errstate(over="ignore", invalid="ignore"):
                grad += g_input
        return grad.astype(np.float32)


class TransitionLayer(Module):
    """DenseNet transition: BN-ReLU-1x1conv then 2x2 average pooling."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator,
                 bn_momentum: float = 0.9):
        super().__init__()
        from repro.nn.conv import AvgPool2D

        self.add_module("bn", BatchNorm(in_channels, momentum=bn_momentum))
        self.add_module("relu", ReLU())
        self.add_module("conv", Conv2D(in_channels, out_channels, 1, rng, padding=0,
                                       use_bias=False))
        self.add_module("pool", AvgPool2D(2))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.pool.forward(
            self.conv.forward(self.relu.forward(self.bn.forward(x)))
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.bn.backward(
            self.relu.backward(self.conv.backward(self.pool.backward(grad)))
        )


class SqueezeExcite(Module):
    """Squeeze-and-excitation channel gating (EfficientNet ingredient)."""

    def __init__(self, channels: int, rng: np.random.Generator, reduction: int = 4):
        super().__init__()
        hidden = max(channels // reduction, 1)
        self.add_module("pool", GlobalAvgPool2D())
        self.add_module("fc1", Dense(channels, hidden, rng))
        self.add_module("act", SiLU())
        self.add_module("fc2", Dense(hidden, channels, rng))
        self.add_module("gate", Sigmoid())
        self._x: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        squeezed = self.pool.forward(x)
        scale = self.gate.forward(self.fc2.forward(self.act.forward(self.fc1.forward(squeezed))))
        self._scale = scale
        with np.errstate(over="ignore", invalid="ignore"):
            return (x * scale[:, :, None, None]).astype(np.float32, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            d_scale = (grad * self._x).sum(axis=(2, 3)).astype(np.float32, copy=False)
            dx_direct = (grad * self._scale[:, :, None, None]).astype(np.float32, copy=False)
        d_squeezed = self.fc1.backward(
            self.act.backward(self.fc2.backward(self.gate.backward(d_scale)))
        )
        dx_pool = self.pool.backward(d_squeezed)
        with np.errstate(over="ignore", invalid="ignore"):
            return (dx_direct + dx_pool).astype(np.float32, copy=False)


class MBConvBlock(Module):
    """Simplified EfficientNet MBConv: expand-conv, SE gate, project, skip."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator,
                 expansion: int = 2, stride: int = 1, bn_momentum: float = 0.9):
        super().__init__()
        hidden = in_channels * expansion
        self.add_module("expand", Conv2D(in_channels, hidden, 1, rng, padding=0,
                                         use_bias=False))
        self.add_module("bn1", BatchNorm(hidden, momentum=bn_momentum))
        self.add_module("act1", SiLU())
        self.add_module("conv", Conv2D(hidden, hidden, 3, rng, stride=stride,
                                       use_bias=False))
        self.add_module("bn2", BatchNorm(hidden, momentum=bn_momentum))
        self.add_module("act2", SiLU())
        self.add_module("se", SqueezeExcite(hidden, rng))
        self.add_module("project", Conv2D(hidden, out_channels, 1, rng, padding=0,
                                          use_bias=False))
        self.add_module("bn3", BatchNorm(out_channels, momentum=bn_momentum))
        self.has_skip = stride == 1 and in_channels == out_channels

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.act1.forward(self.bn1.forward(self.expand.forward(x)))
        h = self.act2.forward(self.bn2.forward(self.conv.forward(h)))
        h = self.se.forward(h)
        h = self.bn3.forward(self.project.forward(h))
        if self.has_skip:
            with np.errstate(over="ignore", invalid="ignore"):
                h = (h + x).astype(np.float32, copy=False)
        return h

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.project.backward(self.bn3.backward(grad))
        g = self.se.backward(g)
        g = self.conv.backward(self.bn2.backward(self.act2.backward(g)))
        g = self.expand.backward(self.bn1.backward(self.act1.backward(g)))
        if self.has_skip:
            with np.errstate(over="ignore", invalid="ignore"):
                g = (g + grad).astype(np.float32, copy=False)
        return g


class NFBlock(Module):
    """Normalizer-free residual block (NFNet ingredient).

    ``out = x + alpha * branch(x / beta)`` with variance-preserving scaled
    ReLU activations instead of BatchNorm.  Because there are no moving
    statistics, latent outcomes in NFNet come solely from optimizer history
    values — matching the paper's observation that SharpSlowDegrade occurs
    for NFNet and Resnet_NoBN.
    """

    def __init__(self, channels: int, rng: np.random.Generator,
                 alpha: float = 0.2, beta: float = 1.0):
        super().__init__()
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.add_module("act1", ScaledReLU())
        self.add_module("conv1", Conv2D(channels, channels, 3, rng))
        self.add_module("act2", ScaledReLU())
        self.add_module("conv2", Conv2D(channels, channels, 3, rng))

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.act1.forward(x / self.beta)
        h = self.conv1.forward(h)
        h = self.act2.forward(h)
        h = self.conv2.forward(h)
        with np.errstate(over="ignore", invalid="ignore"):
            return (x + self.alpha * h).astype(np.float32, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = (self.alpha * grad).astype(np.float32, copy=False)
        g = self.conv2.backward(g)
        g = self.act2.backward(g)
        g = self.conv1.backward(g)
        g = self.act1.backward(g) / self.beta
        with np.errstate(over="ignore", invalid="ignore"):
            return (grad + g).astype(np.float32, copy=False)


class InceptionBlock(Module):
    """GoogLeNet-style inception block (parallel 1x1 / 3x3 / 5x5 / pool
    branches, channel-concatenated).

    GoogleNet is one of the five models the paper validates its software
    fault models on (Sec. 3.2.3); the branching dataflow also exercises
    fault propagation through parallel paths that re-merge.
    """

    def __init__(self, in_channels: int, branch_channels: int,
                 rng: np.random.Generator, bn_momentum: float = 0.9):
        super().__init__()
        from repro.nn.conv import AvgPool2D

        self.add_module("b1", Conv2D(in_channels, branch_channels, 1, rng,
                                     padding=0, use_bias=False))
        self.add_module("b3", Conv2D(in_channels, branch_channels, 3, rng,
                                     use_bias=False))
        self.add_module("b5", Conv2D(in_channels, branch_channels, 5, rng,
                                     use_bias=False))
        self.add_module("bp", Conv2D(in_channels, branch_channels, 1, rng,
                                     padding=0, use_bias=False))
        self.add_module("bn", BatchNorm(4 * branch_channels, momentum=bn_momentum))
        self.add_module("relu", ReLU())
        self.out_channels = 4 * branch_channels
        self._branch_widths: list[int] | None = None
        self._pool_cache: np.ndarray | None = None

    def _pool(self, x: np.ndarray) -> np.ndarray:
        # 3x3 average pooling, stride 1, zero "same" padding (count
        # includes padding, so the adjoint is a plain scatter).
        padded = np.pad(x, [(0, 0), (0, 0), (1, 1), (1, 1)])
        out = np.zeros_like(x)
        for dy in range(3):
            for dx in range(3):
                out += padded[:, :, dy : dy + x.shape[2], dx : dx + x.shape[3]]
        return (out / 9.0).astype(np.float32, copy=False)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        pooled = self._pool(x)
        branches = [
            self.b1.forward(x),
            self.b3.forward(x),
            self.b5.forward(x),
            self.bp.forward(pooled),
        ]
        self._branch_widths = [b.shape[1] for b in branches]
        merged = np.concatenate(branches, axis=1)
        return self.relu.forward(self.bn.forward(merged))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.bn.backward(self.relu.backward(grad))
        lo = 0
        branch_grads = []
        for width in self._branch_widths:
            branch_grads.append(grad[:, lo : lo + width])
            lo += width
        g1 = self.b1.backward(np.ascontiguousarray(branch_grads[0]))
        g3 = self.b3.backward(np.ascontiguousarray(branch_grads[1]))
        g5 = self.b5.backward(np.ascontiguousarray(branch_grads[2]))
        gp_pooled = self.bp.backward(np.ascontiguousarray(branch_grads[3]))
        # Adjoint of the stride-1 3x3 zero-padded average pool: scatter
        # each output gradient over its 3x3 window, then crop the padding.
        n, c, h, w = self._x_shape
        padded = np.zeros((n, c, h + 2, w + 2), dtype=np.float32)
        for dy in range(3):
            for dx in range(3):
                padded[:, :, dy : dy + h, dx : dx + w] += gp_pooled / 9.0
        gp = padded[:, :, 1 : 1 + h, 1 : 1 + w]
        with np.errstate(over="ignore", invalid="ignore"):
            return (g1 + g3 + g5 + gp).astype(np.float32, copy=False)


def conv_bn_act(
    in_channels: int,
    out_channels: int,
    rng: np.random.Generator,
    stride: int = 1,
    use_bn: bool = True,
    bn_momentum: float = 0.9,
) -> Sequential:
    """Convenience stem: Conv2D [+ BatchNorm] + ReLU."""
    layers: list[Module] = [
        Conv2D(in_channels, out_channels, 3, rng, stride=stride, use_bias=not use_bn)
    ]
    if use_bn:
        layers.append(BatchNorm(out_channels, momentum=bn_momentum))
    layers.append(ReLU())
    return Sequential(*layers)
