"""2D convolution and pooling layers (NCHW layout) via im2col.

Convolution is the dominant MAC workload on the modeled accelerator; the
im2col + matmul formulation mirrors how the NVDLA-like dataflow streams
input-channel slices into the MAC array.  The matmul goes through
:func:`repro.nn.config.matmul`, so mixed precision applies here too.
"""

from __future__ import annotations

import numpy as np

from repro.nn import config
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW input into a (N*OH*OW, C*KH*KW) patch matrix."""
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
    # Degenerate shapes (one image, 1x1 window) let the reshape return a
    # Fortran-ordered view, and BLAS then rounds matrix-vector products
    # differently than for the usual copy; always hand back C order.
    return np.ascontiguousarray(col.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1))


def col2im(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a patch matrix back into NCHW, accumulating overlaps."""
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


class Conv2D(Module):
    """2D convolution with explicit backward.

    ``N_l`` (Algorithm 1's partial-sum count per output neuron) is
    ``in_channels * kh * kw``, exposed as :attr:`fan_in`.
    """

    lane_native = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int | None = None,
        use_bias: bool = True,
    ):
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding) if padding is not None else kernel_size // 2
        self.use_bias = bool(use_bias)
        k = self.kernel_size
        fan_in = in_channels * k * k
        self.add_param("weight", he_normal(rng, (out_channels, in_channels, k, k), fan_in=fan_in))
        if use_bias:
            self.add_param("bias", zeros((out_channels,)))
        self._col: np.ndarray | None = None
        self._input_shape: tuple[int, ...] | None = None
        self._folded_shape: tuple[int, int, int, int] | None = None
        self._out: np.ndarray | None = None

    @property
    def fan_in(self) -> int:
        return self.in_channels * self.kernel_size * self.kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        lanes, (n, c, h, w) = x.shape[:-4], x.shape[-4:]
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        k, s, p = self.kernel_size, self.stride, self.padding
        oh, ow = conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)
        # Lanes fold into im2col's batch axis: its patch rows stay one
        # contiguous block per image, so each lane's block of rows is the
        # plain call's patch matrix.
        folded = x.reshape(-1, c, h, w)
        col = im2col(folded, k, k, s, p).reshape(*lanes, -1, c * k * k)
        self._col = col
        self._input_shape = x.shape
        self._folded_shape = folded.shape
        w_row = self.weight.data.reshape(*lanes, self.out_channels, -1)
        out = config.matmul(col, w_row.swapaxes(-1, -2))
        if self.use_bias:
            out = out + self.bias.data[..., None, :]
        # (..., oh, ow, Cout) -> (..., Cout, oh, ow) as two swaps, a tenth
        # of np.moveaxis's per-call cost.
        out = out.reshape(*lanes, n, oh, ow, self.out_channels)
        out = out.swapaxes(-1, -3).swapaxes(-1, -2)
        out = np.ascontiguousarray(out, dtype=np.float32)
        out = self.apply_fault_hook("forward", out)
        # Cached post-hook so integrity checkers (ABFT) see what the
        # accelerator actually produced, faults included.
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        lanes = self._input_shape[:-4]
        g2 = grad.swapaxes(-3, -1).swapaxes(-3, -2).reshape(*lanes, -1, self.out_channels)
        dw = config.matmul(self._col.swapaxes(-1, -2), g2).astype(np.float32)  # (C*k*k, Cout)
        dw = dw.swapaxes(-1, -2).reshape(self.weight.data.shape)
        dw = self.apply_fault_hook("weight_grad", dw, param="weight")
        self.weight.grad += dw
        if self.use_bias:
            self.bias.grad += g2.sum(axis=-2).astype(np.float32)
        w_row = self.weight.data.reshape(*lanes, self.out_channels, -1)
        dcol = config.matmul(g2, w_row).astype(np.float32)
        dx = col2im(dcol.reshape(-1, dcol.shape[-1]), self._folded_shape,
                    self.kernel_size, self.kernel_size, self.stride, self.padding)
        return self.apply_fault_hook("input_grad", dx.reshape(self._input_shape))


class MaxPool2D(Module):
    """Max pooling with cached argmax for the backward pass."""

    def __init__(self, pool_size: int = 2, stride: int | None = None):
        super().__init__()
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        self._argmax: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.pool_size, self.stride
        oh, ow = conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0)
        col = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)  # (N*C*oh*ow, k*k)
        self._argmax = col.argmax(axis=1)
        self._input_shape = x.shape
        out = col.max(axis=1).reshape(n, c, oh, ow)
        return np.ascontiguousarray(out, dtype=np.float32)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._input_shape
        k, s = self.pool_size, self.stride
        flat = grad.reshape(-1)
        dcol = np.zeros((flat.size, k * k), dtype=np.float32)
        dcol[np.arange(flat.size), self._argmax] = flat
        dx = col2im(dcol, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class AvgPool2D(Module):
    """Average pooling."""

    def __init__(self, pool_size: int = 2, stride: int | None = None):
        super().__init__()
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        self._input_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.pool_size, self.stride
        oh, ow = conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0)
        col = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        self._input_shape = x.shape
        out = col.mean(axis=1).reshape(n, c, oh, ow)
        return np.ascontiguousarray(out, dtype=np.float32)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._input_shape
        k, s = self.pool_size, self.stride
        flat = grad.reshape(-1)
        dcol = np.repeat(flat[:, None] / (k * k), k * k, axis=1).astype(np.float32)
        dx = col2im(dcol, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class GlobalAvgPool2D(Module):
    """Global average pooling: NCHW -> NC."""

    lane_native = True

    def __init__(self):
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.mean(axis=(-2, -1)).astype(np.float32)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape = self._input_shape
        scale = 1.0 / (shape[-2] * shape[-1])
        return (np.broadcast_to(grad[..., None, None], shape) * scale).astype(np.float32)
