"""2D convolution and pooling layers (NCHW layout) via im2col.

Convolution is the dominant MAC workload on the modeled accelerator; the
im2col + matmul formulation mirrors how the NVDLA-like dataflow streams
input-channel slices into the MAC array.  The matmul goes through
:func:`repro.nn.config.matmul`, so mixed precision applies here too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import config
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    return (size + 2 * padding - kernel) // stride + 1


#: One flat gather index per window geometry ``(C, Hp, Wp, kh, kw, stride)``:
#: entry ``[oy * OW + ox, (c * kh + i) * kw + j]`` is the offset of padded
#: pixel ``(c, i + stride * oy, j + stride * ox)`` inside one image.  A plain
#: dict is enough under the serving path's two threads (worst case both build
#: the same entry).  It holds OH*OW*C*kh*kw entries of the narrowest unsigned
#: dtype that fits per distinct geometry the process ever runs, i.e. a handful
#: of layer shapes per model (36 KB for 16 channels at 8x8, 3x3) and nothing
#: per batch size or lane count; the benchmark's ``peak_rss_mb`` bound covers it.
_GATHER_INDEX: dict[tuple[int, ...], np.ndarray] = {}


def _gather_index(c: int, hp: int, wp: int, kh: int, kw: int, stride: int) -> np.ndarray:
    key = (c, hp, wp, kh, kw, stride)
    index = _GATHER_INDEX.get(key)
    if index is None:
        oy = stride * np.arange((hp - kh) // stride + 1)
        ox = stride * np.arange((wp - kw) // stride + 1)
        window = (oy[:, None] * wp + ox).reshape(-1, 1)
        taps = (np.arange(c)[:, None, None] * hp + np.arange(kh)[:, None]) * wp + np.arange(kw)
        index = (window + taps.reshape(1, -1)).astype(np.min_scalar_type(c * hp * wp))
        _GATHER_INDEX[key] = index
    return index


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unfold NCHW input into a C-ordered float32 (N*OH*OW, C*KH*KW) patch
    matrix (other input dtypes are cast once).  ``out``, if given, is a
    float32 C-contiguous ``(N, OH*OW, C*KH*KW)`` array the patches are
    written into."""
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if padding:
        img = np.zeros((n, c, hp, wp), dtype=np.float32)
        img[:, :, padding : padding + h, padding : padding + w] = x
    else:
        img = np.ascontiguousarray(x, dtype=np.float32)
    index = _gather_index(c, hp, wp, kh, kw, stride)
    # One gather per image through the cached index (a 1x1 window without
    # padding is the same call: a transposing copy).  The index is in range
    # by construction; "clip" only skips take's bounds pass and lets it
    # write into ``out`` directly.
    col = img.reshape(n, -1).take(index, axis=1, out=out, mode="clip")
    return col.reshape(n * index.shape[0], index.shape[1])


def col2im(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a patch matrix (cast once to float32) back into NCHW,
    accumulating overlaps in window order ``(i, j)`` per pixel."""
    n, c, h, w = input_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh == kw == 1:
        # One tap: each patch value lands on a pixel of its own, so the
        # fold is the values added onto +0.0 (which, as the tap-plane sum
        # below does, turns a -0.0 into +0.0), placed at the stride.
        img = np.zeros((n, c, oh, ow), dtype=np.float32)
        img += col.reshape(n, oh, ow, c).astype(np.float32, copy=False).transpose(0, 3, 1, 2)
        if (oh, ow) != (hp, wp):
            block, img = img, np.zeros((n, c, hp, wp), dtype=np.float32)
            img[:, :, : stride * oh : stride, : stride * ow : stride] = block
        return img if padding == 0 else img[:, :, padding : padding + h, padding : padding + w]
    hr, wr = -(-hp // stride), -(-wp // stride)
    # Padded pixel (y, x) lives in phase (y % stride, x % stride) at
    # (y // stride, x // stride), so tap (i, j) of every patch lands in one
    # phase as an OHxOW block at unit stride.  One transposing copy lays
    # each tap out as a plane at the phase images' own pitch, zero outside
    # its block; adding plane (i, j) at its flat offset is then one 1-D add
    # for the whole batch, in the same (i, j) order per pixel.  The extra
    # +0.0 terms change no byte: a sum that starts at +0.0 is never -0.0.
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
        # The previous forward's patch matrix is dead by now; when the size
        # repeats (every training iteration) its storage takes the new one.
        rows = (folded.shape[0], oh * ow, c * k * k)
        recycle = self._col is not None and self._col.size == math.prod(rows)
        col = im2col(folded, k, k, s, p, out=self._col.reshape(rows) if recycle else None)
        col = col.reshape(*lanes, -1, c * k * k)
        self._col = col
        self._input_shape = x.shape
        self._folded_shape = folded.shape
        w_row = self.weight.data.reshape(*lanes, self.out_channels, -1)
        if self.training:
            out = config.matmul(col, w_row.swapaxes(-1, -2))
        else:
            # One GEMM per image (M = oh*ow, not n*oh*ow): BLAS picks its
            # kernel by M, so only then is an image's output independent
            # of its batch-mates (DESIGN.md decision 16).
            out = config.matmul(col.reshape(*lanes, n, oh * ow, -1),
                                w_row.swapaxes(-1, -2)[..., None, :, :])
            out = out.reshape(*lanes, -1, self.out_channels)
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
        dw = config.matmul(self._col.swapaxes(-1, -2), g2)  # (C*k*k, Cout)
        dw = dw.astype(np.float32, copy=False)
        dw = dw.swapaxes(-1, -2).reshape(self.weight.data.shape)
        dw = self.apply_fault_hook("weight_grad", dw, param="weight")
        self.weight.grad += dw
        if self.use_bias:
            self.bias.grad += g2.sum(axis=-2).astype(np.float32, copy=False)
        if not self.wants_input_grad:
            return None
        w_row = self.weight.data.reshape(*lanes, self.out_channels, -1)
        dcol = config.matmul(g2, w_row).astype(np.float32, copy=False)
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
        return x.mean(axis=(-2, -1)).astype(np.float32, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape = self._input_shape
        scale = 1.0 / (shape[-2] * shape[-1])
        dx = np.broadcast_to(grad[..., None, None], shape) * scale
        return dx.astype(np.float32, copy=False)
