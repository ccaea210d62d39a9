"""Functional tensor operations for the NumPy DNN substrate.

These are the inference-grade primitives every network module in
``repro.codec`` is built from.  Conventions:

* activations are float64 arrays shaped ``(C, H, W)`` (no batch axis —
  the codec processes one frame at a time, as the paper's decoder does);
* convolution weights are ``(C_out, C_in, kH, kW)``;
* transposed-convolution weights are also ``(C_out, C_in, kH, kW)``
  where ``C_out`` is the number of *produced* channels (the layer-level
  view), internally mapped onto the scatter formulation.

Every convolution contracts through a BLAS GEMM:

* direct convolution: im2col columns, ``(C_out, C_in*kH*kW) @ cols``;
* transposed convolution: all kernel stamps at once,
  ``(C_out*kH*kW, C_in) @ (C_in, H*W)``, then a col2im scatter-add;
* deformable convolution (:mod:`repro.nn.deform`): the channel-last
  ``(*S, C)`` result of :func:`bilinear_sample` contracted per offset
  group.

Summation order therefore follows the BLAS build, so results may move
in the last ulp between builds; within one build they are
deterministic.  Correctness is pinned against ``scipy.signal`` and
per-tap references in the test suite, and the fast Winograd/FTA
kernels in :mod:`repro.core` are in turn pinned against these
implementations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pad2d",
    "im2col",
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "avg_pool2d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "softmax",
    "bilinear_sample",
    "conv_output_size",
    "deconv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def deconv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    return (size - 1) * stride - 2 * padding + kernel


def pad2d(x: np.ndarray, padding: int | tuple[int, int]) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of a (C, H, W) tensor.

    Hand-rolled (allocate + slice-assign) rather than ``np.pad``: this
    sits on the hot path of every convolution and np.pad's generic
    machinery costs more than the copy itself.
    """
    if isinstance(padding, int):
        ph = pw = padding
    else:
        ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    out[:, ph : ph + h, pw : pw + w] = x
    return out


def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: int = 1
) -> np.ndarray:
    """Unfold sliding windows into a (C*kH*kW, L) matrix.

    ``x`` is (C, H, W) already padded; L = H_out * W_out.  Built with
    stride tricks, so no data is copied until the final reshape.
    Returns ``(cols, (H_out, W_out))``.
    """
    c, h, w = x.shape
    kh, kw = kernel
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, ho, wo),
        strides=(sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(c * kh * kw, ho * wo), (ho, wo)


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D cross-correlation (the deep-learning "convolution").

    Shapes: x (C_in, H, W), weight (C_out, C_in, kH, kW) -> (C_out, H_out,
    W_out).
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    padded = pad2d(x, padding)
    cols, (ho, wo) = im2col(padded, (kh, kw), stride)
    out = weight.reshape(c_out, -1) @ cols
    out = out.reshape(c_out, ho, wo)
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv_transpose2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D transposed convolution (deconvolution).

    Shapes: x (C_in, H, W), weight (C_out, C_in, kH, kW) -> (C_out,
    (H-1)*s - 2p + kH, ...).  Implemented as scatter-add of weighted
    kernel stamps (one GEMM makes them all), the textbook adjoint of
    :func:`conv2d`.
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    _, h, w = x.shape
    full_h = (h - 1) * stride + kh
    full_w = (w - 1) * stride + kw
    # One GEMM makes every weighted stamp, rows ordered (C_out, kH, kW):
    # (C_out*kH*kW, C_in) @ (C_in, H*W); col2im then scatters them.
    w_mat = weight.transpose(0, 2, 3, 1).reshape(c_out * kh * kw, c_in)
    stamps = w_mat @ x.reshape(c_in, h * w)
    out = np.zeros((c_out, full_h, full_w))
    stamps = stamps.reshape(c_out, kh, kw, h, w)
    for dy in range(kh):
        for dx in range(kw):
            out[
                :,
                dy : dy + (h - 1) * stride + 1 : stride,
                dx : dx + (w - 1) * stride + 1 : stride,
            ] += stamps[:, dy, dx]
    if padding:
        out = out[:, padding : full_h - padding, padding : full_w - padding]
    if bias is not None:
        out += bias[:, None, None]
    return out


def max_pool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Max pooling over (C, H, W); trailing rows/cols that do not fill a
    window are dropped (floor semantics)."""
    stride = stride or kernel
    c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, ho, wo, kernel, kernel),
        strides=(sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    return windows.max(axis=(3, 4))


def avg_pool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Average pooling with the same window semantics as max_pool2d."""
    stride = stride or kernel
    c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, ho, wo, kernel, kernel),
        strides=(sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    return windows.mean(axis=(3, 4))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    return np.where(x >= 0.0, x, slope * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable split over sign.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=axis, keepdims=True)


#: Samples per block in :func:`bilinear_sample`, as a count of output
#: values: a block's corner temporaries (samples x C float64, 512 KiB)
#: then stay in a per-core L2 cache instead of streaming through DRAM.
_SAMPLE_BLOCK_VALUES = 1 << 16


def bilinear_sample(x: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample (C, H, W) at fractional coordinates with border clamping.

    ``ys``/``xs`` share an arbitrary shape S; the result is channel-last,
    ``(*S, C)``, so a caller can contract it with one GEMM.  This is the
    sampling kernel of the deformable convolution (DfConv) in the
    paper's deformable compensation module.

    The gather reads a channel-last ``(H*W, C)`` copy of the source: each
    corner index fetches one contiguous row of C values.  Samples are
    taken in cache-sized blocks; per block the four corner weights are
    formed once and the corners accumulate in place.
    """
    c, h, w = x.shape
    ys, xs = np.broadcast_arrays(ys, xs)
    shape = ys.shape
    ys = ys.reshape(-1)
    xs = xs.reshape(-1)
    rows = np.ascontiguousarray(
        x.transpose(1, 2, 0), dtype=np.result_type(x, ys, xs, 1.0)
    ).reshape(h * w, c)
    out = np.empty((ys.size, c), dtype=rows.dtype)
    block = max(1, _SAMPLE_BLOCK_VALUES // c)
    for start in range(0, ys.size, block):
        part = slice(start, start + block)
        by = np.clip(ys[part], 0.0, h - 1.0)
        bx = np.clip(xs[part], 0.0, w - 1.0)
        y0 = np.floor(by)
        x0 = np.floor(bx)
        fy = (by - y0)[:, None]
        fx = (bx - x0)[:, None]
        y0 = y0.astype(np.intp)
        x0 = x0.astype(np.intp)
        row0 = y0 * w
        row1 = np.minimum(y0 + 1, h - 1) * w
        x1 = np.minimum(x0 + 1, w - 1)
        gy = 1.0 - fy
        gx = 1.0 - fx
        acc = out[part]
        np.take(rows, row0 + x0, axis=0, out=acc)
        acc *= gy * gx
        for index, weight in (
            (row0 + x1, gy * fx),
            (row1 + x0, fy * gx),
            (row1 + x1, fy * fx),
        ):
            corner = rows[index]
            corner *= weight
            acc += corner
    return out.reshape(*shape, c)
