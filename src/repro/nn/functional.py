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

* direct convolution: im2col columns in blocks of output rows, each
  block ``(C_out, C_in*kH*kW) @ cols`` written in place into the
  output, so a block's columns stay in cache;
* transposed convolution: all kernel stamps at once,
  ``(C_out*kH*kW, C_in) @ (C_in, H*W)``, then a col2im scatter-add;
* deformable convolution (:mod:`repro.nn.deform`): in blocks of
  output rows, each offset group's displaced taps are gathered by
  :func:`bilinear_sample` (one sparse CSR interpolation product over a
  channel-last ``(H, W, C)`` table) and contracted by one GEMM into the
  block's output columns.

Summation order therefore follows the BLAS build, so results may move
in the last ulp between builds; within one build they are
deterministic.  The bilinear interpolation itself does no reordering:
it is bit-identical to the four-corner formula.  Correctness is pinned
against ``scipy.signal`` and per-tap references in the test suite, and
the fast Winograd/FTA kernels in :mod:`repro.core` are in turn pinned
against these implementations.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

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

    A row-blocked im2col GEMM: the padded input is unfolded one slab
    of output rows at a time, about :data:`_CONV_BLOCK_VALUES` column
    values per slab, and each slab's ``(C_out, C_in*kH*kW) @ cols`` is
    written in place into its rows of the output.  A block's columns
    stay in cache instead of streaming through DRAM.  A map whose
    columns fit in one block runs as a single GEMM.  Each output value
    is the same dot product either way, so blocking moves results by
    at most the BLAS build's ulp-level drift.
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    padded = pad2d(x, padding)
    ho = (padded.shape[1] - kh) // stride + 1
    wo = (padded.shape[2] - kw) // stride + 1
    w_mat = weight.reshape(c_out, -1)
    out = np.empty((c_out, ho * wo), dtype=np.result_type(padded, weight))
    block = max(1, _CONV_BLOCK_VALUES // max(1, w_mat.shape[1] * wo))
    for r0 in range(0, ho, block):
        r1 = min(r0 + block, ho)
        slab = padded[:, r0 * stride : (r1 - 1) * stride + kh]
        cols, _ = im2col(slab, (kh, kw), stride)
        np.matmul(w_mat, cols, out=out[:, r0 * wo : r1 * wo])
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


def _pool_windows(x: np.ndarray, kernel: int, stride: int | None) -> np.ndarray:
    """Read-only (C, H_out, W_out, k, k) view of the pooling windows;
    ``stride`` defaults to ``kernel``."""
    stride = stride or kernel
    c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(c, ho, wo, kernel, kernel),
        strides=(sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def max_pool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Max pooling over (C, H, W); trailing rows/cols that do not fill a
    window are dropped (floor semantics)."""
    return _pool_windows(x, kernel, stride).max(axis=(3, 4))


def avg_pool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Average pooling with the same window semantics as max_pool2d."""
    return _pool_windows(x, kernel, stride).mean(axis=(3, 4))


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


#: Column values per block in :func:`conv2d` and
#: :func:`repro.nn.deform.deform_conv2d` (1 MiB of float64): one block
#: of im2col columns or sampled taps then stays in a per-core L2 cache
#: instead of streaming through DRAM.
_CONV_BLOCK_VALUES = 1 << 17


def bilinear_sample(table: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample an (H, W, C) table at fractional coordinates, clamping at borders.

    ``ys``/``xs`` share an arbitrary shape S; the result is ``(*S, C)``,
    so a caller can contract it with one GEMM.  This is the sampling
    kernel of the deformable convolution (DfConv) in the paper's
    deformable compensation module.  The table is channel-last so that
    each corner reads one contiguous row of C values; the caller makes
    that layout once and reuses it across calls.

    The interpolation is one sparse product: a CSR matrix with four
    entries per sample, the corner weights ``gy*gx, gy*fx, fy*gx,
    fy*fx`` in corner order ``y0x0, y0x1, y1x0, y1x1``, times the
    ``(H*W, C)`` table.  Corners that border clamping makes coincide
    stay separate entries.  SciPy's CSR-times-dense loop starts each
    output row from zero and adds the four weighted corners in that
    order, so the result is bit-identical to the four-corner formula
    ``((c00*w00 + c01*w01) + c10*w10) + c11*w11``.
    """
    h, w, c = table.shape
    ys, xs = np.broadcast_arrays(ys, xs)
    shape = ys.shape
    by = np.clip(ys.reshape(-1), 0.0, h - 1.0)
    bx = np.clip(xs.reshape(-1), 0.0, w - 1.0)
    y0 = np.floor(by)
    x0 = np.floor(bx)
    fy = by - y0
    fx = bx - x0
    gy = 1.0 - fy
    gx = 1.0 - fx
    n = by.size
    if max(h * w, 4 * n) >= 2**31:
        raise ValueError(
            f"{n} samples of a {h}x{w} table overflow 32-bit CSR indices"
        )
    # 32-bit indices are what SciPy would pick for these sizes; building
    # them in that dtype spares it a checked downcast copy per call.
    y0 = y0.astype(np.int32)
    x0 = x0.astype(np.int32)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    x1 = np.minimum(x0 + 1, w - 1)
    indices = np.stack((row0 + x0, row0 + x1, row1 + x0, row1 + x1), axis=1)
    weights = np.stack((gy * gx, gy * fx, fy * gx, fy * fx), axis=1)
    interp = sparse.csr_matrix(
        (
            weights.reshape(-1),
            indices.reshape(-1),
            np.arange(0, 4 * n + 1, 4, dtype=np.int32),
        ),
        shape=(n, h * w),
    )
    return (interp @ table.reshape(h * w, c)).reshape(*shape, c)
