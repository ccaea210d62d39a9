"""Deformable convolution (DfConv), used by deformable compensation.

The paper's deformable compensation module (Fig. 2(d)) warps the
reference feature F_{t-1} with ``DfConv(N, 3, 1, G=2)``: a 3x3
convolution whose sampling taps are displaced by learned per-pixel
offsets, with channels split into G offset groups.  On the accelerator
this operation runs on the dedicated Deformable Convolution Core (DCC),
separate from the SFTC, because its gather pattern defeats the fast
transform algorithms.

Offset layout follows the torchvision convention: a ``(2*G*kH*kW, H, W)``
tensor ordered ``(group, tap_row, tap_col, [dy, dx])``.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .init import he_normal
from .layers import Module, Parameter

__all__ = ["DeformConv2d", "deform_conv2d"]


def deform_conv2d(
    x: np.ndarray,
    offsets: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 1,
    groups: int = 1,
) -> np.ndarray:
    """Functional deformable convolution.

    Shapes: x (C_in, H, W); offsets (2*groups*kH*kW, H_out, W_out);
    weight (C_out, C_in, kH, kW).  Sampling clamps at borders (the
    hardware's gather unit does the same).
    """
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects {c_in}")
    if c_in % groups:
        raise ValueError(f"{c_in} channels not divisible into {groups} groups")
    _, h, w = x.shape
    ho = F.conv_output_size(h, kh, stride, padding)
    wo = F.conv_output_size(w, kw, stride, padding)
    expected = (2 * groups * kh * kw, ho, wo)
    if offsets.shape != expected:
        raise ValueError(f"offsets shape {offsets.shape}, expected {expected}")

    # Offsets regrouped so tap coordinates are laid out (ho, wo, kh, kw):
    # the sampled array then reshapes straight into a GEMM operand.
    off = offsets.reshape(groups, kh, kw, 2, ho, wo).transpose(0, 3, 4, 5, 1, 2)
    base_y = (np.arange(ho) * stride - padding)[:, None, None, None]
    base_x = (np.arange(wo) * stride - padding)[None, :, None, None]
    tap_y = np.arange(kh)[:, None]
    tap_x = np.arange(kw)[None, :]
    group_size = c_in // groups

    out = np.zeros((c_out, ho * wo))
    for g in range(groups):
        channels = slice(g * group_size, (g + 1) * group_size)
        # All kh*kw displaced taps of this group in one batched bilinear
        # lookup: (ho, wo, kh, kw, C_g), contracted by one GEMM.
        ys = base_y + tap_y + off[g, 0]
        xs = base_x + tap_x + off[g, 1]
        sampled = F.bilinear_sample(x[channels], ys, xs)
        w_mat = weight[:, channels].transpose(0, 2, 3, 1).reshape(c_out, -1)
        out += w_mat @ sampled.reshape(ho * wo, -1).T
    out = out.reshape(c_out, ho, wo)
    if bias is not None:
        out += bias[:, None, None]
    return out


class DeformConv2d(Module):
    """Deformable conv layer; offsets are a second forward argument."""

    op_kind = "dfconv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int | None = None,
        groups: int = 2,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if padding is None:
            padding = kernel_size // 2
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(
                rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.activation_quant = None

    def offset_channels(self) -> int:
        """Number of offset channels this layer consumes."""
        return 2 * self.groups * self.kernel_size * self.kernel_size

    def forward(self, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        out = deform_conv2d(
            x,
            offsets,
            self.weight.data,
            self.bias.data if self.bias is not None else None,
            self.stride,
            self.padding,
            self.groups,
        )
        if self.activation_quant is not None:
            out = self.activation_quant.fake_quant(out)
        return out
