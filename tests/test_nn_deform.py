"""Tests for deformable convolution."""

import numpy as np
import pytest

from repro.nn import DeformConv2d, deform_conv2d
from repro.nn import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(4)


def _per_tap_reference(x, offsets, weight, stride, padding, groups):
    """Deformable conv one tap at a time: an independent bilinear lookup
    per (group, tap) contracted by einsum, accumulated over taps."""
    c_out, c_in, kh, kw = weight.shape
    _, h, w = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    off = offsets.reshape(groups, kh, kw, 2, ho, wo)
    base_y = (np.arange(ho) * stride - padding)[:, None]
    base_x = (np.arange(wo) * stride - padding)[None, :]
    size = c_in // groups
    out = np.zeros((c_out, ho, wo))
    for g in range(groups):
        xg = x[g * size : (g + 1) * size]
        for i in range(kh):
            for j in range(kw):
                ys = np.clip(base_y + i + off[g, i, j, 0], 0.0, h - 1.0)
                xs = np.clip(base_x + j + off[g, i, j, 1], 0.0, w - 1.0)
                y0 = np.floor(ys).astype(int)
                x0 = np.floor(xs).astype(int)
                y1 = np.minimum(y0 + 1, h - 1)
                x1 = np.minimum(x0 + 1, w - 1)
                fy = ys - y0
                fx = xs - x0
                sampled = (
                    xg[:, y0, x0] * (1 - fy) * (1 - fx)
                    + xg[:, y0, x1] * (1 - fy) * fx
                    + xg[:, y1, x0] * fy * (1 - fx)
                    + xg[:, y1, x1] * fy * fx
                )
                tap = weight[:, g * size : (g + 1) * size, i, j]
                out += np.einsum("oc,chw->ohw", tap, sampled)
    return out


class TestDeformConv2d:
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_fractional_offsets_match_per_tap_reference(self, rng, groups, stride):
        """Random fractional offsets (some pushing taps past the border)
        on an odd-sized input agree with the per-tap oracle."""
        x = rng.standard_normal((4, 9, 11))
        w = rng.standard_normal((6, 4, 3, 3))
        b = rng.standard_normal(6)
        ho = F.conv_output_size(9, 3, stride, 1)
        wo = F.conv_output_size(11, 3, stride, 1)
        offsets = 2.5 * rng.standard_normal((2 * groups * 9, ho, wo))
        out = deform_conv2d(x, offsets, w, b, stride, 1, groups)
        ref = _per_tap_reference(x, offsets, w, stride, 1, groups)
        assert out.shape == (6, ho, wo)
        assert np.abs(out - b[:, None, None] - ref).max() < 1e-12

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_row_blocks_match_per_tap_reference(
        self, rng, monkeypatch, rows, groups, stride
    ):
        """Blocks of 1 or 3 output rows, with a ragged last block on an
        odd-height map, agree with the per-tap oracle; each block takes
        one sampling call per group."""
        x = rng.standard_normal((4, 13, 11))
        w = rng.standard_normal((6, 4, 3, 3))
        ho = F.conv_output_size(13, 3, stride, 1)
        wo = F.conv_output_size(11, 3, stride, 1)
        monkeypatch.setattr(F, "_CONV_BLOCK_VALUES", wo * 9 * (4 // groups) * rows)
        blocks = []
        sample = F.bilinear_sample

        def counting_sample(table, ys, xs):
            blocks.append(ys.shape[0])
            return sample(table, ys, xs)

        monkeypatch.setattr(F, "bilinear_sample", counting_sample)
        offsets = 2.5 * rng.standard_normal((2 * groups * 9, ho, wo))
        out = deform_conv2d(x, offsets, w, None, stride, 1, groups)
        ref = _per_tap_reference(x, offsets, w, stride, 1, groups)
        # ho is 13 or 7, so 3-row blocks end in a ragged 1-row block.
        sizes = [rows] * (ho // rows) + [ho % rows] * (ho % rows > 0)
        assert blocks == [size for size in sizes for _ in range(groups)]
        assert np.abs(out - ref).max() < 1e-12

    def test_zero_offsets_match_plain_conv(self, rng):
        """DfConv with all-zero offsets must equal the regular conv."""
        x = rng.standard_normal((4, 10, 10))
        w = rng.standard_normal((6, 4, 3, 3))
        b = rng.standard_normal(6)
        offsets = np.zeros((2 * 2 * 9, 10, 10))
        out = deform_conv2d(x, offsets, w, b, stride=1, padding=1, groups=2)
        ref = F.conv2d(x, w, b, 1, 1)
        # Border taps read clamped samples instead of zero padding, so
        # compare the interior only.
        assert np.abs(out[:, 1:-1, 1:-1] - ref[:, 1:-1, 1:-1]).max() < 1e-10

    def test_integer_shift_offsets(self, rng):
        """A uniform (0, +1) offset equals convolving a shifted input."""
        x = rng.standard_normal((2, 12, 12))
        w = rng.standard_normal((2, 2, 3, 3))
        offsets = np.zeros((2 * 1 * 9, 12, 12))
        offsets[1::2] = 1.0  # dx = +1 everywhere, single group
        out = deform_conv2d(x, offsets, w, None, 1, 1, groups=1)
        shifted = np.roll(x, -1, axis=2)
        ref = F.conv2d(shifted, w, None, 1, 1)
        assert np.abs(out[:, 2:-2, 2:-2] - ref[:, 2:-2, 2:-2]).max() < 1e-10

    def test_group_offsets_independent(self, rng):
        """Different offsets per group affect only that group's channels."""
        x = rng.standard_normal((4, 8, 8))
        w = np.zeros((4, 4, 3, 3))
        for c in range(4):
            w[c, c, 1, 1] = 1.0  # per-channel identity kernel
        offsets = np.zeros((2 * 2 * 9, 8, 8))
        offsets[18 + 1 :: 2][: 0] = 0  # no-op, clarity
        # Group 1 (channels 2, 3) shifted by dx=+2.
        offsets = offsets.reshape(2, 9, 2, 8, 8)
        offsets[1, :, 1, :, :] = 2.0
        offsets = offsets.reshape(-1, 8, 8)
        out = deform_conv2d(x, offsets, w, None, 1, 1, groups=2)
        assert np.abs(out[:2, 2:-2, 2:-2] - x[:2, 2:-2, 2:-2]).max() < 1e-10
        ref_shift = np.roll(x[2:], -2, axis=2)
        assert np.abs(out[2:, 2:-2, 2:-2] - ref_shift[:, 2:-2, 2:-2]).max() < 1e-10

    def test_offset_shape_validated(self, rng):
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((2, 2, 3, 3))
        with pytest.raises(ValueError):
            deform_conv2d(x, np.zeros((10, 8, 8)), w, None, 1, 1, groups=1)

    def test_channel_group_divisibility(self, rng):
        x = rng.standard_normal((3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        offsets = np.zeros((2 * 2 * 9, 8, 8))
        with pytest.raises(ValueError):
            deform_conv2d(x, offsets, w, None, 1, 1, groups=2)


class TestDeformConvLayer:
    def test_layer_forward(self, rng):
        layer = DeformConv2d(4, 6, 3, groups=2, rng=rng)
        x = rng.standard_normal((4, 9, 9))
        offsets = 0.3 * rng.standard_normal((layer.offset_channels(), 9, 9))
        out = layer(x, offsets)
        assert out.shape == (6, 9, 9)

    def test_offset_channels(self):
        layer = DeformConv2d(4, 4, 3, groups=2)
        assert layer.offset_channels() == 2 * 2 * 9

    def test_op_kind(self):
        assert DeformConv2d(2, 2).op_kind == "dfconv"

    def test_smooth_in_offsets(self, rng):
        """Small offset perturbations produce small output changes
        (bilinear sampling is continuous)."""
        layer = DeformConv2d(2, 2, 3, groups=1, rng=rng)
        x = rng.standard_normal((2, 8, 8))
        off = 0.2 * rng.standard_normal((18, 8, 8))
        a = layer(x, off)
        b = layer(x, off + 1e-5)
        assert np.abs(a - b).max() < 1e-3
