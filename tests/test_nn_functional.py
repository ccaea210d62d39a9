"""Tests for the functional tensor ops against scipy references."""

import numpy as np
import pytest
from scipy import signal

from repro.nn import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def conv2d_reference(x, w, bias, stride, padding):
    """Independent conv implementation via scipy.signal.correlate2d."""
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        acc = np.zeros((xp.shape[1] - kh + 1, xp.shape[2] - kw + 1))
        for i in range(c_in):
            acc += signal.correlate2d(xp[i], w[o, i], mode="valid")
        out[o] = acc[::stride, ::stride]
        if bias is not None:
            out[o] += bias[o]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_scipy(self, rng, stride, padding):
        x = rng.standard_normal((3, 12, 14))
        w = rng.standard_normal((5, 3, 3, 3))
        b = rng.standard_normal(5)
        ours = F.conv2d(x, w, b, stride, padding)
        ref = conv2d_reference(x, w, b, stride, padding)
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() < 1e-10

    def test_1x1_conv_is_channel_mix(self, rng):
        x = rng.standard_normal((4, 6, 6))
        w = rng.standard_normal((2, 4, 1, 1))
        out = F.conv2d(x, w, None, 1, 0)
        ref = np.einsum("oi,ihw->ohw", w[:, :, 0, 0], x)
        assert np.abs(out - ref).max() < 1e-12

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(rng.standard_normal((2, 8, 8)), rng.standard_normal((4, 3, 3, 3)))

    def test_output_size_helper(self):
        assert F.conv_output_size(16, 3, 1, 1) == 16
        assert F.conv_output_size(16, 3, 2, 1) == 8
        assert F.conv_output_size(16, 4, 2, 1) == 8


class TestConvTranspose2d:
    @pytest.mark.parametrize(
        "c_x,c_y,k,stride,padding,size",
        [
            (3, 5, 3, 2, 1, 11),
            (6, 6, 4, 2, 0, 12),  # DeConv(N, 4, 2) of the synthesis stages
            (6, 6, 4, 2, 1, 12),
            (3, 36, 4, 2, 0, 12),  # DeConv(3, 4, 2): 36 channels back to 3
        ],
        ids=["k3-s2-p1", "k4-s2-p0", "k4-s2-p1", "k4-s2-p0-36to3"],
    )
    def test_adjoint_property(self, rng, c_x, c_y, k, stride, padding, size):
        """<conv(x), y> == <x, conv_transpose(y)> — the defining identity.

        Size chosen so the strided conv tiles exactly ((H + 2p - k)
        divisible by s), making the transposed conv restore H."""
        x = rng.standard_normal((c_x, size, size))
        w = rng.standard_normal((c_y, c_x, k, k))
        conv_x = F.conv2d(x, w, None, stride, padding)
        y = rng.standard_normal(conv_x.shape)
        lhs = float(np.sum(conv_x * y))
        # conv_transpose goes from c_y channels back to c_x: weight
        # (c_x, c_y, k, k)
        wt = np.transpose(w, (1, 0, 2, 3))
        back = F.conv_transpose2d(y, wt, None, stride, padding)
        assert back.shape == x.shape
        rhs = float(np.sum(x * back))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("stride,padding,k", [(2, 1, 4), (2, 0, 4), (1, 1, 3), (2, 1, 2)])
    def test_shapes(self, rng, stride, padding, k):
        x = rng.standard_normal((3, 7, 9))
        w = rng.standard_normal((4, 3, k, k))
        out = F.conv_transpose2d(x, w, None, stride, padding)
        eh = (7 - 1) * stride - 2 * padding + k
        ew = (9 - 1) * stride - 2 * padding + k
        assert out.shape == (4, eh, ew)

    def test_single_pixel_stamps_kernel(self, rng):
        x = np.zeros((1, 3, 3))
        x[0, 1, 1] = 2.0
        w = rng.standard_normal((1, 1, 4, 4))
        out = F.conv_transpose2d(x, w, None, 2, 0)
        assert np.abs(out[0, 2:6, 2:6] - 2.0 * w[0, 0]).max() < 1e-12

    def test_bias_added(self, rng):
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((3, 2, 4, 4))
        b = np.array([1.0, -2.0, 3.0])
        out = F.conv_transpose2d(x, w, b, 2, 1)
        out_nob = F.conv_transpose2d(x, w, None, 2, 1)
        assert np.allclose(out - out_nob, b[:, None, None])


class TestPooling:
    def test_max_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = F.max_pool2d(x, 2)
        assert out.shape == (1, 2, 2)
        assert np.array_equal(out[0], [[5, 7], [13, 15]])

    def test_avg_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = F.avg_pool2d(x, 2)
        assert np.array_equal(out[0], [[2.5, 4.5], [10.5, 12.5]])

    def test_odd_trailing_dropped(self):
        x = np.zeros((1, 5, 5))
        assert F.max_pool2d(x, 2).shape == (1, 2, 2)


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(F.relu(x), [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        x = np.array([-10.0, 10.0])
        assert np.array_equal(F.leaky_relu(x, 0.1), [-1.0, 10.0])

    def test_sigmoid_range_and_symmetry(self, rng):
        # Moderate magnitudes: strictly inside (0, 1).
        x = rng.standard_normal(100) * 5
        s = F.sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        assert np.allclose(F.sigmoid(-x), 1 - s, atol=1e-12)
        # Extreme magnitudes may saturate to exactly 0/1 in float64 but
        # must stay within [0, 1].
        hard = F.sigmoid(rng.standard_normal(100) * 50)
        assert np.all((hard >= 0) & (hard <= 1))

    def test_sigmoid_extremes_stable(self):
        assert F.sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert F.sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)

    def test_softmax_sums_to_one(self, rng):
        x = rng.standard_normal((4, 7))
        s = F.softmax(x, axis=-1)
        assert np.allclose(s.sum(axis=-1), 1.0)

    def test_softmax_shift_invariant(self, rng):
        x = rng.standard_normal(9)
        assert np.allclose(F.softmax(x), F.softmax(x + 1000.0))


class TestBilinearSample:
    def test_integer_coords_exact(self, rng):
        x = rng.standard_normal((2, 6, 6))
        ys, xs = np.meshgrid(np.arange(6.0), np.arange(6.0), indexing="ij")
        out = F.bilinear_sample(x, ys, xs)
        assert out.shape == (6, 6, 2)  # channel-last (*S, C)
        assert np.abs(out - x.transpose(1, 2, 0)).max() < 1e-12

    def test_halfway_interpolation(self):
        x = np.zeros((1, 2, 2))
        x[0] = [[0.0, 2.0], [4.0, 6.0]]
        out = F.bilinear_sample(x, np.array([[0.5]]), np.array([[0.5]]))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(3.0)

    def test_border_clamp(self):
        x = np.ones((2, 4, 4)) * np.array([5.0, -1.0])[:, None, None]
        out = F.bilinear_sample(x, np.array([[-3.0]]), np.array([[99.0]]))
        assert out.shape == (1, 1, 2)
        assert out[0, 0] == pytest.approx([5.0, -1.0])

    def test_non_contiguous_input_matches_copy(self, rng):
        x = rng.standard_normal((6, 7, 9))[1::2]
        assert not x.flags.c_contiguous
        ys = rng.uniform(-1.0, 8.0, (5, 3))
        xs = rng.uniform(-1.0, 10.0, (5, 3))
        out = F.bilinear_sample(x, ys, xs)
        assert np.array_equal(out, F.bilinear_sample(np.ascontiguousarray(x), ys, xs))

    def test_blocks_match_channel_first_reference(self, rng):
        """Enough samples to span several gather blocks (the last one
        partial) agree with a direct channel-first formulation."""
        c = 64
        x = rng.standard_normal((c, 5, 7))
        n = F._SAMPLE_BLOCK_VALUES // c * 5 // 2
        ys = rng.uniform(-1.0, 6.0, n)
        xs = rng.uniform(-1.0, 8.0, n)
        out = F.bilinear_sample(x, ys, xs)
        cy = np.clip(ys, 0.0, 4.0)
        cx = np.clip(xs, 0.0, 6.0)
        y0 = np.floor(cy).astype(int)
        x0 = np.floor(cx).astype(int)
        y1 = np.minimum(y0 + 1, 4)
        x1 = np.minimum(x0 + 1, 6)
        fy = cy - y0
        fx = cx - x0
        ref = (
            x[:, y0, x0] * (1 - fy) * (1 - fx)
            + x[:, y0, x1] * (1 - fy) * fx
            + x[:, y1, x0] * fy * (1 - fx)
            + x[:, y1, x1] * fy * fx
        )
        assert out.shape == (n, c)
        assert np.abs(out - ref.T).max() < 1e-12
