"""End-to-end tests for the CTVC-Net codec (FP / FXP / Sparse)."""

import numpy as np
import pytest

from repro.codec import CTVCConfig, CTVCNet, SequenceBitstream
from repro.metrics import psnr
from repro.video import SceneConfig, generate_sequence


@pytest.fixture(scope="module")
def frames():
    return generate_sequence(SceneConfig(height=64, width=96, frames=3, seed=7))


def small_net(qstep=8.0, seed=1):
    return CTVCNet(CTVCConfig(channels=12, qstep=qstep, gop=8, seed=seed))


@pytest.fixture(scope="module")
def coded(frames):
    """One encode/decode pass shared by several tests (it is the
    expensive part)."""
    net = small_net()
    stream = net.encode_sequence(frames)
    blob = stream.serialize()
    decoded = net.decode_sequence(SequenceBitstream.parse(blob))
    return net, stream, blob, decoded


class TestEndToEnd:
    def test_decodes_all_frames(self, frames, coded):
        _, _, _, decoded = coded
        assert len(decoded) == len(frames)
        for frame in decoded:
            assert frame.shape == frames[0].shape
            assert frame.min() >= 0.0 and frame.max() <= 255.0

    def test_quality_reasonable(self, frames, coded):
        _, _, _, decoded = coded
        mean_psnr = np.mean([psnr(a, b) for a, b in zip(frames, decoded)])
        assert mean_psnr > 26.0

    def test_gop_structure(self, coded):
        _, stream, _, _ = coded
        types = [p.frame_type for p in stream.packets]
        assert types == ["I", "P", "P"]

    def test_p_frame_packets_structured(self, coded):
        _, stream, _, _ = coded
        packet = stream.packets[1]
        assert set(packet.chunks) == {"motion", "residual"}
        assert {"am", "ar", "mm", "rm"} <= set(packet.meta)

    def test_header_contents(self, coded):
        _, stream, _, _ = coded
        assert stream.header["codec"] == "ctvc-net"
        assert stream.header["channels"] == 12

    def test_deterministic_encode(self, frames, coded):
        _, _, blob, _ = coded
        net = small_net()
        assert net.encode_sequence(frames).serialize() == blob


class TestClosedLoop:
    def test_encoder_decoder_exact_match(self, frames):
        net = small_net()
        packet, encoder_recon = net.encode_inter(frames[1], frames[0])
        decoder_recon = net.decode_inter(packet, frames[0])
        assert np.array_equal(encoder_recon, decoder_recon)

    def test_encoder_decoder_exact_match_row_blocked(self, frames, monkeypatch):
        """Force conv2d and deform_conv2d onto small row blocks: the
        closed loop must stay bit-exact with the multi-block paths in
        both directions."""
        from repro.nn import deform
        from repro.nn import functional as F

        monkeypatch.setattr(F, "_CONV_BLOCK_VALUES", 1 << 13)
        calls = {"conv2d": 0, "im2col": 0, "deform_conv2d": 0, "bilinear_sample": 0}
        conv2d, im2col = F.conv2d, F.im2col
        deform_conv2d, bilinear_sample = deform.deform_conv2d, F.bilinear_sample

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(F, "conv2d", counted("conv2d", conv2d))
        monkeypatch.setattr(F, "im2col", counted("im2col", im2col))
        monkeypatch.setattr(
            deform, "deform_conv2d", counted("deform_conv2d", deform_conv2d)
        )
        monkeypatch.setattr(
            F, "bilinear_sample", counted("bilinear_sample", bilinear_sample)
        )
        net = small_net()
        packet, encoder_recon = net.encode_inter(frames[1], frames[0])
        decoder_recon = net.decode_inter(packet, frames[0])
        assert calls["im2col"] > 2 * calls["conv2d"] > 0
        # DfConv has G = 2 offset groups: more than one block per group.
        assert calls["bilinear_sample"] > 2 * calls["deform_conv2d"] > 0
        assert np.array_equal(encoder_recon, decoder_recon)

    def test_p_frame_beats_frame_copy(self, frames):
        net = small_net()
        _, recon = net.encode_inter(frames[1], frames[0])
        assert psnr(frames[1], recon) > psnr(frames[1], frames[0])


class TestRateControl:
    def test_rd_monotone(self, frames):
        points = []
        for qstep in (2.0, 8.0, 32.0):
            net = small_net(qstep=qstep)
            stream = net.encode_sequence(frames)
            decoded = net.decode_sequence(
                SequenceBitstream.parse(stream.serialize())
            )
            bpp = stream.bits_per_pixel(64, 96)
            quality = float(np.mean([psnr(a, b) for a, b in zip(frames, decoded)]))
            points.append((bpp, quality))
        bpps, quals = zip(*points)
        assert bpps[0] > bpps[1] > bpps[2]
        assert quals[0] > quals[1] > quals[2]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            small_net().encode_sequence([])

    def test_p_frame_before_i_rejected(self, frames):
        net = small_net()
        stream = net.encode_sequence(frames)
        stream.packets = stream.packets[1:]
        with pytest.raises(ValueError):
            net.decode_sequence(stream)


class TestVariants:
    """The paper's Table I ablation: FP vs FXP vs Sparse."""

    @pytest.fixture(scope="class")
    def variant_psnrs(self, frames):
        out = {}
        for variant in ("fp", "fxp", "sparse"):
            net = small_net()
            if variant == "fxp":
                net.apply_fxp()
            elif variant == "sparse":
                net.apply_sparse(rho=0.5)
            stream = net.encode_sequence(frames)
            decoded = net.decode_sequence(
                SequenceBitstream.parse(stream.serialize())
            )
            out[variant] = float(
                np.mean([psnr(a, b) for a, b in zip(frames, decoded)])
            )
        return out

    def test_fxp_close_to_fp(self, variant_psnrs):
        """W16/A12 quantization costs almost nothing (paper: FXP row
        within ~1 BDBR point of FP)."""
        assert abs(variant_psnrs["fp"] - variant_psnrs["fxp"]) < 0.3

    def test_sparse_close_to_fp(self, variant_psnrs):
        """50% sparsity maintains compression efficiency (the paper's
        central algorithmic claim)."""
        assert variant_psnrs["fp"] - variant_psnrs["sparse"] < 1.0

    def test_variant_labels(self, frames):
        net = small_net()
        assert net.variant == "fp"
        net.apply_fxp()
        assert net.variant == "fxp"
        net.apply_sparse()
        assert net.variant == "sparse"

    def test_sparse_installs_backends(self):
        net = small_net()
        net.apply_sparse(rho=0.5)
        backends = [
            module
            for _, module in net.frame_reconstruction.named_modules()
            if getattr(module, "compute_backend", None) is not None
        ]
        assert backends  # fast-sparse executors active

    def test_sparse_closed_loop_still_exact(self, frames):
        net = small_net()
        net.apply_sparse(rho=0.5)
        packet, encoder_recon = net.encode_inter(frames[1], frames[0])
        assert np.array_equal(encoder_recon, net.decode_inter(packet, frames[0]))


class TestModuleInventory:
    def test_decoder_modules_are_fig9b_bars(self):
        net = small_net()
        assert list(net.decoder_modules()) == [
            "feature_extraction",
            "motion_synthesis",
            "deformable_compensation",
            "residual_synthesis",
            "frame_reconstruction",
        ]

    def test_all_modules_adds_encoder_side(self):
        net = small_net()
        assert "motion_estimation" in net.all_modules()
