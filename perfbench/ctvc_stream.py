"""``ctvc-cif-stream``: CTVC-Net at the paper's operating point on CIF.

One closed-loop stream: the clip is encoded frame by frame through
``open_encoder()``, serialized, parsed, and decoded frame by frame
through ``open_decoder()``; each frame waits for the previous one.
The clip is re-coded until the run's time is spent, and every pass
must produce the same stream bytes and decoded frames.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import time

from . import ledger
from .common import Reference, median, timed_loop
from .tracer import Tracer

HEIGHT, WIDTH, FRAMES = 288, 352, 3
CHANNELS = 36
SETUP_REPEATS = 3
#: machine-speed reference matching this workload's NumPy-bound mix
REFERENCE = "numpy"
#: decoded frames below this PSNR mean the round trip is broken
PSNR_FLOOR_DB = 20.0
#: the module rows plus entropy should cover this share of the traced
#: wall time; below it the ledger has lost track of where time goes
CLOSURE_FLOOR = 0.95


def _config(seed: int) -> dict:
    return {
        "codec": {"channels": CHANNELS, "entropy_backend": "rans"},
        "scene": {"height": HEIGHT, "width": WIDTH, "frames": FRAMES, "seed": seed},
    }


def _build(seed: int):
    from repro.codec import CTVCConfig, CTVCNet
    from repro.video import SceneConfig, generate_sequence

    config = _config(seed)
    net = CTVCNet(CTVCConfig(**config["codec"]))
    frames = generate_sequence(SceneConfig(**config["scene"]))
    return net, frames


def _code_pass(
    net, frames, tracer: Tracer | None, phase: ledger.Phase | None,
    reference: Reference | None = None,
) -> dict:
    """Encode, serialize, parse and decode the clip once.  With a
    ``reference``, every step's time is also scaled to reference speed."""
    import numpy as np

    from repro.codec import SequenceBitstream
    from repro.metrics import psnr

    def frame_span(direction):
        if tracer is None:
            return contextlib.nullcontext()
        phase.direction = direction
        return tracer.span(f"codec.{direction}.frame", "codec")

    def timed(work):
        if reference is not None:
            return reference.timed(work)
        start = time.perf_counter()
        result = work()
        raw = time.perf_counter() - start
        return result, raw, raw

    def encode(frame):
        with frame_span("encode"):
            return encoder.push(frame)

    def decode(packet):
        with frame_span("decode"):
            decoder.push(packet)
            return decoder.pull()

    def container():
        blob = SequenceBitstream(header=encoder.header, packets=packets).serialize()
        return blob, SequenceBitstream.parse(blob)

    times = {"encode_s": [], "decode_s": [], "encode_scaled_s": [], "decode_scaled_s": []}
    encoder = net.open_encoder()
    packets = []
    for frame in frames:
        produced, raw, scaled = timed(lambda: encode(frame))
        packets += produced
        times["encode_s"].append(raw)
        times["encode_scaled_s"].append(scaled)
    packets += encoder.flush()
    types = [packet.frame_type for packet in packets]

    (blob, parsed), container_s, container_scaled_s = timed(container)
    # checked untraced only, so container.write counts one write per pass
    reserialized = tracer is not None or parsed.serialize() == blob

    decoder = net.open_decoder(parsed.header, version=parsed.version)
    decoded = []
    for packet in parsed.packets:
        frame, raw, scaled = timed(lambda: decode(packet))
        decoded.append(frame)
        times["decode_s"].append(raw)
        times["decode_scaled_s"].append(scaled)

    frames_digest = hashlib.sha256()
    for frame in decoded:
        frames_digest.update(np.ascontiguousarray(frame).tobytes())
    psnrs = [float(psnr(a, b)) for a, b in zip(frames, decoded)]
    return {
        "types": types,
        **times,
        "container_s": container_s,
        "container_scaled_s": container_scaled_s,
        "stream_sha256": hashlib.sha256(blob).hexdigest(),
        "frames_sha256": frames_digest.hexdigest(),
        "stream_bytes": len(blob),
        "psnr_db": float(np.mean(psnrs)),
        "ok": reserialized and len(decoded) == len(frames) and min(psnrs) >= PSNR_FLOOR_DB,
    }


def _clip_seconds(passes: list[dict], key: str) -> float:
    """Clip time from per-frame-type medians (robust to one slow frame)."""
    types = passes[0]["types"]
    by_type: dict[str, list[float]] = {}
    for record in passes:
        for frame_type, seconds in zip(record["types"], record[key]):
            by_type.setdefault(frame_type, []).append(seconds)
    return sum(median(by_type[frame_type]) for frame_type in types)


def run(seed: int, seconds: float, trace: bool, reference: Reference) -> dict:
    tracer = Tracer()
    phase = ledger.Phase()
    if trace:
        ledger.install_video(tracer)
    setups = []
    for _ in range(SETUP_REPEATS):
        (net, frames), _, scaled = reference.timed(lambda: _build(seed))
        setups.append(scaled)
    tracer.restore()

    def one_pass():
        untraced = _code_pass(net, frames, None, None, reference)
        if not trace:
            return untraced, None
        ledger.install_nn(tracer)
        ledger.install_entropy(tracer)
        ledger.install_container(tracer)
        ledger.install_codec(tracer, net, phase)
        try:
            return untraced, _code_pass(net, frames, tracer, phase)
        finally:
            tracer.restore()

    runs = timed_loop(seconds, one_pass)
    passes = [untraced for untraced, _ in runs]
    traced = [record for _, record in runs if record is not None]

    first = passes[0]
    mismatched = [
        record for record in passes + traced
        if not record["ok"]
        or record["stream_sha256"] != first["stream_sha256"]
        or record["frames_sha256"] != first["frames_sha256"]
    ]
    items = len(first["types"])

    def clip(suffix):
        encode = _clip_seconds(passes, f"encode{suffix}")
        decode = _clip_seconds(passes, f"decode{suffix}")
        container = median(record[f"container{suffix}"] for record in passes)
        p_decode = [
            spent
            for record in passes
            for frame_type, spent in zip(record["types"], record[f"decode{suffix}"])
            if frame_type == "P"
        ]
        return {
            "items_per_s": items / (encode + container + decode),
            "item_ms": 1e3 * median(p_decode),
            "encode_fps": items / encode,
            "decode_fps": items / decode,
        }

    scaled, raw = clip("_scaled_s"), clip("_s")
    result = {
        "correct": not mismatched,
        "attempted": items * (len(passes) + len(traced)),
        "failed": items * len(mismatched),
        "setup_repeats_s": setups,
        "end_to_end": {name: scaled[name] for name in ("items_per_s", "item_ms")},
        "detail": {
            "scaled": scaled,
            "raw": raw,
            "bits_per_pixel": 8 * first["stream_bytes"] / (items * HEIGHT * WIDTH),
            "psnr_db": first["psnr_db"],
            "pass_seconds": [
                sum(r["encode_s"]) + r["container_s"] + sum(r["decode_s"]) for r in passes
            ],
            "traced_passes": len(traced),
            "stream_sha256": first["stream_sha256"],
            "frames_sha256": first["frames_sha256"],
        },
        "config": _config(seed),
    }
    if trace:
        result["layers"] = _layers(tracer, traced, passes, items)
    return result


def _layers(tracer: Tracer, traced: list[dict], passes: list[dict], items: int) -> dict:
    frames = items * len(traced)
    out = ledger.layer_metrics(tracer, frames)
    for direction in ("encode", "decode"):
        wall = sum(sum(record[f"{direction}_s"]) for record in traced)
        rows = sum(
            value for name, value in out.items()
            if name.startswith(f"codec.{direction}.") and name.endswith(".ms")
            and name != f"codec.{direction}.other.ms"
        ) + out[f"entropy.{direction}.ms"]
        out[f"codec.{direction}.closure"] = rows * frames / 1e3 / wall
        if out[f"codec.{direction}.closure"] < CLOSURE_FLOOR:
            print(
                f"perfbench: codec.{direction} rows cover only "
                f"{out[f'codec.{direction}.closure']:.1%} of the {direction} time",
                file=sys.stderr,
            )
    out.update(ledger.nvca_rows(HEIGHT, WIDTH, CHANNELS))

    def round_trip(records):
        return median(sum(r["encode_s"]) + r["container_s"] + sum(r["decode_s"]) for r in records)

    out["trace.overhead_ratio"] = round_trip(traced) / round_trip(passes) - 1.0
    return out
