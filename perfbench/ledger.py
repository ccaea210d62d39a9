"""The layer ledger: which program functions are wrapped, under which
names, and how the recorded spans become per-layer metrics.

Layer names follow the program's modules (``repro.nn``, ``repro.codec``,
``repro.pipeline``, ``repro.hw``) and the five Fig. 9(b) decoder
modules, so a measured ``codec.decode.<module>.ms`` row joins the
modelled ``nvca.<module>.*`` rows on the module name.

Every per-layer "ms" value is self time per work item: per frame on
``ctvc-cif-stream`` (each frame is encoded and decoded once), per job
on the fleet workloads.  The exceptions say so where they are
computed: ``video.scene.ms`` is per rendered frame, ``queue.*.us`` and
``http.request.*.ms`` are per call, ``tasks.execute.*.ms`` is the
median job.  A workload reports every per-layer metric; a
layer it never calls reads 0, which is the prediction for that pairing.
"""

from __future__ import annotations

import re
import statistics

from .tracer import Tracer

#: (name, unit, better, bound) of the metrics every workload reports
#: with tracing off.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_ms", "ms", "lower", 0.25),
]

#: Fig. 9(b) decoder modules, in the order ``CTVCNet.decoder_modules()``
#: and ``layergraph.decoder_graph`` list them.
DECODER_MODULES = (
    "feature_extraction",
    "motion_synthesis",
    "deformable_compensation",
    "residual_synthesis",
    "frame_reconstruction",
)
ENCODER_ONLY = ("motion_estimation", "motion_analysis", "residual_analysis")
NN_KERNELS = (
    "conv2d", "im2col", "conv_transpose2d", "deform_conv2d",
    "bilinear_sample", "attention",
)
GEMM_KERNELS = ("conv2d", "conv_transpose2d", "deform_conv2d")
HTTP_ENDPOINTS = ("submit", "results", "finished", "stats", "reap", "attempts")
HW_FUNCTIONS = (
    "decoder_graph", "analyze_graph", "compare_traffic", "energy_report",
    "area_report",
)
TASK_KINDS = ("encode", "dse_point")


def _per_layer() -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    for kernel in NN_KERNELS:
        rows.append((f"nn.{kernel}.ms", "ms", "lower"))
        rows.append((f"nn.{kernel}.calls", "count", "lower"))
        if kernel in GEMM_KERNELS:
            rows.append((f"nn.{kernel}.gmac_per_s", "GMAC/s", "higher"))
    for module in DECODER_MODULES + ("intra", "other"):
        rows.append((f"codec.decode.{module}.ms", "ms", "lower"))
    for module in DECODER_MODULES + ENCODER_ONLY + ("intra", "other"):
        rows.append((f"codec.encode.{module}.ms", "ms", "lower"))
    rows += [
        ("codec.decode.closure", "ratio", "higher"),
        ("codec.encode.closure", "ratio", "higher"),
        ("entropy.encode.ms", "ms", "lower"),
        ("entropy.decode.ms", "ms", "lower"),
        ("entropy.symbols", "count", "lower"),
        ("entropy.msym_per_s", "Msym/s", "higher"),
        ("container.write.ms", "ms", "lower"),
        ("container.read.ms", "ms", "lower"),
        ("container.bytes", "B", "lower"),
        ("video.scene.ms", "ms", "lower"),
    ]
    for kind in TASK_KINDS:
        rows.append((f"tasks.execute.{kind}.ms", "ms", "lower"))
    rows.append(("tasks.context.hit_ratio", "ratio", "higher"))
    for op in ("submit", "claim_batch", "ack"):
        rows.append((f"queue.{op}.us", "us", "lower"))
    rows += [
        ("queue.jobs_per_claim", "jobs", "higher"),
        ("queue.reaped", "count", "lower"),
        ("queue.retried", "count", "lower"),
    ]
    for endpoint in HTTP_ENDPOINTS:
        rows.append((f"http.request.{endpoint}.ms", "ms", "lower"))
    rows += [
        ("http.requests", "count", "lower"),
        ("http.empty_poll_ratio", "ratio", "lower"),
        ("dist.worker_utilization", "ratio", "higher"),
    ]
    for function in HW_FUNCTIONS:
        rows.append((f"hw.{function}.ms", "ms", "lower"))
    for module in DECODER_MODULES:
        rows.append((f"nvca.{module}.cycles", "cycles", "lower"))
        rows.append((f"nvca.{module}.dram_bytes", "B", "lower"))
        rows.append((f"nvca.{module}.gmacs", "GMAC", "lower"))
    rows.append(("trace.overhead_ratio", "ratio", "lower"))
    return rows


#: (name, unit, better) of the metrics every workload reports traced.
PER_LAYER = _per_layer()

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


# -- work counts --------------------------------------------------------
def _conv_macs(args, kwargs, out) -> int:
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    return int(out.size) * int(weight[0].size)


def _deconv_macs(args, kwargs, out) -> int:
    x = args[0] if args else kwargs["x"]
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    return int(x[0].size) * int(weight.size)


def _deform_macs(args, kwargs, out) -> int:
    weight = args[2] if len(args) > 2 else kwargs["weight"]
    return int(out.size) * int(weight[0].size)


def _symbols_encoded(args, kwargs, out) -> int:
    segments = args[1] if len(args) > 1 else kwargs["segments"]
    return sum(len(symbols) for symbols, _ in segments)


def _symbols_decoded(args, kwargs, out) -> int:
    specs = args[2] if len(args) > 2 else kwargs["specs"]
    return sum(count for count, _ in specs)


# -- installers ------------------------------------------------------------
def install_nn(tracer: Tracer) -> None:
    """Wrap the ``repro.nn`` kernels where the layers look them up."""
    from repro.nn import attention, deform
    from repro.nn import functional as F

    tracer.wrap(F, "conv2d", "nn.conv2d", "nn", _conv_macs)
    tracer.wrap(F, "im2col", "nn.im2col", "nn")
    tracer.wrap(F, "conv_transpose2d", "nn.conv_transpose2d", "nn", _deconv_macs)
    tracer.wrap(F, "bilinear_sample", "nn.bilinear_sample", "nn")
    tracer.wrap(deform, "deform_conv2d", "nn.deform_conv2d", "nn", _deform_macs)
    tracer.wrap(attention.SwinAttention, "forward", "nn.attention", "nn")


def install_entropy(tracer: Tracer) -> None:
    """Wrap both registered entropy backends' segment coders."""
    from repro.codec.entropy import CacmBackend
    from repro.codec.rans import RansBackend

    for backend in (RansBackend, CacmBackend):
        tracer.wrap(backend, "encode_segments", "entropy.encode", "codec", _symbols_encoded)
        tracer.wrap(backend, "decode_segments", "entropy.decode", "codec", _symbols_decoded)


def install_container(tracer: Tracer) -> None:
    from repro.codec.bitstream import SequenceBitstream

    tracer.wrap(
        SequenceBitstream, "serialize", "container.write", "codec",
        lambda args, kwargs, out: len(out),
    )
    tracer.wrap(SequenceBitstream, "parse", "container.read", "codec")


def install_video(tracer: Tracer) -> None:
    """Wrap scene rendering in every namespace that calls it."""
    import repro.pipeline.facade as facade
    import repro.video as video
    import repro.video.synthetic as synthetic

    for namespace in (synthetic, video, facade):
        tracer.wrap(
            namespace, "generate_sequence", "video.scene", "video",
            lambda args, kwargs, out: len(out),
        )


class Phase:
    """Which direction the codec rows are currently charged to."""

    def __init__(self, direction: str = "encode"):
        self.direction = direction


def install_codec(tracer: Tracer, net, phase: Phase) -> None:
    """Wrap one ``CTVCNet``'s module methods (instance attributes, so
    the motion and residual autoencoders get their own rows).  Install
    before ``open_encoder()``, which binds ``intra_codec.encode_intra``."""

    def row(module):
        return lambda args, kwargs: f"codec.{phase.direction}.{module}"

    modules = net.decoder_modules()
    for module in ("feature_extraction", "deformable_compensation", "frame_reconstruction"):
        tracer.wrap(modules[module], "forward", row(module), "codec")
    tracer.wrap(net.motion_compression, "synthesize", row("motion_synthesis"), "codec")
    tracer.wrap(net.residual_compression, "synthesize", row("residual_synthesis"), "codec")
    tracer.wrap(net.motion_compression, "analyze", row("motion_analysis"), "codec")
    tracer.wrap(net.residual_compression, "analyze", row("residual_analysis"), "codec")
    tracer.wrap(net.motion_estimation, "estimate", row("motion_estimation"), "codec")
    tracer.wrap(net.intra_codec, "encode_intra", row("intra"), "codec")
    tracer.wrap(net.intra_codec, "decode_intra", row("intra"), "codec")


def install_tasks(tracer: Tracer) -> None:
    import repro.pipeline.tasks as tasks

    def name(args, kwargs):
        kind = tasks.spec_kind(args[0]).replace("-", "_")
        return f"tasks.execute.{kind}"

    tracer.wrap(tasks, "run_task", name, "tasks")


def install_queue(tracer: Tracer, queue, *, nested: bool = True) -> None:
    """Wrap one queue instance's protocol calls."""
    tracer.wrap(queue, "submit", "queue.submit", "queue", nested=nested)
    tracer.wrap(
        queue, "claim_batch", "queue.claim_batch", "queue",
        lambda args, kwargs, out: len(out), nested=nested,
    )
    tracer.wrap(queue, "ack", "queue.ack", "queue", nested=nested)
    tracer.wrap(
        queue, "reap_expired", "queue.reap", "queue",
        lambda args, kwargs, out: len(out), nested=nested,
    )
    tracer.wrap(queue, "fail", "queue.fail", "queue", nested=nested)


def install_http(tracer: Tracer, client) -> None:
    """Wrap one ``HttpJobQueue`` client's requests, named by endpoint."""

    def name(args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        return "http.request." + path.strip("/").split("?")[0].replace("-", "_")

    tracer.wrap(client, "_request", name, "http")
    tracer.wrap(
        client, "results_page", "http.poll", "http",
        lambda args, kwargs, out: 0 if out[0] else 1,
    )


def install_hw(tracer: Tracer) -> None:
    """Wrap the NVCA model where a ``dse-point`` job looks it up."""
    import repro.hw.dse as dse
    import repro.pipeline.platforms as platforms

    tracer.wrap(platforms, "decoder_graph", "hw.decoder_graph", "hw")
    for function in HW_FUNCTIONS[1:]:
        tracer.wrap(dse, function, f"hw.{function}", "hw")


# -- metrics ------------------------------------------------------------------
def nvca_rows(height: int, width: int, channels: int) -> dict[str, float]:
    """Modelled per-module cycles, chained DRAM bytes and GMACs of the
    NVCA decoder at one resolution (deterministic)."""
    from repro.codec import decoder_graph
    from repro.hw import NVCAConfig
    from repro.hw.dataflow import compare_traffic
    from repro.hw.perf import analyze_graph

    config = NVCAConfig(channels=channels)
    graph = decoder_graph(height, width, channels)
    cycles = analyze_graph(graph, config).per_module_cycles
    traffic = compare_traffic(graph, config)
    rows = {}
    for module in DECODER_MODULES:
        rows[f"nvca.{module}.cycles"] = float(cycles[module])
        rows[f"nvca.{module}.dram_bytes"] = float(traffic.by_module(module).chained_bytes)
        rows[f"nvca.{module}.gmacs"] = sum(
            layer.macs() for layer in graph.by_module(module)
        ) / 1e9
    return rows


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-layer metrics from a tracer's spans, per work item.  Rows the
    workload adds itself (closure, context, utilization, overhead,
    nvca) start at 0 here."""
    def ms(name: str) -> float:
        return tracer.get(name).self_s * 1e3 / items

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for kernel in NN_KERNELS:
        stats = tracer.get(f"nn.{kernel}")
        out[f"nn.{kernel}.ms"] = ms(f"nn.{kernel}")
        out[f"nn.{kernel}.calls"] = stats.calls / items
        if kernel in GEMM_KERNELS and stats.total_s > 0:
            out[f"nn.{kernel}.gmac_per_s"] = stats.work / stats.total_s / 1e9
    for direction in ("decode", "encode"):
        for module in DECODER_MODULES + ENCODER_ONLY + ("intra",):
            name = f"codec.{direction}.{module}"
            if f"{name}.ms" in out:
                out[f"{name}.ms"] = ms(name)
        out[f"codec.{direction}.other.ms"] = ms(f"codec.{direction}.frame")
        out[f"entropy.{direction}.ms"] = ms(f"entropy.{direction}")
    entropy = [tracer.get("entropy.encode"), tracer.get("entropy.decode")]
    symbols = sum(stats.work for stats in entropy)
    entropy_s = sum(stats.total_s for stats in entropy)
    out["entropy.symbols"] = symbols / items
    if entropy_s > 0:
        out["entropy.msym_per_s"] = symbols / entropy_s / 1e6
    out["container.write.ms"] = ms("container.write")
    out["container.read.ms"] = ms("container.read")
    out["container.bytes"] = tracer.get("container.write").work / items
    scene = tracer.get("video.scene")
    if scene.work:
        out["video.scene.ms"] = scene.self_s * 1e3 / scene.work
    for kind in TASK_KINDS:
        durations = tracer.get(f"tasks.execute.{kind}").durations
        if durations:
            out[f"tasks.execute.{kind}.ms"] = 1e3 * statistics.median(durations)
    for op in ("submit", "claim_batch", "ack"):
        stats = tracer.get(f"queue.{op}")
        if stats.calls:
            out[f"queue.{op}.us"] = stats.total_s * 1e6 / stats.calls
    claims = tracer.get("queue.claim_batch")
    if claims.calls:
        out["queue.jobs_per_claim"] = claims.work / claims.calls
    out["queue.reaped"] = tracer.get("queue.reap").work / items
    out["queue.retried"] = tracer.get("queue.fail").calls / items
    requests = 0
    for name, stats in tracer.stats.items():
        if name.startswith("http.request."):
            requests += stats.calls
    for endpoint in HTTP_ENDPOINTS:
        stats = tracer.get(f"http.request.{endpoint}")
        if stats.calls:
            out[f"http.request.{endpoint}.ms"] = stats.total_s * 1e3 / stats.calls
    out["http.requests"] = requests / items
    polls = tracer.get("http.poll")
    if polls.calls:
        out["http.empty_poll_ratio"] = polls.work / polls.calls
    for function in HW_FUNCTIONS:
        out[f"hw.{function}.ms"] = ms(f"hw.{function}")
    return out

