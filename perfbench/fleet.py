"""The two fleet workloads: an RD sweep over HTTP and a deep DSE drain.

Both are closed loops driven by this process: the runner submits the
whole grid, 2 worker processes drain it (``nproc`` is 2 on the
reference box), and the next drain starts only when the previous one
has aggregated.  Worker-side layers run in other processes, so the
traced run times them with an in-process replay of the same specs.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from pathlib import Path

from . import ledger
from .common import Reference, median, timed_loop
from .tracer import Tracer

WORKERS = 2
SETUP_REPEATS = 3
#: share of a traced rd-sweep run spent on drains; the rest replays
#: the jobs in this process with the worker-side layers wrapped
FLEET_SHARE = 2 / 3
#: scratch space for queue directories, inside the checkout
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"

#: machine-speed references matching each workload's mix (see Reference)
RD_REFERENCE = "mixed"
DSE_REFERENCE = "python"

RD_SCENE = {"height": 64, "width": 96, "frames": 3}
RD_QPS = (6.0, 12.0, 24.0, 48.0)
RD_SCENES = 4
RD_CTVC_CHANNELS = 12
#: timing fields of an EncodeReport; everything else must match exactly
TIMING_FIELDS = ("encode_seconds", "decode_seconds")

DSE_PIFS = (4, 6, 8, 10, 12, 14, 16, 18)
DSE_POFS = (4, 6, 8, 10, 12, 14, 16, 18)
DSE_RHOS = (0.0, 0.25, 0.5, 0.75)
DSE_FREQUENCIES = (200.0, 300.0, 400.0, 600.0)
DSE_RESOLUTION = (1080, 1920)


def stop_resource_tracker() -> None:
    """End multiprocessing's resource-tracker process (started by the
    shared-frame segments) so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _scratch_dir() -> str:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="queue-", dir=SCRATCH)


def _remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run's directory is still there


def _strip_timing(document: dict) -> dict:
    return {k: v for k, v in document.items() if k not in TIMING_FIELDS}


# -- rd-sweep-http ------------------------------------------------------------
def rd_specs(seed: int) -> tuple[list[dict], dict]:
    """The mixed classical/CTVC grid, scenes and order drawn from ``seed``."""
    from repro.pipeline.facade import build_jobs

    rng = random.Random(seed)
    scene_seeds = rng.sample(range(1_000_000), RD_SCENES)
    jobs = []
    for scene_seed in scene_seeds:
        scene = dict(RD_SCENE, seed=scene_seed)
        for qp in RD_QPS:
            jobs.append({"codec": "classical", "codec_config": {"qp": qp}, "scene": scene})
            jobs.append({
                "codec": "ctvc",
                "codec_config": {"channels": RD_CTVC_CHANNELS, "qstep": qp},
                "scene": scene,
            })
    rng.shuffle(jobs)
    specs = build_jobs(jobs)
    config = {"scene": RD_SCENE, "scene_seeds": scene_seeds, "qps": RD_QPS,
              "ctvc_channels": RD_CTVC_CHANNELS, "jobs": len(jobs),
              "entropy_backends": sorted({s["codec_config"]["entropy_backend"] for s in specs}),
              "workers": WORKERS, "bundle": "auto", "queue": "http+memory"}
    return specs, config


def _rd_drain(specs: list[dict], tracer: Tracer | None = None) -> dict:
    from repro.pipeline import SweepRunner
    from repro.pipeline.dist import HttpJobQueue, MemoryJobQueue, QueueServer

    backend = MemoryJobQueue()
    with QueueServer(backend, port=0) as server:
        client = HttpJobQueue(server.url)
        if tracer is not None:
            ledger.install_queue(tracer, backend, nested=False)
            ledger.install_http(tracer, client)
            ledger.install_video(tracer)  # the runner renders shared frames
        try:
            runner = SweepRunner(
                jobs=specs, queue=client, workers=WORKERS, bundle="auto"
            )
            start = time.perf_counter()
            result = runner.run()
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
            client.close()
    reports = [report.to_dict() for report in result.reports]
    return {"seconds": elapsed, "reports": reports, "failures": dict(result.failures)}


def _rd_replay(specs: list[dict]) -> tuple[list[dict], list[float]]:
    """Run every spec in this process; returns reports and job times."""
    from repro.pipeline.tasks import run_task

    reports, times = [], []
    for spec in specs:
        start = time.perf_counter()
        reports.append(run_task(spec))
        times.append(time.perf_counter() - start)
    return reports, times


def _job_ms(passes: list[tuple[list[float], float]]) -> float:
    """Median over passes of the scaled pass time, per job."""
    return 1e3 * median(sum(times) * factor for times, factor in passes) / len(passes[0][0])


def _replay_server(conn, specs: list[dict]) -> None:
    """Body of the replay helper process: one warm pass per request."""
    from repro.pipeline.tasks import get_worker_context

    reference = Reference(RD_REFERENCE)
    while conn.recv():
        (reports, times), factor = reference.around(lambda: _rd_replay(specs))
        conn.send((reports, times, factor, get_worker_context().stats()))
    conn.close()


class _Replayer:
    """Inline replays in a spawned helper process.

    Fleet workers are forked from this process, so any codec, scene or
    entropy-model cache warmed here would be inherited and the drains
    would stop measuring cold workers.  The helper keeps the inline
    baseline's warm caches out of this process.
    """

    def __init__(self, specs: list[dict]):
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_replay_server, args=(child, specs))
        self._process.start()
        child.close()

    def run(self) -> tuple[list[dict], list[float], float, dict]:
        self._conn.send(True)
        return self._conn.recv()

    def close(self) -> None:
        self._conn.send(False)
        self._conn.close()
        self._process.join()


def run_rd_sweep(seed: int, seconds: float, trace: bool, reference: Reference) -> dict:
    from repro.pipeline.dist import MemoryJobQueue, QueueServer
    from repro.pipeline.tasks import get_worker_context

    def setup():
        specs, config = rd_specs(seed)
        QueueServer(MemoryJobQueue(), port=0).start().stop()
        return specs, config

    setups = []
    for _ in range(SETUP_REPEATS):
        (specs, config), _, scaled = reference.timed(setup)
        setups.append(scaled)

    def drain(tracer=None):
        result, factor = reference.around(lambda: _rd_drain(specs, tracer))
        return dict(result, scaled_seconds=result["seconds"] * factor)

    fleet_tracer = Tracer()
    tracer = Tracer(samples=("tasks.execute.encode",))
    if trace:
        pairs = timed_loop(
            seconds * FLEET_SHARE, lambda: (drain(), drain(fleet_tracer))
        )
        untraced = [plain for plain, _ in pairs]
        traced = [wrapped for _, wrapped in pairs]
        # After the drains, so no forked worker inherits warm caches.
        first, _ = _rd_replay(specs)
        cold = get_worker_context().stats()
        ledger.install_nn(tracer)
        ledger.install_entropy(tracer)
        ledger.install_container(tracer)
        ledger.install_video(tracer)
        ledger.install_tasks(tracer)
        try:
            warm = [reference.around(lambda: _rd_replay(specs))]
        finally:
            tracer.restore()
        warm = [(reports, times, factor) for (reports, times), factor in warm]
    else:
        replayer = _Replayer(specs)
        try:
            first, _, _, cold = replayer.run()
            pairs = timed_loop(seconds, lambda: (drain(), replayer.run()))
        finally:
            replayer.close()
        untraced = [fleet for fleet, _ in pairs]
        traced = []
        warm = [(reports, times, factor) for _, (reports, times, factor, _) in pairs]

    expected = [_strip_timing(report) for report in first]
    runs = [fleet["reports"] for fleet in untraced + traced]
    runs += [reports for reports, _, _ in warm]
    failed = sum(len(fleet["failures"]) for fleet in untraced + traced)
    for reports in runs:
        got = [_strip_timing(report) for report in reports]
        failed += sum(1 for a, b in zip(got, expected) if a != b)
        failed += abs(len(got) - len(expected))

    jobs = len(specs)
    drain_s = median(fleet["seconds"] for fleet in untraced)
    result = {
        "correct": failed == 0,
        "attempted": jobs * (len(runs) + 1),
        "failed": failed,
        "setup_repeats_s": setups,
        "end_to_end": {
            "items_per_s": jobs / median(fleet["scaled_seconds"] for fleet in untraced),
            "item_ms": _job_ms([(times, factor) for _, times, factor in warm]),
        },
        "detail": {
            "drain_seconds": [fleet["seconds"] for fleet in untraced],
            "drain_scaled_seconds": [fleet["scaled_seconds"] for fleet in untraced],
            "raw_jobs_per_s": jobs / drain_s,
            "inline_pass_seconds": [sum(times) for _, times, _ in warm],
            "mean_bpp": sum(r["bpp"] for r in first) / jobs,
            "mean_psnr_db": sum(r["mean_psnr"] for r in first) / jobs,
            "context_cold_replay": cold,
        },
        "config": config,
    }
    if trace:
        out = ledger.layer_metrics(tracer, jobs)
        for name, value in ledger.layer_metrics(fleet_tracer, jobs * len(traced)).items():
            if value:
                out[name] = value
        lookups = cold["hits"] + cold["misses"]
        out["tasks.context.hit_ratio"] = cold["hits"] / lookups if lookups else 0.0
        executed = tracer.get("tasks.execute.encode").total_s
        out["dist.worker_utilization"] = executed / (WORKERS * drain_s)
        traced_s = median(fleet["seconds"] for fleet in traced)
        out["trace.overhead_ratio"] = traced_s / drain_s - 1.0
        result["layers"] = out
    return result


# -- dse-dir-deep ---------------------------------------------------------------
def dse_specs(seed: int) -> tuple[list[dict], dict]:
    """Pif x Pof x rho x frequency at 1080p, in an order drawn from ``seed``."""
    from repro.hw import NVCAConfig
    from repro.pipeline import dse_point_spec

    height, width = DSE_RESOLUTION
    specs = [
        dse_point_spec(
            NVCAConfig(pif=pif, pof=pof, rho=rho, frequency_mhz=mhz),
            label=f"{pif}x{pof}@rho={rho:.2f}@{mhz:g}MHz",
            height=height, width=width,
        )
        for pif in DSE_PIFS for pof in DSE_POFS
        for rho in DSE_RHOS for mhz in DSE_FREQUENCIES
    ]
    random.Random(seed).shuffle(specs)
    config = {"pifs": DSE_PIFS, "pofs": DSE_POFS, "rhos": DSE_RHOS,
              "frequencies_mhz": DSE_FREQUENCIES, "resolution": DSE_RESOLUTION,
              "jobs": len(specs), "workers": WORKERS, "bundle": "auto",
              "queue": "directory"}
    return specs, config


def _dse_drain(specs: list[dict]) -> dict:
    from repro.pipeline import DSERunner

    root = _scratch_dir()
    try:
        runner = DSERunner(specs, queue_dir=root, workers=WORKERS, bundle="auto")
        start = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - start
    finally:
        _remove(root)
    return {
        "seconds": elapsed,
        "bundle": runner.bundle,
        "points": [point.to_dict() for point in result.points],
        "pareto": [point.label for point in result.pareto],
        "failures": dict(result.failures),
    }


def _dse_inline(specs: list[dict]) -> tuple[list[dict], list[str], list[float]]:
    """The same points straight through ``repro.hw``, no queue; returns
    the points, the Pareto labels and each point's time."""
    from repro.codec import decoder_graph
    from repro.hw import NVCAConfig, evaluate_point, pareto_front

    points, times = [], []
    for spec in specs:
        start = time.perf_counter()
        config = NVCAConfig.from_dict(spec["config"])
        graph = decoder_graph(spec["height"], spec["width"], config.channels)
        points.append(evaluate_point(graph, config, spec["label"]))
        times.append(time.perf_counter() - start)
    return [p.to_dict() for p in points], [p.label for p in pareto_front(points)], times


def _dse_replay(specs: list[dict], bundle: int, tracer: Tracer | None) -> float:
    """Drain a fresh directory queue of the same depth in this process."""
    from repro.pipeline.dist import DirectoryJobQueue, job_id_for_spec, run_worker

    root = _scratch_dir()
    try:
        queue = DirectoryJobQueue(root)
        if tracer is not None:
            ledger.install_queue(tracer, queue)
            ledger.install_tasks(tracer)
            ledger.install_hw(tracer)
        start = time.perf_counter()
        for index, spec in enumerate(specs):
            queue.submit(spec, job_id=job_id_for_spec(index, spec))
        run_worker(queue, "replay", bundle=bundle)
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        _remove(root)
    return elapsed


def run_dse(seed: int, seconds: float, trace: bool, reference: Reference) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        (specs, config), _, scaled = reference.timed(lambda: dse_specs(seed))
        setups.append(scaled)

    tracer = Tracer(samples=("tasks.execute.dse_point",))

    def iteration():
        drain, drain_factor = reference.around(lambda: _dse_drain(specs))
        inline, inline_factor = reference.around(lambda: _dse_inline(specs))
        replays = None
        if trace:
            plain = _dse_replay(specs, drain["bundle"], None)
            replays = (plain, _dse_replay(specs, drain["bundle"], tracer))
        return (drain, drain_factor), (inline, inline_factor), replays

    runs = timed_loop(seconds, iteration)
    drains = [drain for drain, _, _ in runs]
    inline = [passed for _, passed, _ in runs]
    (points, pareto, _), _ = inline[0]
    failed = sum(len(drain["failures"]) for drain, _ in drains)
    for got, front in [(d["points"], d["pareto"]) for d, _ in drains] + [
        (p, f) for (p, f, _), _ in inline[1:]
    ]:
        failed += abs(len(got) - len(points))
        failed += sum(1 for a, b in zip(got, points) if a != b)
        failed += front != pareto
    jobs = len(specs)
    drain_s = median(drain["seconds"] for drain, _ in drains)
    result = {
        "correct": failed == 0,
        "attempted": jobs * (len(drains) + len(inline)),
        "failed": failed,
        "setup_repeats_s": setups,
        "end_to_end": {
            "items_per_s": jobs / median(d["seconds"] * factor for d, factor in drains),
            "item_ms": _job_ms([(times, factor) for (_, _, times), factor in inline]),
        },
        "detail": {
            "drain_seconds": [drain["seconds"] for drain, _ in drains],
            "drain_factors": [factor for _, factor in drains],
            "raw_jobs_per_s": jobs / drain_s,
            "bundle": drains[0][0]["bundle"],
            "inline_pass_seconds": [sum(times) for (_, _, times), _ in inline],
            "pareto": pareto,
        },
        "config": config,
    }
    if trace:
        replays = [pair for _, _, pair in runs]
        out = ledger.layer_metrics(tracer, jobs * len(replays))
        executed = tracer.get("tasks.execute.dse_point").total_s / len(replays)
        out["dist.worker_utilization"] = executed / (WORKERS * drain_s)
        out["trace.overhead_ratio"] = (
            median(traced for _, traced in replays) / median(plain for plain, _ in replays) - 1.0
        )
        result["layers"] = out
    return result
