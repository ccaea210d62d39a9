"""Tests of the benchmark's own tracer, ledger and entry point."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import ctvc_stream, ledger
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


class _Clock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return x * 2


def test_wrapped_attributes_are_restored():
    module = types.ModuleType("fake")
    module.kernel = lambda x: x - 1
    instance = _Target()
    originals = {
        "kernel": module.kernel,
        "method": _Target.__dict__["method"],
        "build": _Target.__dict__["build"],
        "helper": _Target.__dict__["helper"],
    }
    tracer = Tracer()
    with tracer:
        tracer.wrap(module, "kernel", "k", "nn")
        tracer.wrap(_Target, "method", "m", "nn")
        tracer.wrap(_Target, "build", "b", "nn")
        tracer.wrap(_Target, "helper", "h", "nn")
        tracer.wrap(instance, "method", "i", "codec")
        assert module.kernel(3) == 2
        assert instance.method(1) == 2
        assert _Target.build(1) == (_Target, 1)
        assert _Target.helper(2) == 4
        assert _Target().method(0) == 1
    assert module.kernel is originals["kernel"]
    for name in ("method", "build", "helper"):
        assert _Target.__dict__[name] is originals[name]
    assert "method" not in vars(instance)
    assert {name: stats.calls for name, stats in tracer.stats.items()} == {
        "k": 1, "m": 2, "b": 1, "h": 1, "i": 1,
    }


def test_restore_after_exception():
    module = types.ModuleType("fake")

    def boom():
        raise ValueError("no")

    module.boom = boom
    tracer = Tracer()
    tracer.wrap(module, "boom", "boom", "nn")
    with pytest.raises(ValueError):
        module.boom()
    tracer.restore()
    assert module.boom is boom
    assert tracer.get("boom").calls == 1


def test_self_time_is_span_minus_children_of_its_view():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    module = types.ModuleType("fake")

    def inner():
        clock.now += 2.0

    def entropy():
        clock.now += 3.0

    def kernel():
        clock.now += 1.0
        module.inner()
        module.inner()

    def module_method():
        clock.now += 0.5
        module.kernel()
        module.entropy()

    module.inner, module.kernel, module.entropy = inner, kernel, entropy
    tracer.wrap(module, "inner", "nn.inner", "nn")
    tracer.wrap(module, "kernel", "nn.kernel", "nn")
    tracer.wrap(module, "entropy", "entropy.decode", "codec")
    with tracer.span("codec.decode.frame", "codec"):
        clock.now += 0.25
        module_method()  # not wrapped: its time is the frame's own
    tracer.restore()

    kernel_stats = tracer.get("nn.kernel")
    assert kernel_stats.total_s == pytest.approx(5.0)
    assert kernel_stats.self_s == pytest.approx(1.0)  # minus two nn children
    assert tracer.get("nn.inner").self_s == pytest.approx(4.0)
    frame = tracer.get("codec.decode.frame")
    assert frame.total_s == pytest.approx(8.75)
    # nn spans are another view, so only the entropy child is subtracted
    assert frame.self_s == pytest.approx(5.75)


def test_toy_ctvc_stream_is_byte_identical_traced_and_untraced():
    from repro.codec import CTVCConfig, CTVCNet
    from repro.nn import functional as F
    from repro.video import SceneConfig, generate_sequence

    net = CTVCNet(CTVCConfig(channels=8))
    frames = generate_sequence(SceneConfig(height=32, width=48, frames=3, seed=5))
    conv2d = F.conv2d
    plain = ctvc_stream._code_pass(net, frames, None, None)

    tracer = Tracer()
    phase = ledger.Phase()
    ledger.install_nn(tracer)
    ledger.install_entropy(tracer)
    ledger.install_container(tracer)
    ledger.install_codec(tracer, net, phase)
    traced = ctvc_stream._code_pass(net, frames, tracer, phase)
    tracer.restore()

    assert plain["ok"] and traced["ok"]
    assert traced["stream_sha256"] == plain["stream_sha256"]
    assert traced["frames_sha256"] == plain["frames_sha256"]
    assert F.conv2d is conv2d
    assert "forward" not in vars(net.feature_extraction)
    assert tracer.get("nn.conv2d").calls > 0
    assert tracer.get("codec.decode.deformable_compensation").calls == 2
    assert tracer.get("codec.encode.motion_analysis").calls == 2
    assert tracer.get("container.write").calls == 1

    rows = ledger.layer_metrics(tracer, len(frames))
    assert set(rows) == {name for name, _, _ in ledger.PER_LAYER}


def test_metric_names_and_benchmark_json_agree():
    names = [name for name, *_ in ledger.END_TO_END + ledger.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert ledger.NAME_PATTERN.fullmatch(name), name
        assert len(name) <= 64
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(row) for row in ledger.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(row) for row in ledger.PER_LAYER]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse-dir-deep",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
