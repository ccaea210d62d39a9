"""Tests for the summary math of ``tools/perf_ab.py`` on canned records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_ab.py"
_SPEC = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)


def record(item_ms, items_per_s, stream="a709", correct=True, failed=0):
    return {
        "metrics": {"item_ms": item_ms, "items_per_s": items_per_s},
        "detail": {"stream_sha256": stream, "psnr_db": 31.5},
        "correct": correct,
        "failed": failed,
    }


DIRECTIONS = {"item_ms": "lower", "items_per_s": "higher"}


class TestSummarizeMetric:
    def test_medians_quartiles_and_wins(self):
        base = [640.0, 650.0, 660.0, 630.0, 645.0]
        change = [580.0, 590.0, 570.0, 600.0, 650.0]
        s = perf_ab.summarize_metric(base, change, "lower")
        assert s["base_median"] == 645.0
        assert s["change_median"] == 590.0
        assert (s["base_q1"], s["base_q3"]) == (640.0, 650.0)
        assert (s["change_q1"], s["change_q3"]) == (580.0, 600.0)
        assert s["relative"] == pytest.approx(-55.0 / 645.0)
        # Pair 5 is a 645 vs 650 loss; 4/5 < 9/10, so no gain.
        assert (s["wins"], s["losses"], s["pairs"]) == (4, 1, 5)
        assert not s["gain"]

    def test_gain_needs_nine_tenths_of_pairs_and_gap_beyond_spread(self):
        base = [100.0 + i for i in range(10)]
        change = [value - 20.0 for value in base]
        s = perf_ab.summarize_metric(base, change, "lower")
        assert s["wins"] == 10 and s["gain"]
        # Same wins, but a 2 ms gap inside the base's 4.5 ms quartile spread.
        change = [value - 2.0 for value in base]
        s = perf_ab.summarize_metric(base, change, "lower")
        assert s["wins"] == 10 and not s["gain"]

    def test_higher_is_better_and_ties_count_for_neither(self):
        s = perf_ab.summarize_metric([1.0, 2.0, 3.0], [1.5, 2.0, 2.5], "higher")
        assert (s["wins"], s["losses"]) == (1, 1)
        assert not s["gain"]

    def test_single_pair_quartiles_are_the_value(self):
        s = perf_ab.summarize_metric([5.0], [4.0], "lower")
        assert (s["base_q1"], s["base_q3"]) == (5.0, 5.0)
        assert s["wins"] == 1 and s["gain"]


class TestSummarize:
    def test_outputs_correctness_and_failures(self):
        pairs = [
            (record(650.0, 0.76), record(580.0, 0.82)),
            (record(640.0, 0.77), record(575.0, 0.83, failed=1)),
        ]
        summary = perf_ab.summarize(pairs, DIRECTIONS)
        assert set(summary["metrics"]) == {"item_ms", "items_per_s"}
        assert summary["metrics"]["item_ms"]["wins"] == 2
        assert summary["metrics"]["items_per_s"]["wins"] == 2
        assert summary["outputs"] == {"stream_sha256": ["a709"], "psnr_db": [31.5]}
        assert summary["correct"] == {"base": True, "change": True}
        assert summary["failed"] == {"base": 0, "change": 1}
        json.dumps(summary)  # the tool's last line

    def test_differing_output_and_incorrect_run_are_reported(self):
        pairs = [
            (record(650.0, 0.76), record(580.0, 0.82, stream="6a4e")),
            (record(640.0, 0.77, correct=False), record(575.0, 0.83)),
        ]
        summary = perf_ab.summarize(pairs, DIRECTIONS)
        assert summary["outputs"]["stream_sha256"] == ["a709", "6a4e"]
        assert summary["correct"] == {"base": False, "change": True}


def test_directions_come_from_benchmark_json():
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    directions = perf_ab.metric_directions(benchmark)
    assert directions["item_ms"] == "lower"
    assert directions["items_per_s"] == "higher"
    assert directions["nn.bilinear_sample.ms"] == "lower"
