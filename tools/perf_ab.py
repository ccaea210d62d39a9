#!/usr/bin/env python
"""A/B benchmark of the working tree against a base commit.

Run from the repo root::

    python tools/perf_ab.py --base HEAD~1 --workload ctvc-cif-stream \\
        --seed 1 --pairs 10 --seconds 30

The base ref is exported with ``git archive`` into a temporary
directory, and ``perfbench/run.py`` runs alternately there (base, with
its own benchmark code) and in the working tree (change).  Pairs are
ABBA-ordered: the base runs first in even pairs and second in odd
ones, so a drift of the machine's speed does not favour one side.

Printed per metric: each side's median and quartiles, the change's
win count over the pairs (ties count for neither), and whether the gap
counts as a gain: at least nine tenths of the pairs won and a median
gap larger than the base's own quartile distance.  Metric directions
come from ``BENCHMARK.json``.  Also printed: the workload's outputs
(stream and frame digests, bpp, PSNR) with a flag where any run
differs, and each side's correctness and failure counts.  The last
stdout line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Detail fields that must not differ between runs of a correct change.
OUTPUT_KEYS = (
    "stream_sha256",
    "frames_sha256",
    "bits_per_pixel",
    "psnr_db",
    "mean_bpp",
    "mean_psnr_db",
)


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"`` (the better side)."""
    return {
        entry["name"]: entry["better"]
        for entry in benchmark["end_to_end"] + benchmark["per_layer"]
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize_metric(
    base: list[float], change: list[float], better: str
) -> dict[str, float | int | bool]:
    """Medians, quartiles and wins of paired runs of one metric.

    ``base[i]`` and ``change[i]`` are the two runs of pair ``i``.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_q1, base_q3 = quartiles(base)
    change_q1, change_q3 = quartiles(change)
    gap = change_median - base_median
    return {
        "base_median": base_median,
        "base_q1": base_q1,
        "base_q3": base_q3,
        "change_median": change_median,
        "change_q1": change_q1,
        "change_q3": change_q3,
        "relative": gap / base_median if base_median else 0.0,
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "gain": 10 * wins >= 9 * len(base) and sign * gap > base_q3 - base_q1,
    }


def output_values(records: list[dict]) -> dict[str, list]:
    """Per output field present in the runs: its distinct values, in
    first-seen order (one value means it matched in every run)."""
    details = [record["detail"] for record in records]
    return {
        key: list({json.dumps(d[key]): d[key] for d in details}.values())
        for key in OUTPUT_KEYS
        if all(key in d for d in details)
    }


def summarize(pairs: list[tuple[dict, dict]], directions: dict[str, str]) -> dict:
    """Summary of ``(base, change)`` run records (see :func:`run_once`)."""
    bases = [base for base, _ in pairs]
    changes = [change for _, change in pairs]
    return {
        "metrics": {
            name: summarize_metric(
                [run["metrics"][name] for run in bases],
                [run["metrics"][name] for run in changes],
                directions[name],
            )
            for name in bases[0]["metrics"]
        },
        "outputs": output_values(bases + changes),
        "correct": {
            "base": all(run["correct"] for run in bases),
            "change": all(run["correct"] for run in changes),
        },
        "failed": {
            "base": sum(run["failed"] for run in bases),
            "change": sum(run["failed"] for run in changes),
        },
    }


def archive(ref: str, dest: Path) -> None:
    """Export ``ref``'s committed tree into ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=REPO, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in checkout ``root``, parsed."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=root, check=True, capture_output=True, text=True,
    )
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "detail": json.loads(record_line)["detail"],
        "correct": result["correct"],
        "failed": result["failed"],
    }


def print_summary(summary: dict) -> None:
    print(f"{'metric':44} {'base median [q1-q3]':>28} {'change median [q1-q3]':>28}"
          f" {'change':>8} {'wins':>6}  gain")
    for name, s in summary["metrics"].items():
        base = f"{s['base_median']:.4g} [{s['base_q1']:.4g}-{s['base_q3']:.4g}]"
        change = f"{s['change_median']:.4g} [{s['change_q1']:.4g}-{s['change_q3']:.4g}]"
        print(f"{name:44} {base:>28} {change:>28} {s['relative']:>+8.1%}"
              f" {s['wins']:>3}/{s['pairs']:<2}  {'yes' if s['gain'] else 'no'}")
    for key, values in summary["outputs"].items():
        if len(values) == 1:
            print(f"{key}: {values[0]} in every run")
        else:
            print(f"{key}: DIFFERS across runs: {values}")
    print(f"correct: {summary['correct']}  failed: {summary['failed']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    directions = metric_directions(json.loads((REPO / "BENCHMARK.json").read_text()))
    pairs = []
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        base_root = Path(tmp)
        archive(args.base, base_root)
        for i in range(args.pairs):
            order = [("base", base_root), ("change", REPO)]
            if i % 2:
                order.reverse()
            runs = {
                side: run_once(root, args.workload, args.seed, args.seconds, args.trace)
                for side, root in order
            }
            pairs.append((runs["base"], runs["change"]))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    summary = summarize(pairs, directions)
    print_summary(summary)
    print(json.dumps({"args": vars(args), **summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
