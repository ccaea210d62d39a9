"""Shared pieces of the workloads: provenance, memory, timing helpers."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: environment variables that pin BLAS/OpenMP pools; ``run.py`` sets
#: them before NumPy loads, and worker processes inherit them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def timed_loop(seconds: float, once) -> list:
    """Call ``once()`` at least once, and again while another call as
    long as the last one still ends within ``seconds``."""
    out = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out.append(once())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return out


class Reference:
    """A fixed piece of work whose time tracks the machine's current speed.

    The reference box is a shared 2-vCPU VM whose speed drifts by up to
    2x within minutes (one identical DSE pass took 0.39–0.98 s), which
    no median over a 30-second run can hide.  Each timed repeat is
    therefore paired with this reference, run just before and just
    after it, and reported as ``raw * NOMINAL_S / reference``: the time
    the repeat would have taken with the machine at the speed where the
    reference takes ``NOMINAL_S``.  ``kind`` picks the work that tracks
    the workload's mix: ``"numpy"`` (GEMM and copies), ``"python"``
    (JSON round trips and a sort), or ``"mixed"`` (both).
    """

    NOMINAL_S = {"numpy": 0.0044, "python": 0.0044, "mixed": 0.0088}
    REPEATS = 3

    def __init__(self, kind: str):
        import numpy as np

        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        self._matrix = np.random.default_rng(0).random((160, 160))
        self._buffer = np.ones(1 << 20)
        self._document = {f"k{i}": {"v": i, "w": [i, i + 1.5, str(i)]} for i in range(200)}

    def _once(self) -> float:
        start = time.perf_counter()
        if self.kind in ("numpy", "mixed"):
            for _ in range(8):
                self._matrix @ self._matrix
            for _ in range(4):
                self._buffer.copy()
        if self.kind in ("python", "mixed"):
            for _ in range(6):
                json.loads(json.dumps(self._document))
            sorted([(i * 7919) % 2003, str(i)] for i in range(3000))
        return time.perf_counter() - start

    def seconds(self) -> float:
        return median(self._once() for _ in range(self.REPEATS))

    def around(self, work):
        """Run ``work()`` between two reference measurements; returns
        ``(result, factor)``, the factor that scales its times."""
        before = self.seconds()
        result = work()
        after = self.seconds()
        return result, self.nominal_s / (0.5 * (before + after))

    def timed(self, work):
        """Run ``work()``; returns ``(result, raw_s, scaled_s)``."""
        def measured():
            start = time.perf_counter()
            result = work()
            return result, time.perf_counter() - start

        (result, raw), factor = self.around(measured)
        return result, raw, raw * factor


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources: identifies the code under
    test where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int, extra: dict) -> dict:
    """Everything needed to reproduce or compare one result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        **extra,
    }
