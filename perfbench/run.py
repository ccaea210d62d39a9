"""Run one named benchmark workload and print its result.

    python3 perfbench/run.py --workload ctvc-cif-stream --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with nothing wrapped; with ``--trace 1`` it carries the
per-layer ledger.  The line before it is a JSON record of provenance
and workload detail.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import BLAS_THREAD_VARS  # noqa: E402  (imports no NumPy)

# Pin BLAS/OpenMP pools before NumPy loads; worker processes inherit
# the environment, so the whole fleet runs one BLAS thread per process.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

WORKLOADS = ("ctvc-cif-stream", "rd-sweep-http", "dse-dir-deep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.pipeline.dist  # noqa: F401

    from perfbench import common, ctvc_stream, fleet, ledger

    import_s = time.perf_counter() - _START
    workload, kind = {
        "ctvc-cif-stream": (ctvc_stream.run, ctvc_stream.REFERENCE),
        "rd-sweep-http": (fleet.run_rd_sweep, fleet.RD_REFERENCE),
        "dse-dir-deep": (fleet.run_dse, fleet.DSE_REFERENCE),
    }[args.workload]
    reference = common.Reference(kind)
    import_scaled_s = import_s * reference.nominal_s / reference.seconds()
    try:
        result = workload(args.seed, args.seconds, bool(args.trace), reference)
    finally:
        fleet.stop_resource_tracker()

    setup_s = import_scaled_s + common.median(result["setup_repeats_s"])
    if args.trace:
        values = {name: 0.0 for name, _, _ in ledger.PER_LAYER}
        values.update(result["layers"])
        units = {name: unit for name, unit, _ in ledger.PER_LAYER}
    else:
        values = dict(result["end_to_end"], setup_s=setup_s, peak_rss_mb=common.peak_rss_mb())
        units = {name: unit for name, unit, _, _ in ledger.END_TO_END}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"undeclared metrics: {', '.join(unknown)}")
    record = {
        "provenance": common.provenance(ROOT, args.workload, args.seed, {
            "config": result["config"], "trace": args.trace, "seconds": args.seconds,
        }),
        "import_s": import_s,
        "reference": {"kind": kind, "nominal_s": reference.nominal_s},
        "setup_repeats_s": result["setup_repeats_s"],
        "detail": result["detail"],
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
