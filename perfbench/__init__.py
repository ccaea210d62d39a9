"""Named-workload benchmark for the CTVC-Net / NVCA reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the repository root; see ``perfbench/README.md``.
Nothing here is imported by the program under test: every span is
recorded by wrapping the program's public functions from outside.
"""
