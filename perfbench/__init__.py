"""The repository's one checked benchmark: τPSM suites plus a durable wire mix.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and checks are described in ``perfbench/README.md``.
"""
