"""Benchmark of the qmarginal package: seeded workloads, an outside-in
correctness gate and a traced run for per-layer numbers.

Run it from the repository root as ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
