"""A standalone benchmark of the three ways users get an estimate.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
