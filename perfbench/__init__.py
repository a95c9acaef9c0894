"""End-to-end benchmark of the SDS control planes, broken down by layer.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
see ``perfbench/README.md`` for the workloads and metrics.
"""
