"""Closed-loop PITEX benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 pitexbench/run.py --workload index-cold --seed 1 --seconds 15 --trace 0

See ``pitexbench/NOTES.md`` for what each workload loads and why.
"""
