"""The repository benchmark: host cost of the simulator, end to end and per layer.

Run it from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

See :mod:`perfbench.run` for the command line and ``BENCHMARK.json`` for
the workloads and metrics it reports.
"""
