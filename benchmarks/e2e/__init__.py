"""End-to-end benchmark of the engine: six workloads, gated metrics.

See README.md in this directory; ``/BENCHMARK.json`` is the contract.
"""
