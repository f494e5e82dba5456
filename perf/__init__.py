"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

See ``perf/README.md``; the contract with the driver is ``BENCHMARK.json``
at the repo root.
"""
