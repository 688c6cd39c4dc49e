"""The layered performance ledger: the repo's benchmark (see README.md).

``BENCHMARK.json`` at the repo root declares the workloads, the end-to-end
metrics with their bounds, and the per-layer metrics; this package measures
them.  ``run.py`` is the one-workload entry the benchmark driver calls;
``python -m benchmarks.ledger run|compare`` is the human front end.
"""
