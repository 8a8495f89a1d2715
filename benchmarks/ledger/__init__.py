"""The repo's performance ledger: four workloads, end to end and layer by layer.

Run ``python -m benchmarks.ledger --help`` from the repository root; the
protocol, the workloads and the metric tables are in ``README.md`` beside
this file.  Everything here measures ``repro`` from outside, by timing
calls into its public functions — nothing under ``src/`` is instrumented.
"""
