"""End-to-end and per-layer benchmark of the four execution planes.

``run.py`` measures one workload (the command ``BENCHMARK.json`` names);
``python -m benchmarks.e2e`` runs all six and their traced passes;
``python -m benchmarks.e2e.compare`` compares two of its reports.
See ``README.md`` in this directory.
"""
