"""perf — the sustained wall-clock benchmark of the ASSET reproduction.

Six closed-loop workloads, driven from outside through public entry
points only, each verified before it reports.  ``perf/README.md`` holds
the definitions; ``BENCHMARK.json`` at the repository root is the
machine-readable contract.  Nothing under ``src/`` imports this package
and this package does not import ``repro.bench``: the load it generates
cannot change when the program does.
"""
