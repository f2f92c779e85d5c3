"""The benchmark's command line.

Three ways in, one code path:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    The contract ``BENCHMARK.json`` names: one run of one workload, the
    last line of standard output a JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (every end-to-end metric
    with ``--trace 0``, every per-layer metric with ``--trace 1``).

``PYTHONPATH=src python -m perf.run --seed N [--traced] [--repeat K]``
    Every workload, one after another: prints each metric by name with
    its unit, writes ``perf/out/results_seed<N>[_traced].json`` (the
    input of ``perf/compare.py``), exits 0 only if every workload
    verified.

``--round W`` (internal)
    One round in this interpreter (pinned to ``--cpu``); the parent
    starts one fresh interpreter per round, one at a time per core.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

DEFAULT_SECONDS = 32  # BENCHMARK.json's run_seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: the per-layer run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every unit count (smoke tests)")
    parser.add_argument("--out", help="all-workloads mode: results file")
    parser.add_argument("--round", help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        from perf import session
    except ImportError as exc:  # no src/ in this checkout: nothing to measure
        sys.stderr.write(f"perf: cannot import the program under test: {exc}\n")
        return 2
    for name in (args.workload, args.round):
        if name is not None and name not in session.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    if args.round:
        return session.round_mode(args)
    if args.workload:
        return session.contract_mode(args)
    return session.all_mode(args)


if __name__ == "__main__":
    raise SystemExit(main())
