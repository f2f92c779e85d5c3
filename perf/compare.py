"""Compare two result files written by ``perf.run``: ``compare.py A.json B.json``.

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set).  For untraced results: one row per workload and end-to-end
metric with both medians, both inter-quartile ranges, the bound, and a
verdict —

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so "no worse" cannot be told from noise (unless
                every run of B reads better than every run of A).

``failed_share`` has no bound: any increase is ``worse``.  For traced
results the exact per-layer metrics (counts, calls, census) must be
equal seed by seed; each one that is not gets a row.  Exit status is 1
when any row is ``worse`` or differs, else 0.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf.report import END_TO_END, EXACT  # noqa: E402
from perf.stats import quartiles, spread  # noqa: E402


def judge(a_values, b_values, better, bound):
    """``(verdict, change)``: change is B's median over A's, minus one,
    signed so that positive means worse."""
    a_med, b_med = quartiles(a_values)[1], quartiles(b_values)[1]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b_med - a_med) / a_med if a_med else 0.0
    if max(spread(a_values), spread(b_values)) > bound:
        if better == "lower":
            clear_win = max(b_values) < min(a_values)
        else:
            clear_win = min(b_values) > max(a_values)
        return ("ok" if clear_win else "unresolved"), change
    return ("worse" if change > bound else "ok"), change


def compare_end_to_end(a, b, out=None):
    bad = 0
    header = (
        f"{'workload':15s} {'metric':22s} {'A median':>11s} {'A q1..q3':>23s}"
        f" {'B median':>11s} {'B q1..q3':>23s} {'change':>8s} {'bound':>6s}  verdict"
    )
    print(header, file=out)
    for name, a_runs in a["workloads"].items():
        b_runs = b["workloads"].get(name, [])
        if not a_runs or not b_runs:
            print(f"{name:15s} missing from one side: worse", file=out)
            bad += 1
            continue
        for metric, (_unit, better, bound) in END_TO_END.items():
            a_values = [run["end_to_end"][metric] for run in a_runs]
            b_values = [run["end_to_end"][metric] for run in b_runs]
            verdict, change = judge(a_values, b_values, better, bound)
            a_q1, a_med, a_q3 = quartiles(a_values)
            b_q1, b_med, b_q3 = quartiles(b_values)
            print(
                f"{name:15s} {metric:22s} {a_med:11.4f}"
                f" {a_q1:11.4f}..{a_q3:<10.4f} {b_med:11.4f}"
                f" {b_q1:11.4f}..{b_q3:<10.4f} {change * 100:+7.2f}%"
                f" {bound * 100:5.0f}%  {verdict}",
                file=out,
            )
            bad += verdict == "worse"
        a_failed = max(run["failed_share"] for run in a_runs)
        b_failed = max(run["failed_share"] for run in b_runs)
        verdict = "worse" if b_failed > a_failed else "ok"
        print(
            f"{name:15s} {'failed_share':22s} {a_failed:11.4f} {'':23s}"
            f" {b_failed:11.4f} {'':23s} {'':8s} {'any':>6s}  {verdict}",
            file=out,
        )
        bad += verdict == "worse"
    return bad


def compare_exact(a, b, out=None):
    differing = 0
    for name, a_runs in a["workloads"].items():
        b_by_seed = {run["seed"]: run for run in b["workloads"].get(name, [])}
        for a_run in a_runs:
            b_run = b_by_seed.get(a_run["seed"])
            if b_run is None:
                continue
            for metric in EXACT:
                left = a_run["per_layer"][metric]
                right = b_run["per_layer"][metric]
                if left != right:
                    print(
                        f"{name:15s} seed {a_run['seed']:<4d} {metric:44s}"
                        f" {left!r} != {right!r}",
                        file=out,
                    )
                    differing += 1
    if not differing:
        print(f"all {len(EXACT)} exact per-layer metrics agree", file=out)
    return differing


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    if a.get("traced") != b.get("traced"):
        sys.stderr.write("one file is traced and the other is not\n")
        return 2
    bad = compare_exact(a, b) if a.get("traced") else compare_end_to_end(a, b)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
