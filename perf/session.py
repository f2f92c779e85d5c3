"""One run of a workload: rounds in fresh interpreters, combined.

The parent process measures nothing itself.  It starts one interpreter
per round (``perf/run.py --round``), waits for each to end, and combines
what they print (``perf.report``).  Rounds are replicas of one another —
the same inputs through a fresh engine — and a run wants as many of them
as its window holds, so it keeps one going on each of two cores, each
pinned to its own; the threads here only wait for their child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

from perf import report
from perf.round import OUT_DIR, run_round
from perf.stats import calibration_ms
from perf.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perf", "run.py")
MIN_ROUNDS = 3
MAX_LANES = 2  # rounds in flight at once, each pinned to a core of its own
ROUND_TIMEOUT_S = 50  # three of them stay inside the contract's 180 s


def _cpus():
    """The cores a run keeps busy, one round on each: at most two."""
    try:
        return sorted(os.sched_getaffinity(0))[:MAX_LANES]
    except AttributeError:  # not Linux: one lane, wherever it is put
        return [None]


def _child_round(name, seed, traced, scale, cpu=None):
    """One round in a fresh interpreter; returns its result dict."""
    command = [
        sys.executable, RUN_PY, "--round", name,
        "--seed", str(seed), "--trace", "1" if traced else "0",
        "--scale", repr(scale),
    ]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    # A fixed hash seed: the program iterates sets of operation names
    # (``ConflictTable.conflicts_any``), so with the interpreter's random
    # string hashes the same inputs make a different number of calls.
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perf: a round of {name} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_untraced(name, seed, seconds, scale=1.0):
    """Rounds of ``name`` for ``seconds`` (at least ``MIN_ROUNDS``), one
    lane of them per core, combined into one run's end-to-end figures.

    A lane starts a round only if one as long as its last would still
    end inside ``seconds``: the run is a window of fixed length, however
    many rounds the host lets it hold.
    """
    cpus = _cpus()
    least = -(-MIN_ROUNDS // len(cpus))  # per lane
    started = time.monotonic()
    rounds, errors = [], []

    def lane(cpu):
        mine = 0
        last = 0.0
        try:
            while mine < least or time.monotonic() - started + last <= seconds:
                begun = time.monotonic()
                rounds.append(_child_round(name, seed, False, scale, cpu))
                last = time.monotonic() - begun
                mine += 1
        except BaseException as exc:  # re-raised below, in the caller's thread
            errors.append(exc)

    lanes = [threading.Thread(target=lane, args=(cpu,)) for cpu in cpus]
    for thread in lanes:
        thread.start()
    for thread in lanes:
        thread.join()
    if errors:
        raise errors[0]
    combined = report.combine_rounds(rounds)
    if any(other["counts"] != rounds[0]["counts"] for other in rounds[1:]):
        combined["problems"].append(
            "exact counts differ between rounds of one run"
        )
    return combined


def run_traced(name, seed, scale=1.0):
    """One untraced and one traced round on identical inputs."""
    untraced = _child_round(name, seed, False, scale)
    traced = _child_round(name, seed, True, scale)
    problems = sorted(set(untraced["problems"]) | set(traced["problems"]))
    if untraced["digest"] != traced["digest"]:
        problems.append("traced and untraced rounds saw different inputs")
    return {
        "units": traced["units"],
        "attempted": traced["attempted"],
        "failed": max(untraced["failed"], traced["failed"]),
        "digest": traced["digest"],
        "per_layer": report.per_layer_metrics(
            untraced, traced, calibration_ms()
        ),
        "layers": traced["layers"],
        "trace_file": traced["trace_file"],
        "problems": problems,
    }


# -- printing ----------------------------------------------------------------


def print_end_to_end(name, run):
    print(
        f"{name}: {run['units']} units x {run['rounds']} rounds,"
        f" {run['clients']} client(s), {run['latency_samples']} latency"
        f" samples, inputs {run['digest'][:12]}"
    )
    slowdowns = sorted(run["per_round"]["host_slowdown"])
    print(
        f"  the host ran {slowdowns[len(slowdowns) // 2]:.2f}x slow"
        f" ({slowdowns[0]:.2f}-{slowdowns[-1]:.2f} over the rounds);"
        " durations are read at the reference host's speed"
    )
    for metric, (unit, _better, _bound) in report.END_TO_END.items():
        print(f"  {metric:24s} {run['end_to_end'][metric]:14.4f} {unit}")
    print(f"  {report.FAILED_SHARE[0]:24s} {run['failed_share']:14.4f}"
          f" {report.FAILED_SHARE[1]}")


def print_per_layer(name, run):
    print(f"{name}: {run['units']} units, inputs {run['digest'][:12]},"
          f" spans in {run['trace_file']}")
    print(f"  {'layer':20s} {'self us/unit':>13s} {'calls/unit':>11s} {'share':>7s}")
    total = 0.0
    for layer, self_us, calls, share in report.layer_table(run):
        total += share
        print(f"  {layer:20s} {self_us:13.1f} {calls:11.1f} {share:6.1f}%")
    print(f"  {'(sum of shares)':20s} {'':13s} {'':11s} {total:6.1f}%")
    for metric, unit in report.PER_LAYER.items():
        if metric.endswith(("self_us_per_unit", "calls_per_unit")):
            continue
        print(f"  {metric:44s} {run['per_layer'][metric]:14.4f} {unit}")


def print_problems(name, run):
    for problem in run["problems"]:
        print(f"  VERIFICATION FAILED ({name}): {problem}")


# -- the three modes ---------------------------------------------------------


def _run_and_print(name, seed, traced, args):
    if traced:
        run = run_traced(name, seed, args.scale)
        print_per_layer(name, run)
    else:
        run = run_untraced(name, seed, args.seconds, args.scale)
        print_end_to_end(name, run)
    print_problems(name, run)
    return run


def contract_mode(args):
    name = args.workload
    run = _run_and_print(name, args.seed, args.trace, args)
    if args.trace:
        values, units = run["per_layer"], report.PER_LAYER
    else:
        values = run["end_to_end"]
        units = {metric: unit for metric, (unit, *_r) in report.END_TO_END.items()}
    print(json.dumps({
        "correct": not run["problems"] and run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0 if not run["problems"] else 1


def all_mode(args):
    """Every workload, ``--repeat`` runs each (seeds N, N+1, ...)."""
    results = {
        "seed": args.seed,
        "traced": bool(args.traced),
        "seconds": args.seconds,
        "scale": args.scale,
        "workloads": {name: [] for name in WORKLOADS},
    }
    ok = True
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for name in WORKLOADS:
            run = _run_and_print(name, seed, args.traced, args)
            ok = ok and not run["problems"] and run["failed"] == 0
            run["seed"] = seed
            results["workloads"][name].append(run)
    out = args.out or os.path.join(
        OUT_DIR,
        f"results_seed{args.seed}{'_traced' if args.traced else ''}.json",
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print(f"results written to {out}")
    print("all workloads verified" if ok else "VERIFICATION FAILED")
    return 0 if ok else 1


def round_mode(args):
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    result = run_round(args.round, args.seed, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0
