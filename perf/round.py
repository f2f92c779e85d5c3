"""One round: a fresh engine, one timed loop of a fixed number of units.

A round is what a fresh interpreter runs (``perf/run.py`` starts one per
round): build the engine — this first instance takes the untimed
warm-up and is thrown away — build the one measured, then
``gc.collect()``, the timed loop, verification, the exact counts and the
census, the crash + recovery, and last a third build, so that set-up is
timed at three moments of the round.  The unit
count is fixed per workload, not a duration: per-unit cost depends on
run length, so the count is part of the workload's definition and every
count-type metric repeats exactly.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import statistics
from time import perf_counter

from repro.common.events import EventKind

from perf import layers
from perf.clients import Recorder
from perf.hostclock import HostClock, WallClock
from perf.inputs import digest
from perf.stats import late_early_ratio, percentile
from perf.trace import SpanTracer, Tracer
from perf.workload import WARMUP_UNITS
from perf.workloads import WORKLOADS

MIN_UNITS = 24  # at any scale: four of each extended_mix kind
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def scaled(units, scale):
    return max(MIN_UNITS, int(units * scale))


def _timed_build(cls, tracer, workdir, clock):
    def build():
        workload = cls(tracer, workdir, clock)
        workload.build()
        return workload

    return clock.timed(build)


def _count_victims(workload):
    """Subscribe (traced rounds only) to abort events; deadlock victims
    are the aborts whose reason says so."""
    victims = [0]

    def on_abort(event):
        if event.detail.get("reason") == "deadlock victim":
            victims[0] += 1

    for manager in workload.managers():
        manager.events.subscribe(on_abort, kinds=(EventKind.ABORTED,))
    return victims


def run_round(name, seed, traced=False, scale=1.0, out_dir=OUT_DIR):
    """Run one round of workload ``name``; returns its result dict."""
    cls = WORKLOADS[name]
    units = scaled(cls.units, scale)
    workdir = os.path.join(out_dir, f"work_{name}_{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    quiet = Tracer()
    # Every duration below is read from this clock (``perf.hostclock``).
    clock = WallClock() if traced else HostClock()

    # Set-up, three times (the third at the end of the round); the first
    # instance is the warm-up target.
    warm, first = _timed_build(cls, quiet, workdir, clock)
    warm_inputs = warm.generate(f"{seed}:warmup", scaled(WARMUP_UNITS, scale))
    warm.run(
        warm.prepare(warm_inputs), Recorder(quiet, len(warm_inputs), clock)
    )
    warm.close()
    del warm
    tracer = SpanTracer() if traced else quiet
    workload, second = _timed_build(cls, tracer, workdir, clock)

    inputs = workload.generate(seed, units)
    work = workload.prepare(inputs)
    recorder = Recorder(tracer, units, clock)
    victims = _count_victims(workload) if traced else None
    before = workload.counters()
    profiler = cProfile.Profile() if traced else None
    gc.collect()

    if profiler is not None:
        profiler.enable()
    start = clock.probe()
    workload.run(work, recorder)
    end = perf_counter()
    if profiler is not None:
        profiler.disable()
    clock.probe()
    read = clock.reading
    wall = read(end) - read(start)
    # Wall time the loop's own work took: the probes inside it left out.
    raw_wall = end - start - sum(
        ended - began for began, ended in clock.probes
        if start <= began and ended <= end
    )

    after = workload.counters()
    problems = list(workload.verify(inputs, recorder))
    census = workload.census()
    user_bytes = workload.user_bytes(inputs)
    recovery_s, recovery_counts, recovery_problems = workload.recover(
        inputs, recorder
    )
    problems += recovery_problems
    workload.close()
    spare, third = _timed_build(cls, quiet, workdir, clock)
    spare.close()
    del spare
    setups = [first, second, third]

    missing = sum(1 for unit in recorder.units if unit is None)
    if missing:
        problems.append(f"{missing} units never reached a final outcome")
    done = [unit for unit in recorder.units if unit is not None]
    latency_of = [
        None if unit is None else read(unit[2]) - read(unit[1])
        for unit in recorder.units
    ]
    latencies = [latency for latency in latency_of if latency is not None]
    ordered = sorted(latencies)
    failed = len(recorder.failed) + missing
    by_kind = {}
    for unit, latency in zip(recorder.units, latency_of):
        if unit is not None:
            by_kind.setdefault(unit[0], []).append(latency)

    # Segments, one per completion: what follows the last one (the
    # cluster's final ``converge``) belongs to the last segment.
    edges = [read(instant) for instant in [start] + recorder.marks]
    segments = [later - earlier for earlier, later in zip(edges, edges[1:])]
    if segments:
        segments[-1] += read(end) - edges[-1]

    counts = {key: after[key] - before[key] for key in after}
    counts.update(recovery_counts)
    counts["driver.retries"] = sum(retries for *_rest, retries in done)
    counts["driver.user_bytes"] = user_bytes
    result = {
        "workload": name,
        "seed": seed,
        "units": units,
        "clients": cls.clients,
        "traced": traced,
        "digest": digest(inputs),
        "wall_s": raw_wall,
        "host_slowdown": clock.slowdown(start, end),
        "attempted": units,
        "failed": failed,
        "latency_samples": len(latencies),
        "end_to_end": {
            "units_per_s": (units - failed) / wall,
            "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
            "latency_p99_ms": percentile(ordered, 0.99) * 1e3,
            "late_early_cost_ratio": late_early_ratio(latencies),
            "failed_share": failed / units,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "setup_s": statistics.median(setups),
            "recovery_s": recovery_s,
        },
        "setups_s": setups,
        "latencies_s": latency_of,
        "segments_s": segments,
        "counts": counts,
        "census": census,
        "kind_p50_ms": {
            kind: statistics.median(values) * 1e3
            for kind, values in sorted(by_kind.items())
        },
        "problems": problems,
    }
    if traced:
        stats = pstats.Stats(profiler).stats
        counts["core.deadlock.victims"] = victims[0]
        counts["storage.pages.disk_writes"] = layers.calls_of(
            stats, "storage/disk.py", "write_page"
        )
        folded = layers.fold(stats)
        total = sum(seconds for seconds, _calls in folded.values())
        result["layers"] = {
            layer: {
                "self_us_per_unit": seconds * 1e6 / units,
                "calls_per_unit": calls / units,
                "share": seconds / total if total else 0.0,
            }
            for layer, (seconds, calls) in folded.items()
        }
        trace_path = os.path.join(out_dir, f"trace_{name}.json")
        tracer.write(trace_path, name, seed, done)
        result["trace_file"] = trace_path
    if os.path.isdir(workdir) and not os.listdir(workdir):
        os.rmdir(workdir)
    return result
