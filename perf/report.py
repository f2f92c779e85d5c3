"""Metric definitions, and how rounds combine into the figures reported.

**Why the median repetition of each piece.**  Every round of a run
executes the same inputs on a deterministic engine, so unit ``i`` (and
segment ``k`` of the loop) is bit-identical work in every round; the
exact counts prove it each time.  Each round has already read its
durations from ``perf.hostclock``, which takes out how slow the host was
running; what is left differs between rounds by a few per cent and by
the odd burst that hit a unit but not the probes beside it.  Each piece
of work is therefore reported at the median of its repetitions — per
unit for latencies, per segment (the gap between two consecutive
completions) for throughput — which keeps every deterministic cost (a
checkpoint, a deadlock retry, growth with run length) and drops the
bursts.
"""

from __future__ import annotations

import statistics

from perf.inputs import EXTENDED_KINDS
from perf.layers import LAYERS
from perf.stats import late_early_ratio, percentile

# name -> (unit, better, bound as a share of the parent's median).  Ten
# runs under the same host conditions spread 1-7% on every timing, and
# the host clock leaves about +-10% between the quietest and the slowest
# conditions seen (README, *Steadiness*).  Every timing therefore gets
# the contract's largest bound; memory does not move.
END_TO_END = {
    "units_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p99_ms": ("ms", "lower", 0.25),
    "late_early_cost_ratio": ("ratio", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
    "recovery_s": ("s", "lower", 0.25),
}
# ``failed_share`` is the eighth end-to-end figure.  It is 0 on every
# workload and any increase is a regression, so it has no relative bound
# and travels as the result's ``failed`` / ``attempted`` pair.
FAILED_SHARE = ("failed_share", "share")

COUNT_METRICS = {
    "runtime.steps_per_unit": "count",
    "core.manager.commits": "count",
    "core.manager.aborts": "count",
    "core.manager.commit_blocks_per_unit": "count",
    "core.manager.cascaded_aborts": "count",
    "core.locks.blocks_per_unit": "count",
    "core.locks.suspensions_per_unit": "count",
    "core.deadlock.victims_per_unit": "count",
    "driver.retries_per_unit": "count",
    "storage.log.appends_per_unit": "count",
    "storage.log.flushes_per_unit": "count",
    "storage.log.bytes_per_user_byte": "ratio",
    "storage.log.commits_per_flush": "ratio",
    "storage.pages.fetches_per_unit": "count",
    "storage.pages.disk_reads_per_unit": "count",
    "storage.pages.disk_writes_per_unit": "count",
    "storage.pages.hit_ratio": "ratio",
    "storage.recovery.records_scanned": "count",
    "storage.recovery.redo_count": "count",
    "storage.recovery.undo_count": "count",
    "core.sharded.cross_shard_commits_per_unit": "count",
    "storage.segmented.barrier_flushes_per_unit": "count",
    "net.fabric.sent_per_unit": "count",
    "net.fabric.delivered_per_unit": "count",
    "cluster.cluster.rounds_per_unit": "count",
    "cluster.site.forced_flushes_per_unit": "count",
    "workflow.records_per_execution": "count",
    "device.syncs_per_unit": "count",
}
CENSUS = (
    "census.runtime_tasks",
    "census.txn_table",
    "census.object_descriptors",
    "census.site_settled_gids",
    "census.site_voted_gids",
    "census.log_records",
    "census.live_transactions",
)
TIMING_METRICS = {
    **{f"models.{kind}.p50_ms": "ms" for kind in EXTENDED_KINDS},
    "trace.overhead_ratio": "ratio",
    "host.calibration_ms": "ms",
    "host.slowdown": "ratio",
}

PER_LAYER = {
    **{
        f"{layer}.{suffix}": unit
        for layer in LAYERS
        for suffix, unit in (("self_us_per_unit", "us"), ("calls_per_unit", "count"))
    },
    **COUNT_METRICS,
    **dict.fromkeys(CENSUS, "count"),
    **TIMING_METRICS,
}
# Every per-layer metric that must repeat exactly for the same seed.
EXACT = (
    [name for name in PER_LAYER if name.endswith(".calls_per_unit")]
    + list(COUNT_METRICS)
    + list(CENSUS)
)

GONE = -1  # a census structure the benchmark can no longer reach


def combine_rounds(rounds):
    """End-to-end figures of one run from its rounds (all untraced).

    Every duration is the median of its repetitions (module
    docstring): latencies unit by unit, the loop segment by segment,
    set-up over all builds, recovery and memory over the rounds.
    """
    first = rounds[0]
    units = first["units"]
    failed = max(r["failed"] for r in rounds)
    median = statistics.median
    latencies = [
        median(values)
        for values in zip(*(r["latencies_s"] for r in rounds))
        if None not in values
    ]
    ordered = sorted(latencies)
    wall = sum(median(values) for values in zip(*(r["segments_s"] for r in rounds)))
    return {
        "units": units,
        "clients": first["clients"],
        "rounds": len(rounds),
        "latency_samples": len(latencies),
        "digest": first["digest"],
        "attempted": units,
        "failed": failed,
        "failed_share": failed / units,
        "end_to_end": {
            "units_per_s": (units - failed) / wall,
            "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
            "latency_p99_ms": percentile(ordered, 0.99) * 1e3,
            "late_early_cost_ratio": late_early_ratio(latencies),
            "peak_rss_mb": median(
                r["end_to_end"]["peak_rss_mb"] for r in rounds
            ),
            "setup_s": median(s for r in rounds for s in r["setups_s"]),
            "recovery_s": median(r["end_to_end"]["recovery_s"] for r in rounds),
        },
        "counts": first["counts"],
        "census": first["census"],
        "per_round": {
            **{
                name: [r["end_to_end"][name] for r in rounds]
                for name in first["end_to_end"]
            },
            # What the wall clock showed, and how slow the host ran.
            "wall_s": [r["wall_s"] for r in rounds],
            "host_slowdown": [r["host_slowdown"] for r in rounds],
        },
        "problems": sorted({p for r in rounds for p in r["problems"]}),
    }


def per_layer_metrics(untraced, traced, calibration_ms):
    """Every per-layer metric of one workload, from its two rounds."""
    units = traced["units"]
    counts = traced["counts"]

    def per_unit(key):
        return counts.get(key, 0) / units

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    commits = counts["core.manager.commits"]
    flushes = counts["storage.log.flushes"]
    fetches = counts["storage.pages.hits"] + counts["storage.pages.misses"]
    segment_flushes = counts.get("storage.segmented.flushes")
    out = {}
    for layer, row in traced["layers"].items():
        out[f"{layer}.self_us_per_unit"] = row["self_us_per_unit"]
        out[f"{layer}.calls_per_unit"] = row["calls_per_unit"]
    out.update({
        "runtime.steps_per_unit": per_unit("runtime.steps"),
        "core.manager.commits": commits,
        "core.manager.aborts": counts["core.manager.aborts"],
        "core.manager.commit_blocks_per_unit": per_unit("core.manager.commit_blocks"),
        "core.manager.cascaded_aborts": counts["core.manager.cascaded_aborts"],
        "core.locks.blocks_per_unit": per_unit("core.locks.blocks"),
        "core.locks.suspensions_per_unit": per_unit("core.locks.suspensions"),
        "core.deadlock.victims_per_unit": per_unit("core.deadlock.victims"),
        "driver.retries_per_unit": per_unit("driver.retries"),
        "storage.log.appends_per_unit": per_unit("storage.log.appends"),
        "storage.log.flushes_per_unit": flushes / units,
        "storage.log.bytes_per_user_byte": ratio(
            counts["storage.log.bytes"], counts["driver.user_bytes"]
        ),
        "storage.log.commits_per_flush": ratio(commits, flushes),
        "storage.pages.fetches_per_unit": fetches / units,
        "storage.pages.disk_reads_per_unit": per_unit("storage.pages.misses"),
        "storage.pages.disk_writes_per_unit": per_unit("storage.pages.disk_writes"),
        "storage.pages.hit_ratio": ratio(counts["storage.pages.hits"], fetches),
        "storage.recovery.records_scanned": counts["storage.recovery.records_scanned"],
        "storage.recovery.redo_count": counts["storage.recovery.redo_count"],
        "storage.recovery.undo_count": counts["storage.recovery.undo_count"],
        "core.sharded.cross_shard_commits_per_unit": per_unit(
            "core.sharded.cross_shard_commits"
        ),
        # Every commit flushes its home segment once; what the segments
        # flushed beyond that is the cross-shard barrier.
        "storage.segmented.barrier_flushes_per_unit": (
            0.0 if segment_flushes is None
            else (segment_flushes - commits) / units
        ),
        "net.fabric.sent_per_unit": per_unit("net.fabric.sent"),
        "net.fabric.delivered_per_unit": per_unit("net.fabric.delivered"),
        "cluster.cluster.rounds_per_unit": per_unit("cluster.cluster.rounds"),
        "cluster.site.forced_flushes_per_unit": per_unit(
            "cluster.site.forced_flushes"
        ),
        "workflow.records_per_execution": ratio(
            counts.get("workflow.records", 0),
            counts.get("workflow.executions", 0),
        ),
        "device.syncs_per_unit": per_unit("device.syncs"),
    })
    for name in CENSUS:
        size = untraced["census"][name]
        out[name] = GONE if size is None else size
    for kind in EXTENDED_KINDS:
        out[f"models.{kind}.p50_ms"] = untraced["kind_p50_ms"].get(kind, 0.0)
    out["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    out["host.calibration_ms"] = calibration_ms
    out["host.slowdown"] = untraced["host_slowdown"]
    assert set(out) == set(PER_LAYER), set(out) ^ set(PER_LAYER)
    return out


def layer_table(traced):
    """Rows ``(layer, self µs/unit, calls/unit, share %)``, largest first."""
    rows = [
        (layer, row["self_us_per_unit"], row["calls_per_unit"], row["share"] * 100)
        for layer, row in traced["layers"].items()
        if row["share"] > 0
    ]
    return sorted(rows, key=lambda row: -row[3])
