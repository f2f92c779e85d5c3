"""EX14d / EX15c — wall-clock variants for the sharded engine.

EX15c extends the EX15 substitution check with throughput: the same
increment workload on the deterministic sharded engine (1 vs 4 shards,
single thread — overhead check), the thread-per-shard parallel runtime,
and shared-nothing multi-process shard partitions.  The ISSUE's ≥ 2×
speedup gate applies to the multi-process configuration and only on a
runner with enough cores to make the claim physically possible; on
smaller runners the measured ratio is still printed and recorded in the
trajectory file so multi-core CI enforces it.

EX14d is the cross-shard tax probe: the same transaction population
committed as single-shard versus spread multi-shard footprints, so the
barrier's cost (foreign segment flushes) is visible as a per-commit
wall-clock delta.
"""

import os
import time

import pytest

from repro.bench.report import print_table
from repro.bench.shardload import (
    cpu_can_support_speedup_gate,
    multiprocess_throughput,
    parallel_runtime_throughput,
    sharded_oracle_throughput,
)
from repro.common.codec import encode_int
from repro.common.ids import Tid
from repro.storage.store import StorageManager


def test_bench_ex15c_sharded_throughput(benchmark):
    rows = []

    # Deterministic engine, one thread: sharding must not tax the oracle.
    c1, w1, t1 = sharded_oracle_throughput(1, n_txns=32)
    c4, w4, t4 = sharded_oracle_throughput(4, n_txns=32)
    rows.append(["oracle 1 shard", c1, f"{w1 * 1e3:.1f}", f"{t1:.0f}"])
    rows.append(["oracle 4 shards", c4, f"{w4 * 1e3:.1f}", f"{t4:.0f}"])
    assert c1 == c4 == 32
    # Striping overhead stays within an order of magnitude.
    assert w4 < w1 * 10

    # Thread-per-shard runtime (GIL-bound: concurrency, not parallelism).
    pc, pw, pt = parallel_runtime_throughput(4, n_txns=32)
    rows.append(["threads 4 shards", pc, f"{pw * 1e3:.1f}", f"{pt:.0f}"])
    assert pc == 32

    # Shared-nothing multi-process partitions: the scaling configuration.
    mc1, mw1, mt1 = multiprocess_throughput(1, txns_per_shard=64)
    mc4, mw4, mt4 = multiprocess_throughput(4, txns_per_shard=64)
    speedup = (mt4 / mt1) if mt1 else 0.0
    rows.append(["procs 1 shard", mc1, f"{mw1 * 1e3:.1f}", f"{mt1:.0f}"])
    rows.append(["procs 4 shards", mc4, f"{mw4 * 1e3:.1f}", f"{mt4:.0f}"])
    rows.append(
        [f"speedup (cores={os.cpu_count()})", "", "", f"{speedup:.2f}x"]
    )
    assert mc1 == 64 and mc4 == 256

    print_table(
        "EX15c: sharded engine wall-clock throughput",
        ["configuration", "commits", "ms", "txn/s"],
        rows,
    )

    if cpu_can_support_speedup_gate():
        # The ISSUE acceptance gate, enforced where it is measurable.
        assert speedup >= 2.0, (
            f"4-shard multiprocess speedup {speedup:.2f}x < 2.0x on a "
            f"{os.cpu_count()}-core runner"
        )

    benchmark(lambda: sharded_oracle_throughput(4, n_txns=16))


def _commit_population(multi_shard, population=24):
    """Commit ``population`` transactions; footprints either stay on one
    shard or spread over all four.  Returns per-commit milliseconds."""
    store = StorageManager(n_shards=4)
    setup = Tid(999)
    oids = [
        store.create_object(setup, encode_int(0), name=f"e{i}")
        for i in range(16)
    ]
    store.log_commit(setup)
    by_shard = {}
    for oid in oids:
        by_shard.setdefault(store.router.shard_of(oid), []).append(oid)
    start = time.perf_counter()
    for index in range(population):
        tid = Tid(index + 1)
        if multi_shard:
            targets = [group[0] for group in by_shard.values()]
        else:
            group = list(by_shard.values())[index % len(by_shard)]
            targets = [group[0]]
        for oid in targets:
            store.write_object(tid, oid, encode_int(index))
        store.log_commit(tid)
    elapsed = time.perf_counter() - start
    return elapsed * 1e3 / population


def test_bench_ex14d_cross_shard_commit_tax(benchmark):
    rows = []
    local_ms = _commit_population(multi_shard=False)
    spread_ms = _commit_population(multi_shard=True)
    rows.append(["single-shard footprint", f"{local_ms:.4f}"])
    rows.append(["four-shard footprint", f"{spread_ms:.4f}"])
    rows.append(
        ["barrier tax", f"{spread_ms / local_ms:.2f}x" if local_ms else "-"]
    )
    print_table(
        "EX14d: cross-shard commit barrier tax (per-commit ms)",
        ["footprint", "ms/commit"],
        rows,
    )
    # The barrier costs something but stays bounded: the eager foreign
    # flushes are per-touched-segment, not per-object.
    assert spread_ms < local_ms * 50
    benchmark(lambda: _commit_population(multi_shard=True, population=8))
