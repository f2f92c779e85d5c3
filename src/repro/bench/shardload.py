"""Wall-clock shard-parallel workloads (EX14d / EX15c).

The deterministic sharded engine proves *equivalence*; this module
measures *throughput*.  Two execution models:

* **In-process** — :class:`~repro.runtime.threaded.ThreadedRuntime`
  over an N-shard manager, every transaction spawned with its key,
  drives one worker thread per shard.  Under
  CPython's GIL the pure-Python transaction path cannot exceed one core,
  so thread counts buy concurrency (overlap of blocking) but not
  parallel speedup; the numbers are still recorded as the honest datum
  for the single-interpreter configuration.
* **Multi-process** — each shard runs in its own forked process over its
  own partition of the key space (shared-nothing striping, the standard
  way shard parallelism escapes the GIL).  This is the configuration the
  ISSUE's ≥ 2× gate targets; on a single-core runner the harness records
  the measured speedup without enforcing the gate.

Workers are module-level functions so ``multiprocessing`` can pickle
them with the default (fork) start method.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.common.codec import decode_int, encode_int

__all__ = [
    "cpu_can_support_speedup_gate",
    "run_partition",
    "multiprocess_throughput",
    "parallel_runtime_throughput",
    "sharded_oracle_throughput",
]


def cpu_can_support_speedup_gate(required_cores=4):
    """Whether this machine can physically show shard-parallel speedup."""
    count = os.cpu_count() or 1
    return count >= required_cores


def _increment_bodies(oids, count):
    def bump(index):
        def body(tx):
            oid = oids[index % len(oids)]
            value = decode_int((yield tx.read(oid)))
            yield tx.write(oid, encode_int(value + 1))

        return body

    return [bump(index) for index in range(count)]


def _drive_single_engine(n_txns, n_objects, seed):
    """One single-shard engine run; returns (commits, elapsed_seconds)."""
    from repro.runtime.sharded import ShardedRuntime

    rt = ShardedRuntime(n_shards=1, seed=seed)

    def setup(tx):
        created = []
        for index in range(n_objects):
            created.append(
                (yield tx.create(encode_int(0), name=f"p{index}"))
            )
        return created

    oids = rt.run(setup).value
    # Sequential commits: a single-thread engine's throughput datum is
    # transactions retired per second, not contention survival.
    start = time.perf_counter()
    commits = 0
    for body in _increment_bodies(oids, n_txns):
        if rt.run(body).committed:
            commits += 1
    elapsed = time.perf_counter() - start
    return commits, elapsed


def run_partition(args):
    """Module-level multiprocessing worker: one shard's partition."""
    shard_index, n_txns, n_objects, seed = args
    return _drive_single_engine(n_txns, n_objects, seed + shard_index)


def multiprocess_throughput(n_shards, txns_per_shard=64, n_objects=8, seed=11):
    """Run ``n_shards`` shared-nothing partitions in parallel processes.

    Returns ``(total_commits, wall_seconds, throughput_txn_per_s)``.
    With one shard the pool degenerates to a single worker process, so
    the 1-vs-N comparison pays identical process-spawn overhead on both
    sides and the ratio isolates the parallelism.
    """
    jobs = [
        (shard, txns_per_shard, n_objects, seed) for shard in range(n_shards)
    ]
    start = time.perf_counter()
    if n_shards == 1:
        results = [run_partition(jobs[0])]
    else:
        with multiprocessing.Pool(processes=n_shards) as pool:
            results = pool.map(run_partition, jobs)
    wall = time.perf_counter() - start
    commits = sum(committed for committed, __ in results)
    return commits, wall, commits / wall if wall else float("inf")


def parallel_runtime_throughput(n_shards, n_txns=32):
    """One shared :class:`ThreadedRuntime` on N shards, disjoint key batches.

    Each transaction owns its object (the shard-parallel workload shape:
    disjoint footprints, key-pinned to the owning shard), so every
    transaction commits and the wall-clock measures engine cost rather
    than deadlock-victim attrition.

    Returns ``(commits, wall_seconds, throughput_txn_per_s)``.
    """
    from repro.core.sharded import ShardedTransactionManager
    from repro.runtime.threaded import ThreadedRuntime

    rt = ThreadedRuntime(
        ShardedTransactionManager(n_shards=n_shards), watchdog_interval=0.01
    )
    try:

        def setup(tx):
            created = []
            for index in range(n_txns):
                created.append(
                    (yield tx.create(encode_int(0), name=f"q{index}"))
                )
            return created

        oids = rt.run(setup).value

        def bump_for(oid):
            def body(tx):
                value = decode_int((yield tx.read(oid)))
                yield tx.write(oid, encode_int(value + 1))

            return body

        start = time.perf_counter()
        tids = [
            rt.spawn(bump_for(oids[index]), key=f"q{index}")
            for index in range(n_txns)
        ]
        outcomes = rt.commit_all(tids)
        wall = time.perf_counter() - start
        commits = sum(outcomes.values())
        return commits, wall, commits / wall if wall else float("inf")
    finally:
        rt.close()


def sharded_oracle_throughput(n_shards, n_txns=32, n_objects=8, seed=5):
    """The deterministic sharded engine on one thread (baseline datum)."""
    from repro.runtime.sharded import ShardedRuntime

    rt = ShardedRuntime(n_shards=n_shards, seed=seed)

    def setup(tx):
        created = []
        for index in range(n_objects):
            created.append(
                (yield tx.create(encode_int(0), name=f"q{index}"))
            )
        return created

    oids = rt.run(setup).value
    start = time.perf_counter()
    commits = 0
    for body in _increment_bodies(oids, n_txns):
        if rt.run(body).committed:
            commits += 1
    wall = time.perf_counter() - start
    return commits, wall, commits / wall if wall else float("inf")
