"""FIG1 (4.1) — the descriptor data structures at scale.

The paper's structures exist for lookup efficiency: TDs in a chained hash
table, permits and dependencies doubly hashed on the two tids involved.
Sweeps: table size vs lookup cost (chain lengths stay bounded thanks to
resizing), and permit-check cost with many permits on one object vs
spread across objects.
"""

import time

from conftest import fresh_runtime

from repro.bench.report import print_table
from repro.common.hashtable import DoubleHashIndex
from repro.common.ids import ObjectId, Tid
from repro.core.locks import ObjectRegistry
from repro.core.permits import PermitTable
from repro.core.semantics import WRITE
from tests.common.chained_table import ChainedHashTable


def _timed(callable_, repeat=3):
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def test_bench_chained_table_scaling(benchmark):
    rows = []
    for size in (100, 1_000, 10_000, 50_000):
        table = ChainedHashTable(buckets=8)
        for index in range(size):
            table.put(Tid(index), index)

        probe_keys = [Tid(i * 7 % size) for i in range(1000)]

        def probe():
            for key in probe_keys:
                table.get(key)

        micros = _timed(probe)
        rows.append(
            [size, table.bucket_count, table.longest_chain(), micros]
        )
    print_table(
        "FIG1a: chained TD table — 1000 probes",
        ["entries", "buckets", "longest chain", "us/1000 probes"],
        rows,
    )
    # Resizing keeps chains short at every scale.
    assert all(row[2] <= 16 for row in rows)
    # Probe cost roughly flat (hash table, not a list scan).
    assert rows[-1][3] <= 20 * rows[0][3]
    table = ChainedHashTable()
    for index in range(10_000):
        table.put(Tid(index), index)
    benchmark(lambda: [table.get(Tid(i)) for i in range(0, 10_000, 100)])


def test_bench_double_hash_index_scaling(benchmark):
    rows = []
    for pairs in (100, 1_000, 10_000):
        index = DoubleHashIndex()
        for value in range(pairs):
            index.add(Tid(value % 50), Tid(value % 97), value)

        def probe():
            for value in range(50):
                index.by_left(Tid(value))
            for value in range(97):
                index.by_right(Tid(value))

        rows.append([pairs, _timed(probe)])
    print_table(
        "FIG1b: doubly hashed permit/dependency index — full fan probes",
        ["entries", "us/probe sweep"],
        rows,
    )
    benchmark(lambda: index.by_left(Tid(7)))


def test_bench_permit_check_cost(benchmark):
    """The lock path scans an object's permit list (section 4.2 step 1b):
    cost grows with permits on THAT object, not with permits elsewhere."""
    rows = []
    for on_object, elsewhere in ((4, 0), (64, 0), (4, 2000), (64, 2000)):
        registry = ObjectRegistry()
        permits = PermitTable(registry)
        hot = ObjectId(1)
        for value in range(on_object):
            permits.grant(
                hot, Tid(value + 1), receiver=Tid(5000), operation=WRITE
            )
        for value in range(elsewhere):
            permits.grant(
                ObjectId(value + 10),
                Tid(value + 1),
                receiver=Tid(6000),
                operation=WRITE,
            )

        def probe():
            for __ in range(1000):
                permits.allows(hot, Tid(1), Tid(5000), WRITE)

        rows.append([on_object, elsewhere, _timed(probe)])
    print_table(
        "FIG1c: permit check cost — 1000 allows() calls",
        ["permits on object", "permits elsewhere", "us"],
        rows,
    )
    # Unrelated permits do not slow the hot object's checks (4x slack).
    with_noise = [row for row in rows if row[1] > 0]
    without = {row[0]: row[2] for row in rows if row[1] == 0}
    for on_object, __, micros in with_noise:
        assert micros <= 4 * without[on_object] + 50

    registry = ObjectRegistry()
    permits = PermitTable(registry)
    for value in range(64):
        permits.grant(ObjectId(1), Tid(value + 1), receiver=Tid(99))
    benchmark(lambda: permits.allows(ObjectId(1), Tid(1), Tid(99), WRITE))


def test_bench_od_attachment(benchmark):
    """ODs are created on first interest and freed when idle — the
    registry never leaks descriptors across transaction lifetimes."""

    def run():
        rt = fresh_runtime(seed=44)
        from conftest import incrementer, make_counters

        oids = make_counters(rt, 32)
        for oid in oids:
            tid = rt.spawn(incrementer(oid))
            rt.commit(tid)
        return len(rt.manager.registry)

    live = run()
    print_table(
        "FIG1d: live object descriptors after quiescence",
        ["live ODs"],
        [[live]],
    )
    assert live == 0
    benchmark(run)
