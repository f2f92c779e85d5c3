"""EX15 (ablation) — the two runtimes over the same core.

The same workload runs on the deterministic cooperative scheduler and on
the thread-per-transaction runtime.  Expected shape: identical *logical*
outcomes (same commits, same final data) with different wall-clock
profiles — the cooperative runtime has no thread overhead but pays
polling retries; threads pay context switches and the GIL.

This is the substitution check for DESIGN.md's claim that semantics are
runtime-independent.
"""

import time

from repro.bench.report import print_table
from repro.common.codec import decode_int, encode_int
from repro.core.manager import TransactionManager
from repro.runtime.coop import CooperativeRuntime
from repro.runtime.threaded import ThreadedRuntime


def _bodies(oids, count):
    def blind(index):
        def body(tx):
            value = decode_int((yield tx.read(oids[index % len(oids)])))
            yield tx.write(
                oids[index % len(oids)], encode_int(value + 1)
            )

        return body

    return [blind(index) for index in range(count)]


def _setup(runtime, n_objects):
    def setup(tx):
        created = []
        for index in range(n_objects):
            created.append(
                (yield tx.create(encode_int(0), name=f"r{index}"))
            )
        return created

    return runtime.run(setup).value


def _run_coop(transactions, n_objects):
    rt = CooperativeRuntime(TransactionManager(), seed=3)
    oids = _setup(rt, n_objects)
    start = time.perf_counter()
    tids = [rt.spawn(body) for body in _bodies(oids, transactions)]
    rt.run_until_quiescent()
    outcomes = rt.commit_all(tids)
    elapsed = (time.perf_counter() - start) * 1e3
    finals = []

    def reader(tx):
        values = []
        for oid in oids:
            values.append(decode_int((yield tx.read(oid))))
        return values

    finals = rt.run(reader).value
    return sum(outcomes.values()), finals, elapsed


def _run_threaded(transactions, n_objects):
    rt = ThreadedRuntime(watchdog_interval=0.01, poll_timeout=0.002)
    try:
        oids = _setup(rt, n_objects)
        start = time.perf_counter()
        tids = [rt.initiate(body) for body in _bodies(oids, transactions)]
        for tid in tids:
            rt.begin(tid)
        outcomes = rt.commit_all(tids)
        elapsed = (time.perf_counter() - start) * 1e3

        def reader(tx):
            values = []
            for oid in oids:
                values.append(decode_int((yield tx.read(oid))))
            return values

        finals = rt.run(reader).value
        return sum(outcomes.values()), finals, elapsed
    finally:
        rt.close()


def test_bench_runtime_equivalence(benchmark):
    rows = []
    for transactions, n_objects in ((4, 4), (8, 4), (16, 8)):
        coop_commits, coop_finals, coop_ms = _run_coop(
            transactions, n_objects
        )
        thr_commits, thr_finals, thr_ms = _run_threaded(
            transactions, n_objects
        )
        rows.append(
            [f"{transactions}t/{n_objects}o", coop_commits, coop_ms,
             thr_commits, thr_ms]
        )
        # Consistency on both runtimes: final sum == committed increments.
        assert sum(coop_finals) == coop_commits
        assert sum(thr_finals) == thr_commits
    print_table(
        "EX15: cooperative vs threaded runtime (same core, same workload)",
        ["workload", "coop commits", "coop ms", "thread commits",
         "thread ms"],
        rows,
    )
    benchmark(lambda: _run_coop(8, 4))


def test_bench_threaded_scaling(benchmark):
    rows = []
    for transactions in (2, 8, 16):
        commits, finals, elapsed = _run_threaded(transactions, 8)
        rows.append([transactions, commits, elapsed])
        assert sum(finals) == commits
    print_table(
        "EX15b: threaded runtime scaling",
        ["transactions", "commits", "ms"],
        rows,
    )
    benchmark(lambda: _run_threaded(4, 4))
