"""The one thread engine, on a flat and on a 4-shard store.

Three properties its workers, its bookkeeping and its watchdog owe
every caller:

* The deadlock watchdog scans under the manager mutex.  The detector
  reads pending lock requests and commit waits, which every primitive
  mutates under that mutex; read in separate holds, the waits-for graph
  can be torn, and a victim can be aborted for a cycle that never
  existed.
* A request that raises for a program fails that program, as the
  program's own error does: its transaction aborts with the error on
  record, and the worker goes on stepping everything else.
* A finished tree leaves no thread object and no routing entry behind:
  after any number of units the engine holds what its live workers
  need, and the outcome table the status primitives answer from.
"""

import threading
import time

import pytest

from repro.common.errors import InvalidStateError
from repro.common.ids import Tid
from repro.core.manager import TransactionManager
from repro.core.sharded import ShardedTransactionManager
from repro.runtime.threaded import ThreadedRuntime
from tests.conftest import incrementer, make_counters

STORES = pytest.mark.parametrize(
    "n_shards", [1, 4], ids=["flat", "4-shard"]
)
UNITS = 120


def _engine(n_shards, **options):
    manager = (
        TransactionManager() if n_shards == 1
        else ShardedTransactionManager(n_shards=n_shards)
    )
    return ThreadedRuntime(manager, **options)


@STORES
def test_the_watchdog_scans_under_the_manager_mutex(n_shards):
    rt = _engine(n_shards, watchdog_interval=0.002)
    scans = []
    plain = rt._detector.build_graph

    def scanning():
        scans.append(rt.manager._mutex._is_owned())
        return plain()

    rt._detector.build_graph = scanning
    try:
        oid = make_counters(rt, 1)[0]
        deadline = time.monotonic() + 10.0
        while len(scans) < 5 and time.monotonic() < deadline:
            assert rt.run(incrementer(oid)).committed
            time.sleep(0.005)
        assert len(scans) >= 5
        assert all(scans), f"{scans.count(False)} of {len(scans)} unlocked"
    finally:
        rt.close()


@STORES
@pytest.mark.parametrize("keyed", [False, True], ids=["keyless", "keyed"])
def test_finished_trees_leave_no_thread_and_no_route(n_shards, keyed):
    rt = _engine(n_shards, poll_timeout=0.01)
    try:
        oid = make_counters(rt, 1)[0]
        tids = [
            rt.run(incrementer(oid), **({"key": f"k{n}"} if keyed else {}))
            .tid for n in range(UNITS)
        ]
        assert rt.join_all(timeout=10.0)
        assert rt.active_tasks() == []
        finished = set(tids)
        # Outcomes stay: the status primitives answer from them.
        held = {
            name: value for name, value in vars(rt).items()
            if name != "_outcomes"
        }
        routes = [
            name for name, value in held.items()
            if isinstance(value, dict)
            and finished & {key for key in value if isinstance(key, Tid)}
        ]
        assert not routes, routes
        threads = [
            item
            for value in held.values()
            for item in (
                value.values() if isinstance(value, dict)
                else value if isinstance(value, (list, set, tuple))
                else [value]
            )
            if isinstance(item, threading.Thread)
        ]
        assert all(thread.is_alive() for thread in threads)
        assert len(threads) <= (n_shards if keyed else 0) + 1  # + watchdog
        values = [rt.result_of(tid) for tid in tids]
        assert values == list(range(1, UNITS + 1))
    finally:
        rt.close()


@STORES
@pytest.mark.parametrize("keyed", [False, True], ids=["keyless", "keyed"])
def test_a_request_that_raises_fails_its_program_only(n_shards, keyed):
    rt = _engine(n_shards, poll_timeout=0.01)
    place = {"key": "k"} if keyed else {}
    try:
        oid = make_counters(rt, 1)[0]
        done = rt.run(incrementer(oid)).tid

        def delegate_to_the_committed(tx):
            yield tx.delegate(done)  # a terminated delegatee: refused

        result = rt.run(delegate_to_the_committed, **place)
        assert not result.committed
        assert isinstance(rt.error_of(result.tid), InvalidStateError)
        td = rt.manager.table.get(result.tid)
        assert "program raised" in td.abort_reason
        assert rt.run(incrementer(oid), **place).value == 2
        assert rt.join_all(timeout=10.0) and rt.active_tasks() == []
    finally:
        rt.close()
