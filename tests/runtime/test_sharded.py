"""Unit tests for the sharded engine: routing, statistics, parallel outcomes.

The differential suite proves whole-history equivalence; these tests pin
the individual mechanisms — key routing, cross-shard statistics, and
real-thread outcomes on the parallel runtime.
"""

import sys
import time

import pytest

from repro.common.codec import decode_int, encode_int
from repro.core.dependency import DependencyType
from repro.core.outcomes import CommitStatus
from repro.core.sharded import ShardedTransactionManager
from repro.runtime.sharded import ShardedRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.storage.segmented import ShardRouter, stable_hash


class TestRouting:
    def test_named_objects_place_by_name_hash(self):
        router = ShardRouter(4)
        from repro.common.ids import ObjectId

        oid = ObjectId(9, "account-7")
        assert router.place(oid, name="account-7") == stable_hash(
            "account-7"
        ) % 4
        # The directory remembers the placement afterwards.
        assert router.shard_of(oid) == stable_hash("account-7") % 4

    def test_unnamed_objects_stripe_by_value(self):
        router = ShardRouter(4)
        from repro.common.ids import ObjectId

        for value in range(1, 9):
            oid = ObjectId(value)
            assert router.place(oid) == value % 4


class TestCrossShardStats:
    def test_multi_shard_commit_counted_across_a_delegation(self):
        manager = ShardedTransactionManager(n_shards=4)
        rt = ShardedRuntime(manager=manager, seed=9)

        def spread(tx):
            for index in range(4):
                yield tx.create(encode_int(index), name=f"s{index}")

        assert rt.run(spread).committed
        assert manager.stats["cross_shard_commits"] >= 1

        def maker(tx):
            return (yield tx.create(encode_int(0), name="m0"))

        def taker(tx):
            yield from ()

        t1 = rt.spawn(maker)
        t2 = rt.spawn(taker)
        rt.wait(t1)
        rt.wait(t2)
        manager.delegate(t1, t2)
        rt.commit(t2)
        rt.commit(t1)

    def test_polling_a_blocked_commit_counts_the_commit_once(self):
        """The counter is commits, not attempts (a polling driver used
        to read 0.90 per unit where 0.30 of units were cross-shard)."""
        manager = ShardedTransactionManager(n_shards=4)
        rt = ShardedRuntime(manager=manager, seed=9)

        def spread(tx):
            for index in range(4):
                yield tx.create(encode_int(index), name=f"s{index}")

        def idle(tx):
            yield from ()

        blocker = rt.spawn(idle)
        tid = rt.spawn(spread)
        manager.form_dependency(DependencyType.CD, blocker, tid)
        rt.run_until_quiescent()
        for __ in range(5):
            assert manager.try_commit(tid).status is CommitStatus.BLOCKED
        assert manager.stats["cross_shard_commits"] == 0
        assert rt.commit(blocker) == 1
        assert manager.stats["cross_shard_commits"] == 0  # one shard
        assert manager.try_commit(tid).status is CommitStatus.COMMITTED
        assert manager.stats["cross_shard_commits"] == 1
        assert manager.try_commit(tid).status is CommitStatus.ALREADY_COMMITTED
        assert manager.stats["cross_shard_commits"] == 1

    def test_single_shard_commit_not_counted_as_cross_shard(self):
        manager = ShardedTransactionManager(n_shards=4)
        rt = ShardedRuntime(manager=manager, seed=9)

        def local(tx):
            yield tx.create(encode_int(1), name="k0")  # one shard only

        before = manager.stats["cross_shard_commits"]
        assert rt.run(local).committed
        assert manager.stats["cross_shard_commits"] == before


class TestParallelOutcomes:
    def test_disjoint_transfers_all_commit(self):
        rt = ThreadedRuntime(ShardedTransactionManager(n_shards=4))
        try:

            def setup(tx):
                oids = []
                for index in range(8):
                    oids.append(
                        (yield tx.create(encode_int(100), name=f"acct{index}"))
                    )
                return oids

            oids = rt.run(setup).value

            def transfer(tx, src, dst):
                taken = decode_int((yield tx.read(src)))
                yield tx.write(src, encode_int(taken - 10))
                landed = decode_int((yield tx.read(dst)))
                yield tx.write(dst, encode_int(landed + 10))

            tids = [
                rt.spawn(transfer, args=(oids[i], oids[i + 4]), key=f"job{i}")
                for i in range(4)
            ]
            outcomes = rt.commit_all(tids)
            assert all(outcomes.values())

            def audit(tx):
                total = 0
                for oid in oids:
                    total += decode_int((yield tx.read(oid)))
                return total

            assert rt.run(audit).value == 800  # money conserved
        finally:
            rt.close()

    def test_contended_counter_conserves_increments(self):
        rt = ThreadedRuntime(ShardedTransactionManager(n_shards=2))
        try:

            def setup(tx):
                return (yield tx.create(encode_int(0), name="hot"))

            oid = rt.run(setup).value

            def bump(tx):
                value = decode_int((yield tx.read(oid)))
                yield tx.write(oid, encode_int(value + 1))

            committed = 0
            for __ in range(6):
                result = rt.run(bump)
                committed += 1 if result.committed else 0

            def read(tx):
                return decode_int((yield tx.read(oid)))

            assert rt.run(read).value == committed == 6
        finally:
            rt.close()

    def test_key_pins_transaction_to_shard(self):
        rt = ThreadedRuntime(ShardedTransactionManager(n_shards=4))
        try:
            expected = rt.manager.router.shard_for_key("tenant-42")

            def noop(tx):
                yield from ()

            tid = rt.spawn(noop, key="tenant-42")
            assert list(rt._shards) == [expected]
            rt.commit(tid)
        finally:
            rt.close()

    def test_deadlock_victims_are_resolved_not_hung(self):
        """Opposite-order writers on two objects: the watchdog picks a
        victim; the driver's commit_all completes without hanging."""
        rt = ThreadedRuntime(
            ShardedTransactionManager(n_shards=2), watchdog_interval=0.01
        )
        try:

            def setup(tx):
                a = yield tx.create(encode_int(0), name="da")
                b = yield tx.create(encode_int(0), name="db")
                return (a, b)

            a, b = rt.run(setup).value

            def locker(tx, first, second):
                yield tx.write(first, encode_int(1))
                yield tx.write(second, encode_int(2))

            t1 = rt.spawn(locker, args=(a, b))
            t2 = rt.spawn(locker, args=(b, a))
            outcomes = rt.commit_all([t1, t2])
            assert set(outcomes) == {t1, t2}
            assert sum(outcomes.values()) >= 1  # at least one survivor
        finally:
            rt.close()

    def test_retirement_races_with_driver_reads(self):
        """Workers retire finished tasks while the driver thread reads
        ``active_tasks``/``result_of``: more workers than cores, a
        shortened switch interval, and no outcome may be lost."""
        rt = ThreadedRuntime(
            ShardedTransactionManager(n_shards=6), poll_timeout=0.01
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def echo(tx, number):
                yield tx.create(encode_int(number))
                return number

            tids = [
                rt.spawn(echo, args=(number,), key=f"k{number}")
                for number in range(300)
            ]
            deadline = time.monotonic() + 20.0
            while rt.active_tasks() and time.monotonic() < deadline:
                for tid in tids[::7]:
                    assert rt.result_of(tid) in (None, tids.index(tid))
            assert rt.join_all(timeout=5.0)
            assert rt.active_tasks() == []
            assert all(sub._tasks == {} for sub in rt._workers)
            assert [rt.result_of(tid) for tid in tids] == list(range(300))
            assert all(rt.commit_all(tids).values())
        finally:
            sys.setswitchinterval(interval)
            rt.close()
