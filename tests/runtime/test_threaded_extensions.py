"""Extensions on the threaded runtime: semantic ops and savepoints.

The cooperative runtime gets the thorough coverage; these confirm the
same request vocabulary behaves identically under real threads.
"""

import pytest

from repro.common.codec import decode_int, encode_int
from repro.core.manager import TransactionManager
from repro.core.semantics import ConflictTable
from repro.core.typedobjects import Counter
from repro.runtime.threaded import ThreadedRuntime


@pytest.fixture
def rt():
    runtime = ThreadedRuntime(
        TransactionManager(conflicts=ConflictTable.with_counter_ops()),
        watchdog_interval=0.01,
        poll_timeout=0.002,
    )
    yield runtime
    runtime.close()


class TestThreadedSemanticOps:
    def test_concurrent_counter_increments(self, rt):
        def setup(tx):
            return (yield tx.create(encode_int(0), name="hits"))

        result = rt.run(setup)
        assert result.committed
        oid = result.value
        counter = Counter(oid)

        def bump(tx):
            return (yield counter.increment(tx))

        tids = [rt.initiate(bump) for __ in range(6)]
        for tid in tids:
            rt.begin(tid)
        outcomes = rt.commit_all(tids)
        assert sum(outcomes.values()) == 6

        def read(tx):
            return (yield counter.get(tx))

        result = rt.run(read)
        assert result.committed and result.value == 6


class TestThreadedSavepoints:
    def test_savepoint_round_trip(self, rt):
        def setup(tx):
            return (yield tx.create(encode_int(1), name="x"))

        result = rt.run(setup)
        assert result.committed
        oid = result.value

        def body(tx):
            savepoint = yield tx.savepoint()
            yield tx.write(oid, encode_int(999))
            yield tx.rollback_to(savepoint)
            yield tx.write(oid, encode_int(2))
            return decode_int((yield tx.read(oid)))

        result = rt.run(body)
        assert result.committed and result.value == 2

        def read(tx):
            return decode_int((yield tx.read(oid)))

        result = rt.run(read)
        assert result.committed and result.value == 2
