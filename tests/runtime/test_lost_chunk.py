"""A large object whose chunk was lost with a torn page poisons the
transaction that touches it — it does not kill the scheduler.

The store below tears the page that holds the second chunk of a
4,100-byte object after its log is gone: a truncating checkpoint keeps
one image of every object, which rebuilds a torn page, so the log is
then discarded outright.  The open quarantines that page and nothing can
redo it, so the table names the object's header but not its chunk.
Reading the chunk used to raise ``KeyError`` out of
``ObjectStore._read_slot``; through the manager that escaped
``CooperativeRuntime._step``, which catches only
:class:`QuarantinedObjectError`, and stopped every task.  Now the
missing chunk is a :class:`QuarantinedObjectError` naming the object:
the read or write aborts its transaction as poisoned, and the units
after it commit.  A chunk missing while no page was quarantined is not
a lost page but a wrong table, and stays a loud :class:`StorageError`.
"""

import pytest

from repro.common.codec import decode_int
from repro.common.errors import QuarantinedObjectError, StorageError
from repro.common.ids import Tid
from repro.core.manager import TransactionManager
from repro.core.sharded import ShardedTransactionManager
from repro.runtime.coop import CooperativeRuntime
from repro.runtime.sharded import ShardedRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.storage.objects import _chunk_id
from repro.storage.store import StorageManager
from tests.conftest import incrementer, make_counters


def lose_a_chunk(n_shards=1):
    """A store of ``n_shards`` whose 4,100-byte object lost its second
    chunk, and a counter beside it; returns ``(storage, big, counter)``."""
    storage = StorageManager(capacity=3, n_shards=n_shards)
    runtime = CooperativeRuntime(TransactionManager(storage=storage))

    def setup(tx):
        big = yield tx.create(b"c" * 4100)
        counter = (yield tx.create(b"0"))
        return big, counter

    big, counter = runtime.run(setup).value
    shard = storage.shards[storage.router.shard_of(big)]
    pages = {page for page, __ in shard.objects._locations.values()}
    # One page holds the header and the first chunk (and, on one shard,
    # the counter); the other holds only the second chunk: that one is
    # torn.
    assert len(pages) == 2
    storage.checkpoint((), truncate=True)
    shard.log.truncate()  # the history goes, the base images with it
    storage.crash()
    torn = max(pages)
    image = bytes(shard.disk.read_page(torn))
    shard.disk.write_page(torn, image[:8] + bytes(len(image) - 8))
    storage.recover()
    assert torn in shard.objects.damaged_pages
    assert shard.objects.exists(big)
    return storage, big, counter


def reader(oid):
    def body(tx):
        return (yield tx.read(oid))

    return body


def writer(oid):
    def body(tx):
        yield tx.write(oid, b"w" * 5000)

    return body


class TestTheStore:
    def test_reading_the_object_names_it_quarantined(self):
        storage, big, __ = lose_a_chunk()
        with pytest.raises(QuarantinedObjectError) as caught:
            storage.read_object(Tid(99), big)
        assert caught.value.oid == big

    def test_deleting_it_logs_no_update(self):
        storage, big, __ = lose_a_chunk()
        before = storage.log.last_lsn_value
        with pytest.raises(QuarantinedObjectError):
            storage.delete_object(Tid(99), big)
        assert storage.log.last_lsn_value == before

    def test_a_truncating_checkpoint_keeps_no_image_of_it(self):
        storage, big, counter = lose_a_chunk()
        storage.checkpoint((), truncate=True)
        kept = {record.oid for record in storage.log.records()[:-1]}
        assert big not in kept and counter in kept
        with pytest.raises(QuarantinedObjectError):
            storage.read_object(Tid(99), big)

    def test_a_chunk_missing_with_no_page_quarantined_fails_loudly(self):
        storage = StorageManager()
        runtime = CooperativeRuntime(TransactionManager(storage=storage))

        def setup(tx):
            return (yield tx.create(b"c" * 4100))

        big = runtime.run(setup).value
        objects = storage.shards[0].objects
        del objects._locations[_chunk_id(big, 1)]
        assert objects.damaged_pages == []
        with pytest.raises(StorageError) as caught:
            storage.read_object(Tid(99), big)
        assert not isinstance(caught.value, QuarantinedObjectError)
        assert "chunk 1" in str(caught.value)


# Every engine over the poisoned store: (shard count, engine of a store).
ENGINES = {
    "coop": (1, lambda storage: CooperativeRuntime(
        TransactionManager(storage=storage))),
    "sharded": (4, lambda storage: ShardedRuntime(
        ShardedTransactionManager(storage=storage))),
    "threaded-flat": (1, lambda storage: ThreadedRuntime(
        TransactionManager(storage=storage))),
    "threaded-4-shard": (4, lambda storage: ThreadedRuntime(
        ShardedTransactionManager(storage=storage))),
}


@pytest.fixture(params=list(ENGINES))
def poisoned(request):
    """``(runtime, big, counter)`` over a store that lost a chunk."""
    n_shards, engine = ENGINES[request.param]
    storage, big, counter = lose_a_chunk(n_shards)
    runtime = engine(storage)
    yield runtime, big, counter
    if isinstance(runtime, ThreadedRuntime):
        runtime.close()


class TestTheRuntime:
    @pytest.mark.parametrize("body", [reader, writer])
    def test_the_access_aborts_as_poisoned_and_later_units_commit(
        self, poisoned, body
    ):
        runtime, big, counter = poisoned
        result = runtime.run(body(big))
        assert not result.committed
        td = runtime.manager.table.get(result.tid)
        assert "poisoned" in td.abort_reason
        assert isinstance(runtime.error_of(result.tid), QuarantinedObjectError)
        assert runtime.active_tasks() == []
        for __ in range(3):
            assert runtime.run(incrementer(counter)).committed
        assert decode_int(runtime.run(reader(counter)).value) == 3

    def test_other_tasks_in_flight_keep_running(self, poisoned):
        runtime, big, __ = poisoned
        others = make_counters(runtime, 2)
        doomed = runtime.spawn(reader(big))
        bystanders = [runtime.spawn(incrementer(oid)) for oid in others]
        outcomes = runtime.commit_all([doomed, *bystanders])
        assert outcomes == {doomed: 0, **{tid: 1 for tid in bystanders}}
