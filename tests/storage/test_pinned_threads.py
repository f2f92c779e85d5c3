"""Real threads over one page: the re-check under the latch, exercised.

An operation pins where the table says the object is, then waits for
the frame's latch; a writer holding that latch can move the object to
another page meanwhile (a value grown past what the page has left).
The operation must notice — one probe of the table under the object
store's lock — and go to where the object is now.  Two writers rewrite
objects that share a page, with sizes that keep forcing each other off
it, while a reader reads them: every read returns a value some writer
wrote (never the slot's next tenant, never a torn mix), and every pin
is returned.
"""

import sys
import threading

from repro.common.ids import Tid
from repro.core.sharded import ShardedTransactionManager
from repro.runtime.threaded import ThreadedRuntime
from repro.storage.store import StorageManager

ROUNDS = 60  # transactions per writer on the runtime
REWRITES = 600  # raw rewrites per writer on the storage manager
SIZES = (1500, 2600)  # 1500 + 1500 share a page; 1500 + 2600 do not


def _value(tag, round_number):
    body = b"%c%03d" % (tag, round_number)
    return body * (SIZES[round_number % 2] // len(body))


def _written(tag, rounds=ROUNDS):
    return {_value(tag, number) for number in range(rounds + 1)}


def _pins(pools):
    return [
        (page_id, frame.pin_count)
        for pool in pools
        for page_id, frame in pool._frames.items()
        if frame.pin_count
    ]


def test_relocating_writers_and_a_reader_on_the_storage_manager():
    """No transaction locks in the way: the threads meet on the frame
    latch and the object store's lock, nowhere else."""
    storage = StorageManager(capacity=8)
    a = storage.create_object(Tid(1), _value(ord("a"), 0))
    b = storage.create_object(Tid(1), _value(ord("b"), 0))
    assert (
        storage.objects._locations[a.value][0]
        == storage.objects._locations[b.value][0]
    )
    valid = {a: _written(ord("a"), REWRITES), b: _written(ord("b"), REWRITES)}
    moves, reads, errors = set(), [0], []
    stop = threading.Event()

    def writer(oid, tag):
        try:
            for number in range(1, REWRITES + 1):
                storage.write_object(Tid(2), oid, _value(tag, number))
                moves.add((oid.value, storage.objects._locations[oid.value][0]))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def reader():
        try:
            while not stop.is_set():
                for oid in (a, b):
                    assert storage.read_object(Tid(3), oid) in valid[oid]
                    reads[0] += 1
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=writer, args=(a, ord("a"))),
            threading.Thread(target=writer, args=(b, ord("b"))),
        ]
        watcher = threading.Thread(target=reader)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        watcher.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert reads[0] > 0
    assert len({page for __, page in moves}) > 1, "nothing was relocated"
    assert storage.read_object(Tid(3), a) == _value(ord("a"), REWRITES)
    assert storage.read_object(Tid(3), b) == _value(ord("b"), REWRITES)
    assert _pins([storage.pool]) == []


def test_relocating_writers_and_a_reader_on_the_parallel_runtime():
    """The same meeting through transactions: three shard workers, the
    two objects on one shard's page."""
    rt = ThreadedRuntime(
        ShardedTransactionManager(n_shards=3), poll_timeout=0.01
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def setup(tx):
            oids = []
            for number in range(6):  # unnamed: striped by value % 3
                tag = ord("a") if number == 2 else ord("b")
                oids.append((yield tx.create(_value(tag, 0))))
            return oids

        oids = rt.run(setup).value
        a, b = oids[2], oids[5]  # values 3 and 6: both on shard 0
        shard = rt.manager.storage.shards[rt.manager.router.shard_of(a)]
        assert rt.manager.router.shard_of(b) == rt.manager.router.shard_of(a)
        assert (
            shard.objects._locations[a.value][0]
            == shard.objects._locations[b.value][0]
        )

        def write(tx, oid, value):
            yield tx.write(oid, value)

        def read(tx):
            return ((yield tx.read(a)), (yield tx.read(b)))

        readers = []
        for number in range(1, ROUNDS + 1):
            tids = [
                rt.spawn(write, args=(a, _value(ord("a"), number)), key="w0"),
                rt.spawn(write, args=(b, _value(ord("b"), number)), key="w1"),
                rt.spawn(read, key="r"),
            ]
            readers.append(tids[2])
            assert all(rt.commit_all(tids).values())
        valid_a, valid_b = _written(ord("a")), _written(ord("b"))
        for tid in readers:
            got_a, got_b = rt.result_of(tid)
            assert got_a in valid_a and got_b in valid_b
        assert rt.run(read).value == (
            _value(ord("a"), ROUNDS), _value(ord("b"), ROUNDS),
        )
        pools = [shard.pool for shard in rt.manager.storage.shards]
        assert _pins(pools) == []
    finally:
        sys.setswitchinterval(interval)
        rt.close()
