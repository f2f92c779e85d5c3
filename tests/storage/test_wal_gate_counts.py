"""The exact-count gate on the write-ahead rule (EX23), no wall clock.

The shape of the benchmark's ``durable_wal`` workload — one read and six
one-page writes per transaction, file devices, a pool a quarter of the
working set, a few checkpoints — with ``os.fsync`` counted.  With the
page-LSN / durable-LSN gate a device sync happens for a commit, a
checkpoint, or the rare steal of the running transaction's own page,
and for nothing else: every other evicted page was last written by a
transaction whose commit already forced the log past it.  Restart
recovery then repeats only what the last durable checkpoint marker does
not vouch for — the updates above its ``redo_lsn``: none when the
power cut follows a checkpoint, one interval's worth when it falls
mid-interval — and forces nothing while it does.

Nor does restart decode what it does not need: the reopen starts at the
log's restart point, so the ``decode_record`` calls it makes are the
records at or above that point — the same for 2 and for 20 checkpoint
intervals of identical work — unless a transaction stays active across
the checkpoints, which pins the point at its first update.
"""

import os
import random

import pytest

from repro.core.manager import TransactionManager
from repro.runtime.coop import CooperativeRuntime
from repro.storage import log as log_module
from repro.storage.disk import FileDiskManager
from repro.storage.log import FileLogDevice, WriteAheadLog
from repro.storage.store import StorageManager

OBJECTS = 128
POOL_PAGES = OBJECTS // 4
TRANSACTIONS = 60
CHECKPOINTS = 3
VALUE_BYTES = 2048  # more than half a page: one object per page


@pytest.fixture
def fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def counted(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counted)
    return calls


def _open(tmp_path):
    storage = StorageManager(
        disk=FileDiskManager(tmp_path / "pages.db"),
        log=WriteAheadLog(FileLogDevice(tmp_path / "wal.log")),
        capacity=POOL_PAGES,
    )
    return CooperativeRuntime(TransactionManager(storage=storage))


def _create(tx):
    oids = []
    for __ in range(OBJECTS):
        oids.append((yield tx.create(bytes(VALUE_BYTES))))
    return oids


def _read_one_write_six(tx, read_oid, write_oids, value):
    yield tx.read(read_oid)
    for oid in write_oids:
        yield tx.write(oid, value)


def _read_all(tx, oids):
    values = []
    for oid in oids:
        values.append((yield tx.read(oid)))
    return values


@pytest.mark.parametrize("tail", [0, 7], ids=["at-checkpoint", "mid-interval"])
def test_syncs_are_commits_plus_checkpoints_and_redo_is_bounded(
    tmp_path, fsyncs, tail
):
    """``tail`` units run after the last checkpoint, before the cut."""
    rng = random.Random(15)
    runtime = _open(tmp_path)
    storage = runtime.manager.storage
    oids = runtime.run(_create).value
    # Populating 128 one-page objects through 32 frames steals pages of
    # the still-uncommitted setup: a handful of forces, not one per page.
    assert 0 < storage.pool.wal_forces <= OBJECTS // POOL_PAGES + 1
    assert storage.pool.evictions >= OBJECTS - POOL_PAGES

    del fsyncs[:]
    storage.pool.wal_forces = 0
    flushes = storage.log.flush_count
    evictions = storage.pool.evictions
    expected = [bytes(VALUE_BYTES)] * OBJECTS
    every = TRANSACTIONS // CHECKPOINTS
    tail_objects = set()  # written after the last checkpoint
    for unit in range(1, TRANSACTIONS + tail + 1):
        writes = rng.sample(range(OBJECTS), 6)
        value = rng.randbytes(32) * (VALUE_BYTES // 32)
        args = (oids[rng.randrange(OBJECTS)],
                tuple(oids[i] for i in writes), value)
        assert runtime.run(_read_one_write_six, args=args).committed
        for index in writes:
            expected[index] = value
        if unit > TRANSACTIONS:
            tail_objects.update(writes)
        if unit % every == 0:
            runtime.manager.checkpoint()

    # One log sync per commit; a checkpoint syncs the page file, then
    # the log for its marker.  Of well over a hundred evictions, the only
    # ones that force are genuine steals: the clock hand landing on a
    # page the *running* transaction dirtied (once, under this seed).
    steals = storage.pool.wal_forces
    assert storage.pool.evictions - evictions > 2 * TRANSACTIONS
    assert steals <= 1
    assert (
        storage.log.flush_count - flushes
        == TRANSACTIONS + tail + CHECKPOINTS + steals
    )
    assert len(fsyncs) == TRANSACTIONS + tail + 2 * CHECKPOINTS + steals
    appended = storage.log.base + len(storage.log)

    # Power cut: no clean shutdown, the cache is lost, the log keeps
    # what was synced.  Restart over the two files alone.
    storage.log.device.crash()
    storage.log.device.close()
    storage.disk.close()
    del fsyncs[:]
    reborn = _open(tmp_path)
    restarted = reborn.manager.storage
    report = restarted.recover()
    # Nothing is truncated, but (tail semantics) only the log from the
    # restart point on is decoded and analysed: nobody was active at the
    # third checkpoint, so that is its marker and the units after it —
    # 6 update records + 1 commit each.  Redo starts above the
    # marker's mark, the last LSN before that checkpoint's flush, and
    # installs each object once: the distinct objects the 7 tail units
    # wrote — 36 under this seed, their 42 updates less 6 rewrites.
    assert report.scanned == 7 * tail + 1
    assert report.restart_from == appended - 7 * tail
    assert report.redo_from == appended - 7 * tail - 1
    assert report.redone == len(tail_objects) == (36 if tail else 0)
    assert report.redone + report.superseded == 6 * tail
    assert report.undone == 0
    assert restarted.pool.wal_forces == 0
    assert restarted.log.flush_count == 0
    assert fsyncs == []
    assert reborn.run(_read_all, args=(oids,)).value == expected
    restarted.close()


UNITS_PER_INTERVAL = 3


def _hold(tx, oid):
    yield tx.write(oid, b"held")


def _reopen_decodes(tmp_path, monkeypatch, intervals, pin):
    """``intervals`` checkpoint intervals of identical work, a power cut
    after the last checkpoint, a reopen + ``recover()``: how many
    records that decoded, and how many lie at or above the restart
    point.  ``pin`` leaves one transaction active from before the first
    interval to the end."""
    rng = random.Random(17)
    runtime = _open(tmp_path)
    storage = runtime.manager.storage
    oids = runtime.run(_create).value
    spare = oids.pop()
    runtime.manager.checkpoint()
    if pin:
        runtime.wait(runtime.spawn(_hold, args=(spare,)))
    for __ in range(intervals):
        for __ in range(UNITS_PER_INTERVAL):
            args = (oids[rng.randrange(len(oids))],
                    tuple(rng.sample(oids, 6)), bytes(VALUE_BYTES))
            assert runtime.run(_read_one_write_six, args=args).committed
        runtime.manager.checkpoint()
    at_or_above = len(storage.log)
    storage.log.device.crash()
    storage.log.device.close()
    storage.disk.close()

    decoded = []
    real = log_module.decode_record
    monkeypatch.setattr(
        log_module, "decode_record",
        lambda raw: decoded.append(1) or real(raw),
    )
    restarted = _open(tmp_path).manager.storage
    report = restarted.recover()
    monkeypatch.undo()
    assert report.scanned == len(decoded)
    assert report.undone == pin
    restarted.close()
    return len(decoded), at_or_above


@pytest.mark.parametrize("intervals", [2, 20])
def test_reopen_decodes_from_the_restart_point_whatever_the_history(
    tmp_path, monkeypatch, intervals
):
    # Nobody active at the last checkpoint: its marker, and nothing else.
    assert _reopen_decodes(tmp_path, monkeypatch, intervals, pin=False) == (
        1, 1,
    )


@pytest.mark.parametrize("intervals", [2, 6])
def test_a_transaction_active_across_checkpoints_pins_the_restart_point(
    tmp_path, monkeypatch, intervals
):
    """The honest cost of a long-lived transaction: restart must be able
    to undo it, so every open decodes from its first update on — its
    one record, then every interval since (7 records a unit and a
    marker), however many checkpoints went by."""
    since = 1 + intervals * (7 * UNITS_PER_INTERVAL + 1)
    assert _reopen_decodes(tmp_path, monkeypatch, intervals, pin=True) == (
        since, since,
    )
