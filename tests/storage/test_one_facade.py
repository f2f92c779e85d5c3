"""One storage facade at every shard count, on memory or file devices.

* A site's log rides on any shard count: every ``log_*`` writer the
  facade exposes reaches the log, and after a crash and a restart the
  fold ``Site.restart`` makes (``storage.log.records()``) sees each
  durable record once.
* Segments on files: a power cut between two segments' restart hints
  opens every segment at the highest restart point any hint names, so a
  cross-shard winner whose commit record lies below it stays a winner.
"""

import pytest

from repro.common.ids import Tid
from repro.storage.disk import FileDiskManager
from repro.storage.log import (
    AbortRecord,
    CommitRecord,
    DecisionRecord,
    DelegateRecord,
    FileLogDevice,
    PrepareRecord,
    TakeoverRecord,
    UpdateRecord,
    WorkflowRecord,
    WriteAheadLog,
)
from repro.storage.store import StorageManager


def file_storage(directory, n_shards):
    """A storage manager over one page file and one log file per shard."""
    return StorageManager(
        disk=[FileDiskManager(directory / f"pages{i}.db") for i in range(n_shards)],
        log=[
            WriteAheadLog(FileLogDevice(directory / f"wal{i}.log"))
            for i in range(n_shards)
        ],
    )


@pytest.mark.parametrize("n_shards", [1, 2])
def test_every_log_writer_reaches_the_log_once(n_shards):
    storage = StorageManager(n_shards=n_shards)
    one = storage.create_object(Tid(1), b"a")  # oid 1 -> shard 1 of 2
    two = storage.create_object(Tid(1), b"b")  # oid 2 -> shard 0
    storage.log_commit(Tid(1))
    storage.write_object(Tid(2), one, b"a2")
    storage.write_object(Tid(2), two, b"b2")
    storage.log_delegate(Tid(2), Tid(3), [one, two])
    storage.log_prepare(Tid(3), gid=7, coordinator="c", sites=("c", "p"))
    storage.log_decision(Tid(3), 7, "commit", participants=("p",))
    storage.write_object(Tid(4), one, b"a4")
    storage.undo(Tid(4))
    storage.log_abort(Tid(4))
    storage.log_takeover(9, 2, "c", "abort", votes=("p:abort",))
    storage.log_workflow(5, "started", payload=b"w")
    storage.sync_log()
    written = storage.log.records()
    assert {type(record) for record in written} >= {
        UpdateRecord, CommitRecord, DelegateRecord, PrepareRecord,
        DecisionRecord, AbortRecord, TakeoverRecord, WorkflowRecord,
    }

    storage.crash()
    report = storage.recover()
    fold = storage.log.records()
    assert len({record.lsn for record in fold}) == len(fold)
    assert all(fold.count(record) == 1 for record in written)
    assert report.winners >= {Tid(1), Tid(3)} and not report.in_doubt
    assert storage.read_object(Tid(0), one) == b"a2"
    assert storage.read_object(Tid(0), two) == b"b2"


def test_an_abort_record_is_durable_only_behind_its_compensations():
    """Tid(2) writes on both shards, its pages reach disk, and it aborts:
    its abort record lands in shard 0, its home, and a later commit
    there makes it durable.  Were the compensation in shard 1 still
    volatile then, a power cut would leave a finished abort whose undo
    restart never repeats — and the aborted image on disk."""
    storage = StorageManager(n_shards=2)
    one = storage.create_object(Tid(1), b"a1")  # oid 1 -> shard 1
    two = storage.create_object(Tid(1), b"b1")  # oid 2 -> shard 0
    storage.log_commit(Tid(1))
    storage.write_object(Tid(2), one, b"a2")
    storage.write_object(Tid(2), two, b"b2")
    for stack in storage.shards:
        stack.pool.flush_all()
    storage.undo(Tid(2))
    storage.log_abort(Tid(2))
    storage.write_object(Tid(3), two, b"b3")
    storage.log_commit(Tid(3))  # flushes shard 0's segment
    storage.crash()
    storage.recover()
    assert storage.read_object(Tid(0), one) == b"a1"
    assert storage.read_object(Tid(0), two) == b"b3"


def test_a_power_cut_between_two_hints_opens_every_segment_at_the_higher(
    tmp_path,
):
    """Tid(2) writes on both shards and commits in shard 0, its home; a
    checkpoint then moves the restart point P above all of it.  The
    power goes after segment 0's sidecar moved to P and before segment
    1's did: segment 1's still names the checkpoint before.  Opened at
    its own hint, segment 1 would show Tid(2)'s image while segment 0
    no longer holds its commit record, and restart would undo a winner."""
    storage = file_storage(tmp_path, 2)
    far = storage.create_object(Tid(1), b"far1")  # oid 1 -> shard 1
    home = storage.create_object(Tid(1), b"home1")  # oid 2 -> shard 0
    storage.log_commit(Tid(1))
    storage.checkpoint()
    older = (tmp_path / "wal1.log.restart").read_bytes()
    storage.write_object(Tid(2), far, b"far2")
    storage.write_object(Tid(2), home, b"home2")
    storage.log_commit(Tid(2))
    storage.checkpoint()
    point = storage.shards[0].log.device.point
    assert [shard.log.device.point for shard in storage.shards] == [point] * 2
    commit = [r for r in storage.log.records() if isinstance(r, CommitRecord)]
    assert commit[-1].tid == Tid(2) and commit[-1].lsn < point
    storage.close()
    (tmp_path / "wal1.log.restart").write_bytes(older)

    reopened = file_storage(tmp_path, 2)
    for shard in reopened.shards:
        assert shard.log.device.point == point
        assert shard.log._decoded[0].lsn >= point
    report = reopened.recover()
    assert Tid(2) not in report.losers and report.undone == 0
    assert reopened.read_object(Tid(0), far) == b"far2"
    assert reopened.read_object(Tid(0), home) == b"home2"
    reopened.close()
    # The lagging sidecar was moved at the open: the next one agrees.
    again = file_storage(tmp_path, 2)
    assert [shard.log.device.point for shard in again.shards] == [point] * 2
    again.close()
