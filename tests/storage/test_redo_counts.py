"""Redo reads the log's index, not its tail — as counts, no clock.

``WriteAheadLog.redo_records()`` finds each object's newest image above
the checkpoint mark in the attribution index, which keeps it as records
arrive: it decodes nothing, calls no ``isinstance`` and reads no
``records()``, so its work follows the objects the tail touched, not
the tail's length.  Only under a void mark over a prefix does it read
the whole log, once.  The gates are call counts taken with
``sys.setprofile`` (``calls_during``, as in ``test_round_cost.py``).
"""

from repro.common.ids import Tid
from repro.storage.log import WriteAheadLog
from repro.storage.store import StorageManager
from tests.cluster.test_round_cost import calls_during

OBJECTS = 64
UPDATES = 6_000  # 64 creates, then rewrites round robin
PER_TRANSACTION = 64


def _loaded(updates=UPDATES):
    """A flat memory store whose log holds ``updates`` update records on
    :data:`OBJECTS` objects, all committed, none of them checkpointed;
    power-cut."""
    storage = StorageManager()
    oids = [
        storage.create_object(Tid(1), b"%d" % i) for i in range(OBJECTS)
    ]
    storage.log_commit(Tid(1))
    for i in range(updates - OBJECTS):
        tid = Tid(2 + i // PER_TRANSACTION)
        storage.write_object(tid, oids[i % OBJECTS], b"v%d" % i)
        if i % PER_TRANSACTION == PER_TRANSACTION - 1:
            storage.log_commit(tid)
    if (updates - OBJECTS) % PER_TRANSACTION:
        storage.log_commit(tid)
    storage.crash()
    return storage


def _redo_calls(log):
    """``(isinstance calls, records() calls, all calls)`` one
    ``redo_records()`` makes."""
    seen = calls_during(log.redo_records)
    records = WriteAheadLog.records.__code__
    return (
        sum(callee is isinstance for callee in seen),
        sum(callee is records for callee in seen),
        len(seen),
    )


class TestRedoReadsTheIndex:
    def test_the_report_is_unchanged(self):
        report = _loaded().recover()
        assert (report.redone, report.superseded) == (
            OBJECTS, UPDATES - OBJECTS,
        )
        assert report.scanned > UPDATES

    def test_redo_visits_no_tail_record(self):
        storage = _loaded()
        isinstances, records, calls = _redo_calls(storage.log)
        assert (isinstances, records) == (0, 0)
        # The same calls for a tenth of the tail: none per record.
        assert _redo_calls(_loaded(UPDATES // 10).log)[2] == calls

    def test_a_void_mark_over_a_prefix_reads_the_log_once(self):
        storage = _loaded()
        storage.checkpoint()
        log = storage.log
        log.log_checkpoint((), redo_lsn=0)  # as a torn page's quarantine
        assert log.base and not log.redo_lsn
        assert _redo_calls(log)[1] == 1
        records, superseded = log.redo_records()
        assert (len(records), superseded) == (OBJECTS, UPDATES - OBJECTS)
