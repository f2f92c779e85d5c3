"""The WAL attribution index: incremental ``updates_by``/``max_tid_value``.

The log now folds delegation re-attribution into a per-tid index as
records are appended, so abort/delegation/restart stop scanning the full
history.  These tests pin three things:

* **agreement** — after random interleavings of writes, delegations,
  commits, aborts, crashes, and resyncs, the index answers exactly what
  a from-scratch replay of ``records()`` answers (the pre-index
  implementations survive as ``updates_by_scan``/``max_tid_value_scan``
  in ``tests/storage/scan_oracle.py``);
* **complexity** — steady-state ``updates_by`` and ``max_tid_value``
  perform no full-log scan (asserted by counting ``records()`` /
  device-read calls);
* **rebuild** — ``resync`` reconstructs the index once, and crash
  simulation (which drops unflushed records) leaves the index matching
  the surviving history.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import ObjectId, Tid
from repro.storage.log import MemoryLogDevice, WriteAheadLog
from tests.storage.scan_oracle import max_tid_value_scan, updates_by_scan


def apply_random_history(log, rng, steps, n_txns=5, n_objects=4):
    """Drive a random mix of log-record appends (and crashes)."""
    for __ in range(steps):
        action = rng.randrange(100)
        tid = Tid(rng.randint(1, n_txns))
        oid = ObjectId(rng.randint(1, n_objects))
        if action < 55:
            log.log_update(
                tid, oid, bytes([rng.randrange(256)]), bytes([rng.randrange(256)])
            )
        elif action < 75:
            delegatee = Tid(rng.randint(1, n_txns))
            oids = tuple(
                ObjectId(value)
                for value in rng.sample(
                    range(1, n_objects + 1), rng.randint(1, n_objects)
                )
            )
            log.log_delegate(tid, delegatee, oids)
        elif action < 85:
            log.log_commit(tid)
        elif action < 92:
            log.log_abort(tid)
        elif action < 97:
            log.flush()
        else:
            crash = getattr(log.device, "crash", None)
            if crash is not None:
                crash()
                log.resync()


def assert_matches_oracle(log, n_txns=6):
    assert log.max_tid_value() == max_tid_value_scan(log)
    for value in range(1, n_txns + 1):
        assert log.updates_by(Tid(value)) == updates_by_scan(log, Tid(value))


class TestAttributionAgreement:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 80))
    def test_random_interleavings_match_scan(self, seed, steps):
        log = WriteAheadLog(MemoryLogDevice())
        rng = random.Random(seed)
        apply_random_history(log, rng, steps)
        assert_matches_oracle(log)

    def test_delegation_chain_reattributes_transitively(self):
        log = WriteAheadLog()
        ob = ObjectId(7)
        log.log_update(Tid(1), ob, b"v0", b"new")
        log.log_delegate(Tid(1), Tid(2), (ob,))
        log.log_delegate(Tid(2), Tid(3), (ob,))
        assert log.updates_by(Tid(1)) == []
        assert log.updates_by(Tid(2)) == []
        assert [r.oid for r in log.updates_by(Tid(3))] == [ob]
        assert_matches_oracle(log)

    def test_delegation_merge_preserves_lsn_order(self):
        """Records moved to a delegatee interleave with its own in global
        LSN order — the order undo installs before images in."""
        log = WriteAheadLog()
        a, b = ObjectId(1), ObjectId(2)
        log.log_update(Tid(1), a, b"a0", b"new")  # lsn 1
        log.log_update(Tid(2), b, b"b0", b"new")  # lsn 2
        log.log_update(Tid(1), a, b"a1", b"new")  # lsn 3
        log.log_delegate(Tid(1), Tid(2), (a,))
        lsns = [r.lsn.value for r in log.updates_by(Tid(2))]
        assert lsns == sorted(lsns) == [1, 2, 3]
        assert_matches_oracle(log)

    def test_partial_delegation_splits_attribution(self):
        log = WriteAheadLog()
        a, b = ObjectId(1), ObjectId(2)
        log.log_update(Tid(1), a, b"a", b"new")
        log.log_update(Tid(1), b, b"b", b"new")
        log.log_delegate(Tid(1), Tid(2), (a,))
        assert [r.oid for r in log.updates_by(Tid(1))] == [b]
        assert [r.oid for r in log.updates_by(Tid(2))] == [a]
        assert_matches_oracle(log)

    def test_delegation_to_oneself_is_stable(self):
        log = WriteAheadLog()
        ob = ObjectId(1)
        log.log_update(Tid(1), ob, b"x", b"new")
        log.log_delegate(Tid(1), Tid(1), (ob,))
        assert [r.oid for r in log.updates_by(Tid(1))] == [ob]
        assert_matches_oracle(log)


class TestAttributionComplexity:
    def _instrument(self, log, monkeypatch):
        calls = {"records": 0}
        original = log.records

        def counting_records(*args, **kwargs):
            calls["records"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(log, "records", counting_records)
        return calls

    def test_updates_by_performs_no_full_scan(self, monkeypatch):
        log = WriteAheadLog()
        for value in range(1, 30):
            log.log_update(Tid(value), ObjectId(value), b"v", b"new")
        calls = self._instrument(log, monkeypatch)
        for value in range(1, 30):
            log.updates_by(Tid(value))
        assert calls["records"] == 0

    def test_max_tid_value_performs_no_full_scan(self, monkeypatch):
        log = WriteAheadLog()
        for value in range(1, 30):
            log.log_commit(Tid(value), group=(Tid(value + 100),))
        calls = self._instrument(log, monkeypatch)
        assert log.max_tid_value() == 129
        assert calls["records"] == 0

    def test_delegation_cost_is_per_transaction_not_per_log(self):
        """A delegation touches only the delegator's own update list —
        other transactions' (arbitrarily long) histories are never
        walked.  Verified structurally: the moved/kept split is computed
        from the delegator's bucket alone."""
        log = WriteAheadLog()
        # A long foreign history that must not be rescanned.
        for __ in range(200):
            log.log_update(Tid(9), ObjectId(99), b"f", b"new")
        ob = ObjectId(1)
        log.log_update(Tid(1), ob, b"v", b"new")
        foreign_before = list(log._updates_by_tid[Tid(9)])
        log.log_delegate(Tid(1), Tid(2), (ob,))
        assert log._updates_by_tid[Tid(9)] == foreign_before
        assert [r.oid for r in log.updates_by(Tid(2))] == [ob]


class TestRebuildAndCrash:
    def test_resync_rebuilds_index_once(self):
        device = MemoryLogDevice()
        log = WriteAheadLog(device)
        ob = ObjectId(3)
        log.log_update(Tid(1), ob, b"v", b"new")
        log.log_delegate(Tid(1), Tid(2), (ob,))
        log.flush()
        reopened = WriteAheadLog(device)
        assert reopened.updates_by(Tid(1)) == []
        assert [r.oid for r in reopened.updates_by(Tid(2))] == [ob]
        assert reopened.max_tid_value() == 2
        assert_matches_oracle(reopened)

    def test_crash_drops_unflushed_attribution(self):
        log = WriteAheadLog(MemoryLogDevice())
        durable, lost = ObjectId(1), ObjectId(2)
        log.log_update(Tid(1), durable, b"d", b"new")
        log.flush()
        log.log_update(Tid(1), lost, b"l", b"new")
        log.log_delegate(Tid(1), Tid(2), (durable,))
        log.device.crash()
        log.resync()
        # Only the durable prefix survives — and the delegation died
        # with the crash, so attribution reverts to the writer.
        assert [r.oid for r in log.updates_by(Tid(1))] == [durable]
        assert log.updates_by(Tid(2)) == []
        assert log.max_tid_value() == 1
        assert_matches_oracle(log)

    def test_truncate_clears_attribution_not_the_highest_tid(self):
        log = WriteAheadLog()
        log.log_update(Tid(5), ObjectId(1), b"v", b"new")
        log.truncate()
        assert log.updates_by(Tid(5)) == []
        # Carried over, and by the next marker: a restart never reissues 5.
        assert log.max_tid_value() == 5
        log.log_checkpoint(())
        assert_matches_oracle(log)
