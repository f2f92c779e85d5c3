"""Unit tests for the segmented WAL: sequencer, merge view, barrier,
delegate splitting, and recovery plumbing."""

from repro.common.codec import decode_int, encode_int
from repro.common.ids import Tid
from repro.storage.log import (
    CheckpointRecord,
    CommitRecord,
    DelegateRecord,
)
from repro.storage.segmented import LsnSequencer
from repro.storage.store import StorageManager
from tests.storage.scan_oracle import directory_scan

SETUP = Tid(50)


def _store(n_shards=4, **kwargs):
    store = StorageManager(n_shards=n_shards, **kwargs)
    oids = [
        store.create_object(SETUP, encode_int(0), name=f"obj{i}")
        for i in range(8)
    ]
    store.log_commit(SETUP)
    return store, oids


class TestLsnSequencer:
    def test_values_are_strictly_increasing(self):
        seq = LsnSequencer()
        drawn = [seq.next_value() for __ in range(10)]
        assert drawn == sorted(drawn)
        assert len(set(drawn)) == 10
        assert seq.last_value == drawn[-1]

    def test_advance_to_never_goes_backwards(self):
        seq = LsnSequencer()
        seq.next_value()
        seq.advance_to(40)  # "never hand out below 40"
        assert seq.next_value() == 40
        seq.advance_to(5)  # stale resync must not rewind
        assert seq.next_value() == 41


class TestMergedView:
    def test_global_lsns_are_sparse_per_segment_dense_globally(self):
        store, oids = _store()
        tid = Tid(1)
        for oid in oids:
            store.write_object(tid, oid, encode_int(7))
        store.log_commit(tid)
        merged = list(store.log.records())
        lsns = [record.lsn.value for record in merged]
        assert lsns == sorted(lsns)
        assert len(lsns) == len(set(lsns))
        # More than one segment actually received records.
        populated = [
            shard for shard in store.shards if list(shard.log.records())
        ]
        assert len(populated) > 1

    def test_updates_by_merges_across_segments_in_lsn_order(self):
        store, oids = _store()
        tid = Tid(1)
        for index, oid in enumerate(oids):
            store.write_object(tid, oid, encode_int(index))
        updates = store.log.updates_by(tid)
        assert updates
        lsns = [record.lsn.value for record in updates]
        assert lsns == sorted(lsns)
        touched = {record.oid.value for record in updates}
        assert touched == {oid.value for oid in oids}


class TestCommitBarrier:
    def test_foreign_segments_flush_before_home_commit(self):
        store, oids = _store()
        tid = Tid(1)
        for oid in oids:
            store.write_object(tid, oid, encode_int(3))
        touched = store.footprint_of(tid)
        home = min(touched)
        assert len(touched) > 1  # really multi-shard
        before = {
            shard: store.shards[shard].log.flush_count for shard in touched
        }
        store.log_commit(tid)
        for shard in touched:
            if shard != home:
                after = store.shards[shard].log.flush_count
                assert after > before[shard], (
                    f"foreign segment {shard} was not flushed by the barrier"
                )
        # The commit record lives in the home segment only.
        for shard_index, shard in enumerate(store.shards):
            commits = [
                r
                for r in shard.log.records()
                if isinstance(r, CommitRecord) and tid in r.committed_tids()
            ]
            assert len(commits) == (1 if shard_index == home else 0)

    def test_single_shard_commit_flushes_no_foreign_segment(self):
        store, oids = _store()
        tid = Tid(2)
        store.write_object(tid, oids[0], encode_int(1))
        touched = store.footprint_of(tid)
        home = min(touched)
        assert len(touched) == 1
        others = [
            store.shards[s].log.flush_count
            for s in range(store.n_shards)
            if s != home
        ]
        store.log_commit(tid)
        after = [
            store.shards[s].log.flush_count
            for s in range(store.n_shards)
            if s != home
        ]
        assert after == others


class TestDelegateSplitting:
    def test_one_record_per_touched_segment_with_that_shards_oids(self):
        store, oids = _store()
        tid, delegatee = Tid(1), Tid(2)
        mine = oids[:6]
        for oid in mine:
            store.write_object(tid, oid, encode_int(9))
        records = store.log_delegate(tid, delegatee, tuple(mine))
        by_shard = {}
        for oid in mine:
            by_shard.setdefault(store.router.shard_of(oid), set()).add(
                oid.value
            )
        assert len(records) == len(by_shard)
        for record in records:
            assert isinstance(record, DelegateRecord)
            assert record.delegatee == delegatee
            shard = store.router.shard_of(record.oids[0])
            assert {oid.value for oid in record.oids} == by_shard[shard]
        # The delegatee inherits every touched shard in its footprint,
        # so its later commit pays the right barrier.
        assert set(by_shard) <= store.footprint_of(delegatee)


class TestSegmentedRecovery:
    def test_recovery_merges_segments_and_rebuilds_directory(self):
        store, oids = _store()
        tid = Tid(1)
        for index, oid in enumerate(oids):
            store.write_object(tid, oid, encode_int(index + 20))
        store.log_commit(tid)
        store.sync_log()
        placement = {oid.value: store.router.shard_of(oid) for oid in oids}

        store.crash()
        store.recover()

        assert {
            oid.value: store.router.shard_of(oid) for oid in oids
        } == placement
        state = store.object_state()
        for index, oid in enumerate(oids):
            assert decode_int(state[oid.value]) == index + 20

    def test_directory_from_the_index_is_the_scan_and_scans_nothing(
        self, monkeypatch
    ):
        """Creates, deletes, cross-shard transactions and a delegated
        update: the oid → shard directory built from each segment's
        first-seen-oid set is the one a walk over every record builds,
        and a sharded restart no longer makes that walk."""
        store, oids = _store()
        writer, heir, dropper = Tid(1), Tid(2), Tid(3)
        for oid in oids[:5]:  # cross-shard
            store.write_object(writer, oid, encode_int(5))
        store.log_delegate(writer, heir, oids[:2])
        store.log_commit(heir)
        store.delete_object(dropper, oids[6])
        late = store.create_object(dropper, encode_int(9), name="late")
        store.log_commit(dropper)
        store.create_object(Tid(4), encode_int(1), name="lost")  # a loser
        store.sync_log()
        store.checkpoint()
        store.write_object(Tid(5), late, encode_int(10))
        store.sync_log()

        def rebuilt():
            store._reopen()
            return store.router.snapshot()

        def check():
            segments = [shard.log for shard in store.shards]
            directory = rebuilt()
            assert directory == directory_scan(segments)
            assert len({*directory.values()}) > 1
            assert set(directory) >= {oid.value for oid in oids} | {late.value}

        check()
        store.crash()
        walks = []
        for shard in store.shards:
            monkeypatch.setattr(
                shard.log, "records",
                lambda *a, _log=shard.log, **k: walks.append(_log) or [],
            )
        store.recover()
        assert walks == []
        monkeypatch.undo()
        check()
        assert store.router.shard_of(late) == rebuilt()[late.value]

    def test_each_segment_logs_its_own_marker_and_redoes_from_it(self):
        store, oids = _store()
        tid = Tid(1)
        for oid in oids:
            store.write_object(tid, oid, encode_int(7))
        store.log_commit(tid)
        lasts = [shard.log.last_lsn for shard in store.shards]
        marker = store.checkpoint(active=(Tid(9),))
        assert marker is store.shards[0].log.records()[-1]
        for shard, last in zip(store.shards, lasts):
            own = shard.log.records()[-1]
            assert isinstance(own, CheckpointRecord)
            assert (own.active, own.redo_lsn) == ((Tid(9),), last)
            assert shard.log.redo_lsn == last
        assert store.log.redo_lsn == min(lasts)
        after = Tid(2)
        store.write_object(after, oids[0], encode_int(8))
        store.log_commit(after)
        store.crash()
        report = store.recover()
        assert (report.redo_from, report.redone) == (min(lasts), 1)
        state = store.object_state()
        assert decode_int(state[oids[0].value]) == 8
        assert decode_int(state[oids[1].value]) == 7

    def test_oid_counter_restored_past_all_segments(self):
        store, oids = _store()
        store.sync_log()
        store.crash()
        store.recover()
        new_oid = store.create_object(Tid(9), encode_int(1), name="fresh")
        assert new_oid.value > max(oid.value for oid in oids)

    def test_loser_undone_across_segments(self):
        store, oids = _store()
        winner, loser = Tid(1), Tid(2)
        store.write_object(winner, oids[0], encode_int(11))
        for oid in oids[1:5]:
            store.write_object(loser, oid, encode_int(66))
        store.log_commit(winner)
        store.sync_log()
        store.crash()
        store.recover()
        state = store.object_state()
        assert decode_int(state[oids[0].value]) == 11
        for oid in oids[1:5]:
            assert decode_int(state[oid.value]) == 0

    def test_segment_stats_report_per_shard_rows(self):
        store, oids = _store()
        rows = store.segment_stats()
        assert len(rows) == store.n_shards
        assert [row["shard"] for row in rows] == list(range(store.n_shards))
        assert sum(row["appends"] for row in rows) > 0
        assert sum(row["objects"] for row in rows) == len(oids)


class TestMaxTid:
    def test_max_tid_spans_all_segments(self):
        store, oids = _store()
        store.write_object(Tid(7), oids[3], encode_int(1))
        assert store.log.max_tid_value() >= 50  # the setup tid
