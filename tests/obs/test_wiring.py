"""Kit wiring: hooks, narrow subscriptions, and the grant watcher."""

import json

from repro.common.clock import LogicalClock
from repro.common.codec import decode_int, encode_int
from repro.common.events import EventBus, EventKind
from repro.common.ids import ObjectId, Tid
from repro.core.manager import TransactionManager
from repro.obs import (
    EventMetrics,
    MetricsRegistry,
    ObservabilityKit,
    install_observability,
)
from repro.runtime.coop import CooperativeRuntime


def _committed_batch(kit_wanted):
    """Run a tiny disjoint-increment batch; return (kit, commits)."""
    rt = CooperativeRuntime(TransactionManager(), seed=11)
    kit = install_observability(manager=rt.manager) if kit_wanted else None

    def setup(tx):
        created = []
        for i in range(4):
            created.append((yield tx.create(encode_int(0), name=f"o{i}")))
        return created

    oids = rt.run(setup).value

    def body_for(oid):
        def body(tx):
            value = decode_int((yield tx.read(oid)))
            yield tx.write(oid, encode_int(value + 1))

        return body

    tids = [rt.spawn(body_for(oid)) for oid in oids]
    outcomes = rt.commit_all(tids)
    return kit, sum(outcomes.values())


class TestManagerWiring:
    def test_detached_manager_has_no_metrics(self):
        manager = TransactionManager()
        assert manager.metrics is None
        assert manager.storage.log.metrics is None

    def test_attached_manager_folds_the_run(self):
        kit, commits = _committed_batch(kit_wanted=True)
        assert commits == 4
        snap = kit.snapshot()
        # 5 = the 4-transaction batch plus the setup transaction.
        assert snap["counters"]["txn.committed"] == 5
        assert snap["counters"]["primitive.initiate.calls"] == 5
        assert snap["counters"]["wal.appends"] > 0
        assert snap["counters"]["wal.flushes"] > 0
        assert snap["histograms"]["primitive.initiate.ticks"]["count"] == 5
        assert snap["histograms"]["latency.commit_ticks"]["count"] == 5
        assert snap["histograms"]["txn.lifetime_ticks"]["count"] == 5
        assert snap["histograms"]["wal.append_bytes"]["count"] > 0

    def test_spans_cover_the_batch(self):
        kit, __ = _committed_batch(kit_wanted=True)
        spans = kit.spans.export()
        committed = [s for s in spans if s["status"] == "committed"]
        assert len(committed) == 5  # the batch plus the setup transaction
        for span in committed:
            assert span["end"] >= span["start"]
            assert span["correlation"] == f"local:{span['tid']}"

    def test_attach_manager_is_idempotent(self):
        manager = TransactionManager()
        kit = ObservabilityKit()
        kit.attach_manager(manager)
        kit.attach_manager(manager)
        manager.events.emit(EventKind.COMMITTED, Tid(1))
        assert kit.metrics.counter("txn.committed").value == 1

    def test_export_files_parse(self, tmp_path):
        kit, __ = _committed_batch(kit_wanted=True)
        metrics_path = tmp_path / "metrics.json"
        spans_path = tmp_path / "spans.jsonl"
        kit.write_metrics(metrics_path)
        assert kit.write_spans(spans_path) >= 5
        parsed = json.loads(metrics_path.read_text())
        assert parsed["counters"]["txn.committed"] == 5
        for line in spans_path.read_text().strip().splitlines():
            json.loads(line)


class TestGrantWatcher:
    """READ/WRITE grants stay unwatched except while someone is blocked."""

    def _wired(self):
        bus = EventBus(LogicalClock())
        registry = MetricsRegistry()
        fold = EventMetrics(registry, bus=bus)
        bus.subscribe(fold, kinds=EventMetrics.KINDS)
        return bus, registry, fold

    def test_grants_unwatched_at_rest(self):
        bus, __, ___ = self._wired()
        assert EventKind.READ_LOCK not in bus.watched
        assert EventKind.WRITE_LOCK not in bus.watched

    def test_block_grant_cycle_measures_and_unwires(self):
        bus, registry, __ = self._wired()
        bus.emit(EventKind.LOCK_BLOCKED, Tid(1), oid=ObjectId(3))
        assert EventKind.WRITE_LOCK in bus.watched
        bus.emit(EventKind.WRITE_LOCK, Tid(1), oid=ObjectId(3))
        blocked = registry.histogram("lock.blocked_ticks")
        assert blocked.count == 1
        assert blocked.total >= 1
        assert EventKind.WRITE_LOCK not in bus.watched

    def test_unrelated_grant_keeps_watching(self):
        bus, registry, __ = self._wired()
        bus.emit(EventKind.LOCK_BLOCKED, Tid(1), oid=ObjectId(3))
        bus.emit(EventKind.READ_LOCK, Tid(2), oid=ObjectId(9))
        assert registry.histogram("lock.blocked_ticks").count == 0
        assert EventKind.READ_LOCK in bus.watched

    def test_terminal_while_blocked_unwires(self):
        # A blocked transaction that dies (deadlock victim, watchdog
        # abort) never gets its grant; the watcher must not stay pinned.
        bus, registry, __ = self._wired()
        bus.emit(EventKind.LOCK_BLOCKED, Tid(1), oid=ObjectId(3))
        bus.emit(EventKind.ABORTED, Tid(1), reason="deadlock victim")
        assert registry.histogram("lock.blocked_ticks").count == 0
        assert EventKind.READ_LOCK not in bus.watched

    def test_contended_coop_run_measures_blocked_time(self):
        rt = CooperativeRuntime(TransactionManager(), seed=5)
        kit = install_observability(manager=rt.manager)

        def setup(tx):
            return (yield tx.create(encode_int(0), name="hot"))

        oid = rt.run(setup).value

        def body(tx):
            value = decode_int((yield tx.read(oid)))
            yield tx.write(oid, encode_int(value + 1))

        tids = [rt.spawn(body) for __ in range(3)]
        outcomes = rt.commit_all(tids)
        assert sum(outcomes.values()) >= 1
        snap = kit.snapshot()
        assert snap["counters"].get("lock.blocked", 0) >= 1
        # The cycle completed: grants are unwatched again at rest.
        assert EventKind.READ_LOCK not in rt.manager.events.watched


class TestFabricAndCollectors:
    def test_fabric_counters_and_stats_gauges(self):
        from repro.cluster.cluster import Cluster

        cluster = Cluster(sites=("alpha", "beta"))
        kit = ObservabilityKit()
        kit.attach_cluster(cluster)
        # A kind no handler claims: delivery happens, nothing replies.
        cluster.fabric.send("alpha", "beta", "obs_test_ping", {})
        cluster.fabric.pump_round()
        snap = kit.snapshot()
        assert snap["counters"]["fabric.sent{site=alpha}"] >= 1
        assert snap["counters"]["fabric.msg{kind=obs_test_ping}"] >= 1
        assert snap["counters"]["fabric.delivered{site=beta}"] >= 1
        assert snap["gauges"]["fabric.sent"] >= 1

    def test_attach_cluster_scopes_site_metrics(self):
        from repro.cluster.cluster import Cluster

        cluster = Cluster(sites=("alpha", "beta"))
        kit = ObservabilityKit()
        kit.attach_cluster(cluster)
        for site in cluster.sites.values():
            assert site.obs is kit
            assert site.manager.metrics is not None
        cluster.sites["alpha"].manager.events.emit(
            EventKind.COMMITTED, Tid(1)
        )
        snap = kit.snapshot()
        assert snap["counters"]["txn.committed{site=alpha}"] == 1


class TestRecoveryGauges:
    def _crash_with_a_loser(self, rt):
        def setup(tx):
            created = []
            for i in range(3):
                created.append((yield tx.create(encode_int(i))))
            return created

        oids = rt.run(setup).value
        rt.manager.checkpoint()

        def bump(tx):
            yield tx.write(oids[0], encode_int(7))

        assert rt.run(bump).committed
        loser = rt.spawn(bump)
        rt.wait(loser)
        rt.manager.storage.sync_log()
        rt.manager.storage.crash()
        return rt.manager.storage.recover()

    def test_flat_restart_exports_what_the_report_says(self):
        rt = CooperativeRuntime(TransactionManager(), seed=3)
        kit = install_observability(manager=rt.manager)
        report = self._crash_with_a_loser(rt)
        gauges = kit.snapshot()["gauges"]
        assert report.redo_from > 0 and report.undone == 1
        # One object, written by the winner and again by the loser.
        assert (report.redone, report.superseded) == (1, 1)
        # The checkpoint found nobody active: restart opened at its marker.
        assert report.restart_from == report.redo_from + 1
        for name in (
            "scanned", "redone", "superseded", "undone", "redo_from",
            "restart_from",
        ):
            assert gauges[f"recovery.{name}"] == getattr(report, name)

    def test_sharded_restart_exports_through_the_merged_view(self):
        from repro.runtime.sharded import ShardedRuntime

        rt = ShardedRuntime(n_shards=2, seed=3)
        kit = install_observability(manager=rt.manager)
        report = self._crash_with_a_loser(rt)
        gauges = kit.snapshot()["gauges"]
        assert gauges["recovery.scanned"] == report.scanned > 0
        assert gauges["recovery.restart_from"] == report.restart_from > 0
        assert gauges["recovery.redone"] == report.redone == 1
        assert gauges["recovery.superseded"] == report.superseded == 1
        assert gauges["recovery.undone"] == report.undone == 1

    def test_detached_restart_exports_nothing(self):
        rt = CooperativeRuntime(TransactionManager(), seed=3)
        assert self._crash_with_a_loser(rt).undone == 1
        assert rt.manager.storage.log.metrics is None


class TestShardedWiring:
    def test_per_shard_wal_metrics_and_census_gauges(self):
        from repro.runtime.sharded import ShardedRuntime

        rt = ShardedRuntime(n_shards=4, seed=11)
        kit = install_observability(manager=rt.manager)

        def setup(tx):
            for index in range(8):
                yield tx.create(encode_int(index), name=f"sh{index}")

        assert rt.run(setup).committed

        # Every segment carries its own scoped view...
        for index, segment in enumerate(rt.manager.storage.log.segments):
            assert segment.metrics is not None
            assert segment.metrics.labels == {"shard": index}

        snap = kit.snapshot()
        shard_append_keys = [
            key
            for key in snap["counters"]
            if key.startswith("wal.appends{shard=")
        ]
        # ...and more than one shard actually appended (objects spread).
        assert len(shard_append_keys) > 1
        # The census collector mirrors per-segment rows as gauges.
        assert any(
            key.startswith("segment.appends{shard=")
            for key in snap["gauges"]
        )
        assert any(
            key.startswith("segment.objects{shard=")
            for key in snap["gauges"]
        )

    def test_manager_events_still_fold_for_sharded_runtime(self):
        from repro.runtime.sharded import ShardedRuntime

        rt = ShardedRuntime(n_shards=2, seed=7)
        kit = install_observability(manager=rt.manager)

        def body(tx):
            oid = yield tx.create(encode_int(0), name="c")
            yield tx.write(oid, encode_int(1))

        assert rt.run(body).committed
        snap = kit.snapshot()
        assert snap["counters"]["txn.committed"] >= 1


def _create_fat(tx, count):
    """One object per page: a small pool steals the uncommitted pages."""
    for index in range(count):
        yield tx.create((b"%d" % index) * 2200)


class TestWalForcesCounter:
    """Eviction-forced flushes are read, not inferred: ``wal.forces``
    sits beside ``wal.flushes`` (flat and per segment) and mirrors
    ``BufferPool.wal_forces``."""

    def test_flat_log_counts_forces_beside_flushes(self):
        from repro.storage.store import StorageManager

        manager = TransactionManager(storage=StorageManager(capacity=2))
        kit = install_observability(manager=manager)
        assert CooperativeRuntime(manager).run(
            _create_fat, args=(6,)
        ).committed
        counters = kit.snapshot()["counters"]
        forces = manager.storage.pool.wal_forces
        assert forces > 0
        assert counters["wal.forces"] == forces
        # Every force is a flush; the commit's own flush is not a force.
        assert counters["wal.flushes"] == forces + 1

    def test_segments_count_their_own_forces(self):
        from repro.core.sharded import ShardedTransactionManager
        from repro.runtime.sharded import ShardedRuntime
        from repro.storage.store import StorageManager

        storage = StorageManager(n_shards=2, capacity=2)
        manager = ShardedTransactionManager(n_shards=2, storage=storage)
        kit = install_observability(manager=manager)
        assert ShardedRuntime(manager=manager).run(
            _create_fat, args=(12,)
        ).committed
        snap = kit.snapshot()
        for index, shard in enumerate(storage.shards):
            forces = shard.pool.wal_forces
            assert forces > 0
            assert snap["counters"][f"wal.forces{{shard={index}}}"] == forces
            assert snap["gauges"][f"segment.wal_forces{{shard={index}}}"] == (
                forces
            )
            assert storage.segment_stats()[index]["wal_forces"] == forces
