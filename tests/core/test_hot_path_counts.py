"""Per-request work that follows what is live, as counts with no clock.

Two gates in the ``tests/runtime/test_coop_retirement.py`` style, plus
the constants that ride the same path:

* ``LockManager.holds`` answers from the OD's tid index — it used to
  walk ``td.locks`` comparing ``ObjectId``s, n(n-1)/2 comparisons for a
  transaction writing n objects (19,900 at n = 200);
* ``checkpoint()``, the deadlock detector's ``committing_transactions()``,
  the ``max_transactions`` admission test and the resilience kit's
  ``AdmissionController.active_load`` read the table's *live* index —
  they used to visit every TD ever created.
"""

from tests.conftest import incrementer, make_counters

from repro.common.events import EventBus, EventKind
from repro.common.ids import ObjectId, Tid
from repro.core.deadlock import DeadlockDetector
from repro.core.dependency import DependencyType
from repro.core.descriptors import (
    ObjectDescriptor,
    TransactionDescriptor,
    TransactionTable,
)
from repro.core.manager import TransactionManager
from repro.core.outcomes import GRANTED
from repro.core.status import TransactionStatus
from repro.obs import install_observability
from repro.resilience.admission import AdmissionController


def _object_id_comparisons(monkeypatch, n):
    """``ObjectId.__eq__`` calls made by one transaction writing ``n``
    objects it already holds, each named by a fresh (equal, not
    identical) id — so every dict probe compares once."""
    manager = TransactionManager()
    tid = manager.initiate()
    manager.begin(tid)
    oids = [manager.create_object(tid, b"v") for __ in range(n)]
    calls = [0]
    plain_eq = ObjectId.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return plain_eq(self, other)

    monkeypatch.setattr(ObjectId, "__eq__", counting_eq)
    for oid in oids:
        assert manager.try_write(tid, ObjectId(oid.value), b"w") is GRANTED
    monkeypatch.undo()
    assert len(manager.table.get(tid).locks) == n
    return calls[0]


class TestHoldsIsNotAWalk:
    def test_object_id_comparisons_are_linear_in_the_write_set(
        self, monkeypatch
    ):
        small = _object_id_comparisons(monkeypatch, 50)
        large = _object_id_comparisons(monkeypatch, 200)
        assert small > 0
        assert large == 4 * small

    def test_holds_agrees_with_the_descriptor_walk(self, manager):
        """Same answers as ``td.lock_on`` gave, suspension included."""
        ti, tj = manager.initiate(), manager.initiate()
        manager.begin(ti, tj)
        oid = manager.create_object(ti, b"v")
        locks, td_i, td_j = manager.lock_manager, *(
            manager.table.get(t) for t in (ti, tj)
        )
        assert locks.holds(td_i, oid, "write") and locks.holds(td_i, oid, "read")
        assert not locks.holds(td_j, oid, "read")
        assert not locks.holds(td_i, ObjectId(999), "read")  # no OD at all
        manager.permit(ti, tj=tj, oids=[oid])
        assert manager.try_write(tj, oid, b"w") is GRANTED
        assert td_i.lock_on(oid).suspended
        assert not locks.holds(td_i, oid, "write")  # suspended: re-acquire
        assert locks.holds(td_j, oid, "write")

    def test_delegation_to_oneself_keeps_the_lock(self, manager):
        """The merge looks the delegatee's LRD up by tid; delegating to
        oneself must not find — and then detach — the LRD being moved."""
        tid = manager.initiate()
        manager.begin(tid)
        oid = manager.create_object(tid, b"v")
        assert manager.delegate(tid, tid) == [oid]
        td = manager.table.get(tid)
        assert td.lock_on(oid) is manager.registry.maybe_get(oid).granted_for(tid)
        assert manager.lock_manager.holds(td, oid, "write")


class TestOneDescriptorProbePerOperation:
    """``try_read`` / ``try_write`` / ``try_operation`` used to ask
    ``holds`` (registry probe, tid-index probe) and, on a miss,
    ``acquire`` (registry probe again, the tid index twice more): the
    first access of every object by every transaction.  ``acquire``
    answers "already held, unsuspended, covering" itself — the paper's
    step 1a — so an operation is one probe of each, held or not."""

    @staticmethod
    def _probes(monkeypatch, manager):
        counts = {"registry": 0, "tid_index": 0}
        registry = type(manager.registry)
        for name in ("get_or_create", "maybe_get"):
            plain = getattr(registry, name)

            def counted(self, oid, plain=plain):
                counts["registry"] += 1
                return plain(self, oid)

            monkeypatch.setattr(registry, name, counted)
        plain_granted_for = ObjectDescriptor.granted_for
        plain_foreign = ObjectDescriptor.foreign_active_count

        def granted_for(self, tid):
            counts["tid_index"] += 1
            return plain_granted_for(self, tid)

        def foreign_active_count(self, tid):
            counts["tid_index"] += 1
            return plain_foreign(self, tid)

        monkeypatch.setattr(ObjectDescriptor, "granted_for", granted_for)
        monkeypatch.setattr(
            ObjectDescriptor, "foreign_active_count", foreign_active_count
        )
        return counts

    def test_first_access_and_held_access_probe_once_each(
        self, manager, monkeypatch
    ):
        owner, tid = manager.initiate(), manager.initiate()
        manager.begin(owner, tid)
        oid = manager.create_object(owner, b"v")
        manager.note_completed(owner)
        assert manager.try_commit(owner).status.name == "COMMITTED"
        stats = manager.lock_manager.stats
        counts = self._probes(monkeypatch, manager)
        # First access: nothing held yet (was 2 registry + 3 tid probes).
        assert manager.try_read(tid, oid)[0] is GRANTED
        assert counts == {"registry": 1, "tid_index": 1}
        assert (stats["grants"], stats["fast_grants"]) == (2, 1)
        # An upgrade over one's own lock: still one of each.
        assert manager.try_write(tid, oid, b"w") is GRANTED
        assert counts == {"registry": 2, "tid_index": 2}
        assert (stats["grants"], stats["fast_grants"]) == (3, 2)
        # Held and covering: answered by the same probe, nothing granted.
        assert manager.try_write(tid, oid, b"x") is GRANTED
        assert manager.try_read(tid, oid) == (GRANTED, b"x")
        outcome, __ = manager.try_operation(
            tid, oid, "write", lambda value: (value + b"y", None)
        )
        assert outcome is GRANTED
        assert counts == {"registry": 5, "tid_index": 5}
        assert (stats["grants"], stats["fast_grants"]) == (3, 2)
        assert stats["blocks"] == stats["suspensions"] == 0

    def test_a_suspended_lock_is_not_held(self, manager, monkeypatch):
        """The branch ``holds`` used to answer: a suspended grant must
        be re-acquired, through conflict and permit evaluation."""
        ti, tj = manager.initiate(), manager.initiate()
        manager.begin(ti, tj)
        oid = manager.create_object(ti, b"v")
        manager.permit(ti, tj=tj, oids=[oid])
        assert manager.try_write(tj, oid, b"w") is GRANTED
        assert manager.table.get(ti).lock_on(oid).suspended
        grants = manager.lock_manager.stats["grants"]
        blocked = manager.try_write(ti, oid, b"x")
        assert not blocked and blocked.blockers == (tj,)
        assert manager.lock_manager.stats["grants"] == grants


def _count_descriptors_walked(monkeypatch, walks=("__iter__", "live")):
    """Count every TD handed out by a walk of the table, whole or live
    (``walks=("__iter__",)`` leaves ``live()`` a sized view)."""
    walked = [0]

    def counting(walk):
        def wrapper(self):
            for td in walk(self):
                walked[0] += 1
                yield td

        return wrapper

    for walk in walks:
        monkeypatch.setattr(
            TransactionTable, walk, counting(getattr(TransactionTable, walk))
        )
    return walked


class TestWalksFollowTheLiveSet:
    def test_detector_and_checkpoint_touch_what_is_live(self, rt, monkeypatch):
        [oid] = make_counters(rt, 1)
        detector = DeadlockDetector(rt.manager)
        walked = _count_descriptors_walked(monkeypatch)
        touched = []
        for __ in range(2000):
            assert rt.run(incrementer(oid)).committed
            before = walked[0]
            assert detector.resolve_one() is None
            rt.manager.checkpoint()
            touched.append(walked[0] - before)
        assert touched[1999] == touched[19] == 0
        assert len(rt.manager.table) == 2001  # every TD still answerable

    def test_live_index_holds_exactly_the_non_terminated(self, manager):
        tids = [manager.initiate() for __ in range(6)]
        manager.begin(*tids[:5])
        manager.note_completed(tids[0])
        assert manager.try_commit(tids[0])
        manager.abort(tids[1])
        live = [td.tid for td in manager.table.live()]
        assert live == tids[2:]  # insertion order, INITIATED included
        assert all(
            not manager.table.get(tid).status.is_terminated for tid in live
        )
        assert manager.status_of(tids[0]) is TransactionStatus.COMMITTED
        assert manager.status_of(tids[1]) is TransactionStatus.ABORTED
        # A cascade retires every member of the abort closure.
        manager.form_dependency(DependencyType.AD, tids[2], tids[3])
        manager.abort(tids[2])
        assert [td.tid for td in manager.table.live()] == tids[4:]
        assert manager.committing_transactions() == []
        marker = manager.checkpoint()
        assert marker is not None

    def test_group_commit_retires_every_member(self, manager):
        first, second = manager.initiate(), manager.initiate()
        manager.begin(first, second)
        manager.form_dependency(DependencyType.GC, first, second)
        manager.note_completed(first)
        manager.note_completed(second)
        assert manager.try_commit(first)
        assert list(manager.table.live()) == []

    def test_admission_limit_counts_the_live(self):
        manager = TransactionManager(max_transactions=2)
        first, second = manager.initiate(), manager.initiate()
        assert first and second
        assert not manager.initiate()  # full: the null tid
        manager.begin(first)
        manager.note_completed(first)
        assert manager.try_commit(first)
        assert manager.initiate()  # a terminated transaction frees a slot

    def test_active_load_visits_no_descriptor(self, rt, monkeypatch):
        """The resilience kit's admission gate runs on every ``initiate``
        while a limit is set: it reads the live index's size."""
        [oid] = make_counters(rt, 1)
        for __ in range(500):
            assert rt.run(incrementer(oid)).committed
        in_flight = rt.manager.initiate()
        walked = _count_descriptors_walked(monkeypatch, walks=("__iter__",))
        controller = AdmissionController(max_active=2)
        assert controller.active_load(rt.manager) == 1
        assert walked[0] == 0
        controller.admit(rt.manager)  # one live, limit two: admitted
        assert rt.manager.abort(in_flight)
        assert controller.active_load(rt.manager) == 0
        assert walked[0] == 0

    def test_table_remove_forgets_the_live_entry_too(self):
        table = TransactionTable()
        table.add(TransactionDescriptor(tid=Tid(1)))
        table.add(TransactionDescriptor(tid=Tid(2)))
        table.retire(Tid(2))
        assert [td.tid for td in table.live()] == [Tid(1)]
        assert Tid(2) in table  # retired, not forgotten
        table.remove(Tid(1))
        assert list(table.live()) == [] and len(table) == 1


class TestConstantsOnTheRequestPath:
    def test_every_grant_shares_one_outcome(self, manager):
        tid = manager.initiate()
        manager.begin(tid)
        oid = manager.create_object(tid, b"v")
        outcome, value = manager.try_read(tid, oid)
        assert outcome is GRANTED and value == b"v"
        assert manager.try_write(tid, oid, b"w") is GRANTED
        td = manager.table.get(tid)
        assert manager.lock_manager.acquire(td, oid, "read") is GRANTED
        assert GRANTED and GRANTED.blockers == ()

    def test_emit_on_an_unwatched_bus_does_not_hash_the_kind(
        self, monkeypatch
    ):
        # Probing the watched set is a C-level identity hash (members are
        # singletons), so a narrow subscriber costs the bare path no frame.
        assert EventKind.__hash__ is object.__hash__
        assert {EventKind("read"): 1}[EventKind.READ] == 1
        hashed = [0]
        plain_hash = EventKind.__hash__

        def counting_hash(self):
            hashed[0] += 1
            return plain_hash(self)

        bus = EventBus()
        monkeypatch.setattr(EventKind, "__hash__", counting_hash)
        assert bus.emit(EventKind.READ, None, oid=1) is None
        assert hashed[0] == 0
        seen = []
        bus.subscribe(seen.append, kinds=[EventKind.COMMITTED])
        baseline = hashed[0]
        assert bus.emit(EventKind.READ, None) is None  # narrow: one probe
        assert hashed[0] == baseline + 1
        assert bus.emit(EventKind.COMMITTED, None) is seen[0]

    def test_detached_primitives_are_the_plain_methods(self, manager):
        """EX19's detached budget is zero frames: nothing wraps a
        primitive until a kit attaches, and then only on that instance."""
        for name in ("initiate", "delegate", "permit", "form_dependency",
                     "try_commit", "try_prepare", "abort"):
            assert name not in vars(manager)
            assert not hasattr(getattr(TransactionManager, name), "__wrapped__")
        other = TransactionManager()
        kit = install_observability(manager=manager)
        assert "try_commit" in vars(manager) and "try_commit" not in vars(other)
        assert manager.try_commit.__name__ == "try_commit"
        # The manager's own nested calls are observed like any caller's:
        # the BAD dependent's abort, made from inside try_commit, is one
        # abort sample — as when the wrappers sat on the class.
        first, waiter = manager.initiate(), manager.initiate()
        manager.begin(first)
        manager.form_dependency(DependencyType.BAD, first, waiter)
        manager.note_completed(first)
        assert manager.try_commit(first)
        assert manager.has_aborted(waiter)
        histograms = kit.snapshot()["histograms"]
        assert histograms["primitive.commit.ticks"]["count"] == 1
        assert histograms["primitive.abort.ticks"]["count"] == 1
        assert histograms["primitive.initiate.ticks"]["count"] == 2
        assert "primitive.prepare.ticks" not in histograms  # never called
