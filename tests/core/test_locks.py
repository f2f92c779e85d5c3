"""The lock manager: the section 4.2 read-lock/write-lock algorithm."""

import pytest

from repro.common.ids import ObjectId, Tid
from repro.core.descriptors import TransactionDescriptor
from repro.core.locks import LockManager, ObjectRegistry
from repro.core.permits import PermitTable
from repro.core.semantics import READ, WRITE, ConflictTable


@pytest.fixture
def registry():
    return ObjectRegistry()


@pytest.fixture
def permits(registry):
    return PermitTable(registry)


@pytest.fixture
def locks(registry, permits):
    return LockManager(registry, permits)


def td(value):
    return TransactionDescriptor(tid=Tid(value))


OB = ObjectId(1)
OB2 = ObjectId(2)


class TestBasicLocking:
    def test_read_read_share(self, locks):
        a, b = td(1), td(2)
        assert locks.acquire(a, OB, READ)
        assert locks.acquire(b, OB, READ)

    def test_write_blocks_write(self, locks):
        a, b = td(1), td(2)
        assert locks.acquire(a, OB, WRITE)
        outcome = locks.acquire(b, OB, WRITE)
        assert not outcome
        assert outcome.blockers == (Tid(1),)

    def test_write_blocks_read(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        assert not locks.acquire(b, OB, READ)

    def test_read_blocks_write(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, READ)
        assert not locks.acquire(b, OB, WRITE)

    def test_reacquire_is_idempotent(self, locks):
        a = td(1)
        locks.acquire(a, OB, WRITE)
        assert locks.acquire(a, OB, WRITE)
        assert len(a.locks) == 1

    def test_upgrade_read_to_write(self, locks):
        a = td(1)
        locks.acquire(a, OB, READ)
        assert locks.acquire(a, OB, WRITE)
        assert locks.holds(a, OB, WRITE)

    def test_upgrade_blocked_by_other_reader(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, READ)
        locks.acquire(b, OB, READ)
        assert not locks.acquire(a, OB, WRITE)

    def test_holds_semantics(self, locks):
        a = td(1)
        locks.acquire(a, OB, WRITE)
        assert locks.holds(a, OB, READ)  # write covers read
        assert not locks.holds(a, OB2, READ)

    def test_independent_objects(self, locks):
        a, b = td(1), td(2)
        assert locks.acquire(a, OB, WRITE)
        assert locks.acquire(b, OB2, WRITE)


class TestPendingAndRelease:
    def test_blocked_request_registers_pending(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        locks.acquire(b, OB, WRITE)
        pending = locks.pending_requests(Tid(2))
        assert len(pending) == 1
        assert locks.blockers_of(pending[0]) == [Tid(1)]

    def test_release_unblocks(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        locks.acquire(b, OB, WRITE)
        locks.release_all(a)
        assert locks.acquire(b, OB, WRITE)
        assert locks.pending_requests(Tid(2)) == []

    def test_release_clears_pending_too(self, locks, registry):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        locks.acquire(b, OB, WRITE)
        locks.release_all(b)  # b gives up while pending
        assert locks.pending_requests(Tid(2)) == []

    def test_od_freed_when_idle(self, locks, registry):
        a = td(1)
        locks.acquire(a, OB, WRITE)
        assert registry.maybe_get(OB) is not None
        locks.release_all(a)
        assert registry.maybe_get(OB) is None


class TestPermitsAndSuspension:
    def test_permit_suspends_holder_lock(self, locks, permits):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        permits.grant(OB, Tid(1), receiver=Tid(2), operation=WRITE)
        assert locks.acquire(b, OB, WRITE)
        assert a.lock_on(OB).suspended
        assert not b.lock_on(OB).suspended

    def test_permit_for_wrong_op_does_not_help(self, locks, permits):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        permits.grant(OB, Tid(1), receiver=Tid(2), operation=READ)
        assert not locks.acquire(b, OB, WRITE)
        assert locks.acquire(b, OB, READ)

    def test_ping_pong(self, locks, permits):
        """Cooperating transactions alternate via mutual permits."""
        a, b = td(1), td(2)
        permits.grant(OB, Tid(1), receiver=Tid(2), operation=WRITE)
        permits.grant(OB, Tid(2), receiver=Tid(1), operation=WRITE)
        assert locks.acquire(a, OB, WRITE)
        assert locks.acquire(b, OB, WRITE)  # a suspended
        assert locks.acquire(a, OB, WRITE)  # b suspended, a resumed
        assert locks.acquire(b, OB, WRITE)
        assert a.lock_on(OB).suspended
        assert not b.lock_on(OB).suspended

    def test_suspended_third_party_does_not_block(self, locks, permits):
        a, b, c = td(1), td(2), td(3)
        locks.acquire(a, OB, WRITE)
        permits.grant(OB, Tid(1), receiver=Tid(2), operation=WRITE)
        locks.acquire(b, OB, WRITE)
        # c has no permission from b (the active holder) -> blocked by b
        # only (a's suspended lock no longer excludes).
        outcome = locks.acquire(c, OB, WRITE)
        assert not outcome
        assert outcome.blockers == (Tid(2),)

    def test_invariant_no_two_active_conflicting(self, locks, permits):
        a, b = td(1), td(2)
        permits.grant(OB, Tid(1), receiver=Tid(2), operation=WRITE)
        locks.acquire(a, OB, WRITE)
        locks.acquire(b, OB, WRITE)
        assert locks.check_invariants() == []

    def test_stats_track_suspensions(self, locks, permits):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        permits.grant(OB, Tid(1), receiver=Tid(2), operation=WRITE)
        locks.acquire(b, OB, WRITE)
        assert locks.stats["suspensions"] == 1


class TestDelegation:
    def test_delegate_moves_lock(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        moved = locks.delegate(a, b)
        assert moved == [OB]
        assert a.lock_on(OB) is None
        assert b.lock_on(OB) is not None
        assert b.lock_on(OB).td is b

    def test_delegate_scoped_to_oids(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        locks.acquire(a, OB2, WRITE)
        moved = locks.delegate(a, b, oids={OB})
        assert moved == [OB]
        assert a.lock_on(OB2) is not None
        assert b.lock_on(OB) is not None

    def test_delegate_merges_with_existing(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, READ)
        locks.acquire(b, OB, READ)
        locks.delegate(a, b)
        assert a.lock_on(OB) is None
        merged = b.lock_on(OB)
        assert merged.operations == {READ}
        od = locks.registry.maybe_get(OB)
        assert len(od.granted) == 1

    def test_delegated_lock_conflicts_with_delegator(self, locks):
        """After delegation, the delegator's new request can conflict
        with its own past operations (section 2.2)."""
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        locks.delegate(a, b)
        outcome = locks.acquire(a, OB, WRITE)
        assert not outcome
        assert outcome.blockers == (Tid(2),)


class TestSemanticLocking:
    def test_commuting_increments_share(self, registry, permits):
        locks = LockManager(
            registry, permits, conflicts=ConflictTable.with_counter_ops()
        )
        a, b = td(1), td(2)
        assert locks.acquire(a, OB, "increment")
        assert locks.acquire(b, OB, "increment")

    def test_increment_blocks_reader(self, registry, permits):
        locks = LockManager(
            registry, permits, conflicts=ConflictTable.with_counter_ops()
        )
        a, b = td(1), td(2)
        locks.acquire(a, OB, "increment")
        assert not locks.acquire(b, OB, READ)


class TestPendingIndexHygiene:
    def test_pending_by_tid_drops_emptied_entries(self, locks):
        """Regression: granting a previously blocked request must delete
        the transaction's (now empty) per-tid pending list, or the index
        grows with every transaction that ever blocked."""
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        assert not locks.acquire(b, OB, WRITE)
        assert Tid(2) in locks._pending_by_tid
        locks.release_all(a)
        assert locks.acquire(b, OB, WRITE)
        assert Tid(2) not in locks._pending_by_tid
        assert locks.pending_requests() == []

    def test_pending_index_stays_bounded_over_many_transactions(self, locks):
        """A stream of block-then-grant transactions leaves no residue."""
        for value in range(2, 50):
            holder, waiter = td(1), td(value)
            locks.acquire(holder, OB, WRITE)
            assert not locks.acquire(waiter, OB, WRITE)
            locks.release_all(holder)
            assert locks.acquire(waiter, OB, WRITE)
            locks.release_all(waiter)
        assert locks._pending_by_tid == {}

    def test_a_grant_with_nothing_pending_clears_nothing(self, locks):
        """A transaction with no pending request anywhere is granted
        without a probe of the OD's pending table."""
        cleared = []
        clear = locks._clear_pending

        def counting(td_, od):
            cleared.append(td_.tid)
            clear(td_, od)

        locks._clear_pending = counting
        a = td(1)
        assert locks.acquire(a, OB, READ)
        assert locks.acquire(a, OB, WRITE)
        assert locks.acquire(a, OB2, WRITE)
        assert cleared == []

    def test_a_blocked_then_granted_request_is_detached(self, locks, registry):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        assert not locks.acquire(b, OB, WRITE)
        assert registry.get_or_create(OB).pending_for(Tid(2)) is not None
        locks.release_all(a)
        assert locks.acquire(b, OB, WRITE)
        assert registry.get_or_create(OB).pending_for(Tid(2)) is None
        assert locks.pending_requests() == []

    def test_a_grant_elsewhere_keeps_the_other_pending(self, locks, registry):
        """Granted on one object while blocked on another: the grant
        clears only its own object's request."""
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        assert not locks.acquire(b, OB, WRITE)
        assert locks.acquire(b, OB2, WRITE)
        (pending,) = locks.pending_requests(Tid(2))
        assert pending.od is registry.get_or_create(OB)
        assert registry.get_or_create(OB).pending_for(Tid(2)) is pending

    def test_release_all_clears_pending_entry(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        assert not locks.acquire(b, OB, WRITE)
        locks.release_all(b)  # the *waiter* terminates
        assert Tid(2) not in locks._pending_by_tid


class TestContentionFastPath:
    def test_uncontended_acquire_takes_fast_path(self, locks):
        a = td(1)
        assert locks.acquire(a, OB, READ)
        assert locks.stats["fast_grants"] == 1
        # Upgrading over one's own lock is also foreign-free.
        assert locks.acquire(a, OB, WRITE)
        assert locks.stats["fast_grants"] == 2
        # A held lock that covers the request is step 1a — success, and
        # nothing is granted or counted (the manager used to ask
        # ``holds`` first; ``acquire`` now answers it in the same probe).
        assert locks.acquire(a, OB, READ)
        assert (locks.stats["fast_grants"], locks.stats["grants"]) == (2, 2)

    def test_foreign_lock_disables_fast_path(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, READ)
        before = locks.stats["fast_grants"]
        assert locks.acquire(b, OB, READ)  # shared, but must be evaluated
        assert locks.stats["fast_grants"] == before

    def test_fast_path_over_suspended_foreign_lock(self, locks, permits):
        """Suspended foreign locks stop excluding others, so a third
        requester sees zero foreign-active locks and grants fast."""
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        permits.grant(OB, Tid(1), receiver=Tid(2), operation=WRITE)
        assert locks.acquire(b, OB, WRITE)  # suspends a's lock
        assert a.lock_on(OB).suspended
        locks.release_all(b)
        before = locks.stats["fast_grants"]
        c = td(3)
        assert locks.acquire(c, OB, WRITE)
        assert locks.stats["fast_grants"] == before + 1
        # Invariant still holds: a is suspended, c is the active writer.
        assert locks.check_invariants() == []

    def test_fast_path_preserves_blockers_of_semantics(self, locks):
        a, b = td(1), td(2)
        locks.acquire(a, OB, WRITE)
        assert not locks.acquire(b, OB, WRITE)
        pending = locks.pending_requests(Tid(2))[0]
        assert locks.blockers_of(pending) == [Tid(1)]
        locks.release_all(a)
        assert locks.blockers_of(pending) == []
