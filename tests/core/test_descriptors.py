"""TD / OD / LRD / PD descriptor structures (Figure 1)."""

import pytest

from repro.common.errors import InvalidStateError, UnknownTransactionError
from repro.common.ids import NULL_TID, ObjectId, Tid
from repro.core.descriptors import (
    LockRequestDescriptor,
    LockRequestStatus,
    ObjectDescriptor,
    PermitDescriptor,
    TransactionDescriptor,
    TransactionTable,
)
from repro.core.status import TransactionStatus


class TestTransactionDescriptor:
    def test_defaults(self):
        td = TransactionDescriptor(tid=Tid(1))
        assert td.parent == NULL_TID
        assert td.status is TransactionStatus.INITIATED
        assert td.locks == []

    def test_finish_keeps_what_status_queries_read(self):
        td = TransactionDescriptor(
            tid=Tid(2), parent=Tid(1), function=print, args=(1,)
        )
        td.savepoints.append(object())
        td.set_status(TransactionStatus.ABORTING)
        td.abort_reason = "test"
        td.finish()
        assert (td.tid, td.parent, td.status, td.abort_reason) == (
            Tid(2), Tid(1), TransactionStatus.ABORTING, "test",
        )
        assert (td.function, td.args, td.locks, td.savepoints) == (
            None, (), (), (),
        )
        assert td.lock_on(ObjectId(5)) is None
        assert not hasattr(td, "__dict__")

    def test_set_status_enforces_machine(self):
        td = TransactionDescriptor(tid=Tid(1))
        td.set_status(TransactionStatus.RUNNING)
        with pytest.raises(InvalidStateError):
            td.set_status(TransactionStatus.COMMITTED)

    def test_lock_on(self):
        td = TransactionDescriptor(tid=Tid(1))
        od = ObjectDescriptor(ObjectId(5))
        lrd = LockRequestDescriptor(td=td, od=od, operations={"read"})
        td.locks.append(lrd)
        assert td.lock_on(ObjectId(5)) is lrd
        assert td.lock_on(ObjectId(6)) is None
        assert td.locked_object_ids() == [ObjectId(5)]


class TestPermitDescriptor:
    def test_specific_permit_covers(self):
        pd = PermitDescriptor(
            oid=ObjectId(1), giver=Tid(1), receiver=Tid(2), operation="write"
        )
        assert pd.covers(Tid(2), "write")
        assert not pd.covers(Tid(3), "write")
        assert not pd.covers(Tid(2), "read")

    def test_wildcard_receiver(self):
        pd = PermitDescriptor(oid=ObjectId(1), giver=Tid(1), operation="write")
        assert pd.covers(Tid(2), "write")
        assert pd.covers(Tid(99), "write")

    def test_wildcard_operation(self):
        pd = PermitDescriptor(oid=ObjectId(1), giver=Tid(1), receiver=Tid(2))
        assert pd.covers(Tid(2), "read")
        assert pd.covers(Tid(2), "write")

    def test_repr_readable(self):
        pd = PermitDescriptor(oid=ObjectId(1), giver=Tid(1))
        assert "any" in repr(pd)


class TestObjectDescriptor:
    def test_lookup_by_tid(self):
        od = ObjectDescriptor(ObjectId(1))
        td = TransactionDescriptor(tid=Tid(1))
        lrd = LockRequestDescriptor(td=td, od=od, operations={"read"})
        od.attach_granted(lrd)
        assert od.granted_for(Tid(1)) is lrd
        assert od.granted_for(Tid(2)) is None
        assert od.pending_for(Tid(1)) is None

    def test_idle_detection(self):
        od = ObjectDescriptor(ObjectId(1))
        assert od.is_idle()
        od.attach_permit(
            PermitDescriptor(oid=ObjectId(1), giver=Tid(1))
        )
        assert not od.is_idle()

    def test_active_count_tracks_suspension(self):
        od = ObjectDescriptor(ObjectId(1))
        a = LockRequestDescriptor(
            td=TransactionDescriptor(tid=Tid(1)), od=od, operations={"w"}
        )
        b = LockRequestDescriptor(
            td=TransactionDescriptor(tid=Tid(2)), od=od, operations={"r"}
        )
        od.attach_granted(a)
        od.attach_granted(b)
        assert od.foreign_active_count(Tid(1)) == 1
        assert od.foreign_active_count(Tid(3)) == 2
        od.set_suspended(b, True)
        assert od.foreign_active_count(Tid(1)) == 0
        od.set_suspended(b, True)  # idempotent: no double decrement
        od.set_suspended(b, False)
        assert od.foreign_active_count(Tid(1)) == 1
        od.detach_granted(a)
        assert od.foreign_active_count(Tid(2)) == 0

    def test_permit_buckets_by_giver_and_receiver(self):
        od = ObjectDescriptor(ObjectId(1))
        explicit = PermitDescriptor(
            oid=ObjectId(1), giver=Tid(1), receiver=Tid(2)
        )
        wildcard = PermitDescriptor(oid=ObjectId(1), giver=Tid(1))
        od.attach_permit(explicit)
        od.attach_permit(wildcard)
        assert list(od.permits_from(Tid(1))) == [explicit, wildcard]
        assert list(od.permits_to_receiver(Tid(2))) == [explicit]
        assert list(od.permits_to_receiver(Tid(9))) == []
        od.detach_permit(explicit)
        assert list(od.permits_to_receiver(Tid(2))) == []
        od.detach_permit(wildcard)
        assert list(od.permits_from(Tid(1))) == []
        assert od.is_idle()


class TestLockRequestDescriptor:
    def test_accessors(self):
        td = TransactionDescriptor(tid=Tid(7))
        od = ObjectDescriptor(ObjectId(3))
        lrd = LockRequestDescriptor(td=td, od=od, operations={"write"})
        assert lrd.tid == Tid(7)
        assert lrd.oid == ObjectId(3)
        assert lrd.status is LockRequestStatus.GRANTED

    def test_repr_shows_suspension(self):
        td = TransactionDescriptor(tid=Tid(7))
        od = ObjectDescriptor(ObjectId(3))
        lrd = LockRequestDescriptor(
            td=td, od=od, operations={"write"}, suspended=True
        )
        assert "suspended" in repr(lrd)


class TestTransactionTable:
    def test_add_get_remove(self):
        table = TransactionTable()
        td = TransactionDescriptor(tid=Tid(1))
        table.add(td)
        assert table.get(Tid(1)) is td
        assert Tid(1) in table
        table.remove(Tid(1))
        assert Tid(1) not in table

    def test_unknown_raises(self):
        with pytest.raises(UnknownTransactionError):
            TransactionTable().get(Tid(9))

    def test_maybe_get(self):
        assert TransactionTable().maybe_get(Tid(9)) is None

    def test_iteration(self):
        table = TransactionTable()
        for value in range(5):
            table.add(TransactionDescriptor(tid=Tid(value + 1)))
        assert len(table) == 5
        assert {td.tid.value for td in table} == {1, 2, 3, 4, 5}

    def test_iteration_is_insertion_order(self):
        """A property of the table, not of the hash function or seed —
        the chained table iterated in bucket order (here 9, 17, 1, 3)."""
        table = TransactionTable()
        for value in (9, 3, 17, 1):
            table.add(TransactionDescriptor(tid=Tid(value)))
        assert [td.tid.value for td in table] == [9, 3, 17, 1]
        table.remove(Tid(3))
        table.add(TransactionDescriptor(tid=Tid(3)))
        assert [td.tid.value for td in table] == [9, 17, 1, 3]
