"""Manager-level fuzz: random primitive sequences never corrupt state.

A random stream of primitive invocations with random arguments — legal or
not — may only ever produce documented outcomes (success, a would-block
outcome, or one of the library's typed errors).  After every call the
structural invariants must hold:

* no two unsuspended conflicting granted locks;
* every granted LRD is consistently cross-linked (TD list <-> OD list);
* terminated transactions hold no locks, permits, or dependency edges;
* commit and abort remain mutually exclusive fates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AssetError, TransactionAborted
from repro.common.ids import Tid
from repro.core.dependency import DependencyType
from repro.core.manager import TransactionManager
from repro.core.status import TransactionStatus

N = 4  # transaction slots
OBJECTS = 3

op = st.tuples(
    st.sampled_from(
        [
            "initiate", "begin", "complete", "commit", "abort",
            "read", "write", "delegate", "permit", "depend",
        ]
    ),
    st.integers(0, N - 1),
    st.integers(0, N - 1),
    st.integers(0, OBJECTS - 1),
    st.sampled_from(list(DependencyType)),
)


class TestManagerFuzz:
    @given(ops=st.lists(op, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_random_primitive_streams_keep_invariants(self, ops):
        manager = TransactionManager()
        boot = manager.initiate()
        manager.begin(boot)
        oids = [
            manager.create_object(boot, b"seed") for __ in range(OBJECTS)
        ]
        manager.note_completed(boot)
        manager.try_commit(boot)

        slots = [None] * N

        def tid_at(index):
            if slots[index] is None:
                slots[index] = manager.initiate()
            return slots[index]

        for name, a, b, obj, dep_type in ops:
            try:
                if name == "initiate":
                    slots[a] = manager.initiate()
                elif name == "begin":
                    manager.begin(tid_at(a))
                elif name == "complete":
                    manager.note_completed(tid_at(a))
                elif name == "commit":
                    manager.try_commit(tid_at(a))
                elif name == "abort":
                    manager.abort(tid_at(a))
                elif name == "read":
                    manager.try_read(tid_at(a), oids[obj])
                elif name == "write":
                    manager.try_write(tid_at(a), oids[obj], b"fuzz")
                elif name == "delegate":
                    manager.delegate(tid_at(a), tid_at(b))
                elif name == "permit":
                    manager.permit(
                        tid_at(a),
                        tj=tid_at(b) if a != b else None,
                        oids=[oids[obj]],
                    )
                elif name == "depend":
                    manager.form_dependency(
                        dep_type, tid_at(a), tid_at(b)
                    )
            except (AssetError, TransactionAborted):
                pass  # documented refusals are fine; crashes are not

            # ---- invariants after every single call -----------------
            assert manager.lock_manager.check_invariants() == []
            for td in manager.transactions():
                if td.status.is_terminated:
                    assert td.locks == ()  # a finished TD holds no list
                for lrd in td.locks:
                    assert lrd.td is td
                    assert lrd in lrd.od.granted
            for od in manager.registry.all_descriptors():
                for lrd in od.granted:
                    assert lrd in lrd.td.locks

        # Terminated transactions left nothing behind.
        for td in manager.transactions():
            if td.status.is_terminated:
                tid = td.tid
                assert manager.permits.given_by(tid) == ()
                assert manager.permits.given_to(tid) == ()
                assert manager.dependencies.edges_involving(tid) == ()

    @given(ops=st.lists(op, max_size=30), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fates_are_final(self, ops, data):
        """Once committed, never aborted — and vice versa."""
        manager = TransactionManager()
        fates = {}
        slots = [None] * N

        def tid_at(index):
            if slots[index] is None:
                slots[index] = manager.initiate()
            return slots[index]

        for name, a, b, obj, dep_type in ops:
            try:
                if name in ("read", "write", "permit"):
                    continue  # no objects in this variant
                if name == "initiate":
                    slots[a] = manager.initiate()
                elif name == "begin":
                    manager.begin(tid_at(a))
                elif name == "complete":
                    manager.note_completed(tid_at(a))
                elif name == "commit":
                    manager.try_commit(tid_at(a))
                elif name == "abort":
                    manager.abort(tid_at(a))
                elif name == "delegate":
                    manager.delegate(tid_at(a), tid_at(b))
                elif name == "depend":
                    manager.form_dependency(dep_type, tid_at(a), tid_at(b))
            except (AssetError, TransactionAborted):
                pass
            for td in manager.transactions():
                current = td.status
                if td.tid in fates:
                    previous = fates[td.tid]
                    if previous is TransactionStatus.COMMITTED:
                        assert current is TransactionStatus.COMMITTED
                    if previous is TransactionStatus.ABORTED:
                        assert current is TransactionStatus.ABORTED
                if current.is_terminated:
                    fates[td.tid] = current
