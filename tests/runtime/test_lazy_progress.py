"""The cooperative driver's waiting loops format their stall message only
when they raise it.

``begin``, ``commit``, ``wait`` and ``commit_all`` drive the scheduler
until their transactions settle, and used to build ``f"commit of
{tid!r}"`` on every pass — three id ``repr`` calls per sequential unit
for a string read only by :class:`SchedulerStalledError`.  Counted, not
timed.
"""

import pytest

from tests.conftest import incrementer, make_counters

from repro.common.ids import Lsn, ObjectId, Tid
from repro.runtime.coop import CooperativeRuntime, SchedulerStalledError


def _count_id_reprs(monkeypatch):
    calls = []
    for kind in (Tid, ObjectId, Lsn):
        real = kind.__repr__
        monkeypatch.setattr(
            kind, "__repr__",
            lambda self, real=real: calls.append(type(self)) or real(self),
        )
    return calls


class TestNoIdIsFormattedPerUnit:
    def test_a_sequential_unit_formats_no_id(self, monkeypatch):
        rt = CooperativeRuntime()
        oids = make_counters(rt, 4)
        calls = _count_id_reprs(monkeypatch)
        for index in range(40):
            assert rt.run(incrementer(oids[index % 4])).committed
        assert calls == []

    def test_begin_wait_and_commit_all_format_no_id(self, monkeypatch):
        rt = CooperativeRuntime()
        oids = make_counters(rt, 4)
        calls = _count_id_reprs(monkeypatch)
        tids = [rt.spawn(incrementer(oid)) for oid in oids]
        assert all(rt.wait(tid) for tid in tids)
        assert rt.commit_all(tids) == {tid: 1 for tid in tids}
        assert calls == []

    def test_a_stall_still_says_what_it_drove(self):
        rt = CooperativeRuntime()
        ghost = rt.initiate(None)  # no program, never begun
        with pytest.raises(SchedulerStalledError) as caught:
            rt.commit(ghost)
        assert caught.value.why == f"commit of {ghost!r}"
        with pytest.raises(SchedulerStalledError) as caught:
            rt.commit_all([ghost])
        assert caught.value.why == f"commit_all of {[ghost]!r}"
