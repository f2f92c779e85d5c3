"""Finished tasks leave the scheduler: per-unit work is flat in run length.

Deterministic gates in the EX19 style — call counts, no wall clock.  The
scheduler used to rescan every task ever spawned each round, so the
2,000th sequential transaction cost ~100x the 20th in ``Tid.__hash__``
calls alone.
"""

from tests.conftest import incrementer, make_counters, read_counter

from repro.common.codec import encode_int
from repro.common.ids import Tid
from repro.runtime.coop import CooperativeRuntime


def _count_tid_hashes(monkeypatch):
    calls = [0]

    def counting_hash(self):
        calls[0] += 1
        return hash(self.value)

    monkeypatch.setattr(Tid, "__hash__", counting_hash)
    return calls


class TestRetirement:
    def test_per_unit_hash_calls_do_not_grow_with_run_length(
        self, rt, monkeypatch
    ):
        [oid] = make_counters(rt, 1)

        def boom(tx):
            yield tx.write(oid, encode_int(-1))
            raise ValueError("boom")

        failed = rt.run(boom)
        assert not failed.committed

        calls = _count_tid_hashes(monkeypatch)
        per_unit = []
        tids = []
        for __ in range(2000):
            before = calls[0]
            result = rt.run(incrementer(oid))
            per_unit.append(calls[0] - before)
            tids.append(result.tid)
            assert result.committed
        monkeypatch.undo()

        assert per_unit[19] > 0
        assert per_unit[1999] == per_unit[19]
        # Nothing finished is still scheduled ...
        assert rt.active_tasks() == []
        assert rt._tasks == {}
        assert rt.stall_report() == []
        # ... yet every outcome is still answerable.
        assert rt.result_of(tids[0]) == 1
        assert rt.result_of(tids[-1]) == 2000
        assert rt.error_of(tids[0]) is None and rt.error_of(tids[-1]) is None
        assert isinstance(rt.error_of(failed.tid), ValueError)
        assert rt.result_of(failed.tid) is None
        assert read_counter(rt, oid) == 2000

    def test_round_snapshot_is_the_live_tasks_in_spawn_order(self, rt):
        """Retirement removes from the middle without reordering the rest."""
        oids = make_counters(rt, 4)
        arranged = []

        class Recording:
            def arrange(self, tids):
                arranged.append(list(tids))
                return tids

        def slow(oid, requests):
            def body(tx):
                for __ in range(requests):
                    yield tx.read(oid)

            return body

        rt.schedule = Recording()
        lengths = (3, 1, 4, 2)
        tids = [
            rt.spawn(slow(oid, length)) for oid, length in zip(oids, lengths)
        ]
        rt.run_until_quiescent()
        # A task with n requests is stepped in n + 1 rounds.
        for number, snapshot in enumerate(arranged, start=1):
            assert snapshot == [
                tid
                for tid, length in zip(tids, lengths)
                if length + 1 >= number
            ]
        assert rt.active_tasks() == []

    def test_second_on_begun_of_a_finished_tid_creates_no_task(self, rt):
        """Regression: the guard must hold once the task has retired (a
        cluster BEGIN redelivery, or ``begin`` of an already-run tid)."""
        [oid] = make_counters(rt, 1)
        tid = rt.spawn(incrementer(oid))
        assert rt.commit(tid) == 1
        steps = rt.steps

        rt.on_begun(tid)
        assert rt.active_tasks() == []
        rt.run_until_quiescent()
        assert rt.steps == steps
        assert rt.result_of(tid) == 1
        assert read_counter(rt, oid) == 1

    def test_second_on_begun_of_a_live_tid_creates_no_task(self):
        rt = CooperativeRuntime()
        [oid] = make_counters(rt, 1)
        tid = rt.spawn(incrementer(oid))
        rt.on_begun(tid)
        assert rt.active_tasks() == [tid]
        assert rt.commit(tid) == 1
        assert read_counter(rt, oid) == 1

    def test_get_result_request_sees_a_retired_task(self, rt):
        def child(tx):
            yield from ()
            return "payload"

        def parent(tx):
            kid = yield tx.initiate(child)
            yield tx.begin(kid)
            yield tx.wait(kid)
            return (yield tx.result_of(kid))

        tid = rt.spawn(parent)
        rt.run_until_quiescent()
        assert rt.result_of(tid) == "payload"
