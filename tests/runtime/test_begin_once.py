"""``begin`` asks the manager once, and still tells "retry later" from
"never".

Every driver — :meth:`CooperativeRuntime.begin`,
:meth:`ThreadedRuntime.begin` and a yielded ``Begin`` request — asks
``manager.try_begin``, which decides under one hold of the manager's
mutex whether the tids began, are blocked, or never will.  A refusal with
blockers (a BCD dependee that has not committed) means "retry later": the
driver waits and asks again.  A refusal with none (the tid already
began, or terminated) means "never": the answer is 0 at once, with no
round driven and no wait.  A dependee that commits right after the
blockers were found leaves the answer "retry later", never "never".
"""

import threading
import time

import pytest

from repro.core.dependency import DependencyType
from repro.core.status import TransactionStatus
from repro.runtime import program as prog
from repro.runtime.coop import CooperativeRuntime
from repro.runtime.program import BLOCKED, DONE, execute_request
from repro.runtime.threaded import ThreadedRuntime
from tests.conftest import incrementer, make_counters


def count_rounds(monkeypatch, runtime):
    rounds = [0]
    plain = runtime.round

    def counting():
        rounds[0] += 1
        return plain()

    monkeypatch.setattr(runtime, "round", counting)
    return rounds


def committer(gate):
    """A body that commits ``gate`` (blocking until its code ends)."""

    def body(tx):
        return (yield tx.commit(gate))

    return body


def commit_gate_after_blockers_found(monkeypatch, manager, gate):
    """The next ``begin_blockers`` that finds ``gate`` commits it before
    returning — as a worker thread committing it just then would."""
    plain = manager.begin_blockers

    def then_commit(*tids):
        found = plain(*tids)
        if gate in found and manager.status_of(gate) is not (
            TransactionStatus.COMMITTED
        ):
            assert manager.try_commit(gate)
        return found

    monkeypatch.setattr(manager, "begin_blockers", then_commit)


def completed_gate(runtime):
    """A begun, completed, uncommitted tid with no code of its own."""
    manager = runtime.manager
    gate = manager.initiate(function=None)
    assert manager.begin(gate)
    assert manager.note_completed(gate)
    return gate


def terminated_tids(runtime, oid):
    """One committed and one aborted tid."""
    committed = runtime.run(incrementer(oid)).tid
    aborted = runtime.initiate(incrementer(oid))
    runtime.manager.abort(aborted)
    return committed, aborted


class TestCooperativeBegin:
    @pytest.fixture
    def runtime(self):
        return CooperativeRuntime()

    def test_a_blocked_tid_drives_rounds_until_its_dependee_commits(
        self, runtime, monkeypatch
    ):
        manager = runtime.manager
        oids = make_counters(runtime, 2)
        gate = runtime.spawn(incrementer(oids[0]))
        runtime.spawn(committer(gate))
        tid = runtime.initiate(incrementer(oids[1]))
        manager.form_dependency(DependencyType.BCD, gate, tid)
        rounds = count_rounds(monkeypatch, runtime)
        assert runtime.begin(tid) == 1
        assert rounds[0] > 0
        assert manager.status_of(gate) is TransactionStatus.COMMITTED
        assert manager.status_of(tid) is TransactionStatus.RUNNING
        assert tid in runtime.active_tasks()
        assert runtime.commit(tid) == 1

    def test_an_already_begun_tid_returns_0_at_once(
        self, runtime, monkeypatch
    ):
        oid = make_counters(runtime, 1)[0]
        tid = runtime.spawn(incrementer(oid))
        rounds = count_rounds(monkeypatch, runtime)
        steps = runtime.steps
        assert runtime.begin(tid) == 0
        assert rounds[0] == 0 and runtime.steps == steps

    def test_a_terminated_tid_returns_0_at_once(self, runtime, monkeypatch):
        oid = make_counters(runtime, 1)[0]
        tids = terminated_tids(runtime, oid)
        rounds = count_rounds(monkeypatch, runtime)
        for tid in tids:
            assert runtime.begin(tid) == 0
        assert rounds[0] == 0


class TestThreadedBegin:
    @pytest.fixture
    def runtime(self):
        runtime = ThreadedRuntime(poll_timeout=0.02)
        yield runtime
        runtime.close()

    @staticmethod
    def count_waits(monkeypatch, runtime):
        """Waits made by the calling (test) thread only."""
        waits = [0]
        plain = runtime._idle
        caller = threading.get_ident()

        def counting(seen, why=None):
            if threading.get_ident() == caller:
                waits[0] += 1
            return plain(seen, why)

        monkeypatch.setattr(runtime, "_idle", counting)
        return waits

    def test_a_blocked_tid_waits_until_its_dependee_commits(
        self, runtime, monkeypatch
    ):
        manager = runtime.manager
        oids = make_counters(runtime, 2)
        gate = runtime.initiate(incrementer(oids[0]))
        tid = runtime.initiate(incrementer(oids[1]))
        manager.form_dependency(DependencyType.BCD, gate, tid)
        waits = self.count_waits(monkeypatch, runtime)

        def release_gate():
            time.sleep(0.05)
            runtime.begin(gate)
            runtime.commit(gate)

        helper = threading.Thread(target=release_gate)
        helper.start()
        try:
            assert runtime.begin(tid) == 1
        finally:
            helper.join()
        assert waits[0] > 0
        assert manager.status_of(gate) is TransactionStatus.COMMITTED
        assert runtime.commit(tid) == 1

    def test_a_dependee_committing_after_the_refusal_lets_it_begin(
        self, runtime, monkeypatch
    ):
        manager = runtime.manager
        oid = make_counters(runtime, 1)[0]
        gate = completed_gate(runtime)
        tid = runtime.initiate(incrementer(oid))
        manager.form_dependency(DependencyType.BCD, gate, tid)
        commit_gate_after_blockers_found(monkeypatch, manager, gate)
        assert runtime.begin(tid) == 1
        assert manager.status_of(gate) is TransactionStatus.COMMITTED
        assert runtime.commit(tid) == 1

    def test_an_already_begun_tid_returns_0_at_once(
        self, runtime, monkeypatch
    ):
        oid = make_counters(runtime, 1)[0]
        tid = runtime.initiate(incrementer(oid))
        assert runtime.begin(tid) == 1
        waits = self.count_waits(monkeypatch, runtime)
        assert runtime.begin(tid) == 0
        assert waits[0] == 0
        assert runtime.commit(tid) == 1

    def test_a_terminated_tid_returns_0_at_once(self, runtime, monkeypatch):
        oid = make_counters(runtime, 1)[0]
        tids = terminated_tids(runtime, oid)
        waits = self.count_waits(monkeypatch, runtime)
        for tid in tids:
            assert runtime.begin(tid) == 0
        assert waits[0] == 0


class TestYieldedBegin:
    @pytest.fixture
    def runtime(self):
        return CooperativeRuntime()

    @staticmethod
    def begin_it(tid):
        def body(tx):
            return (yield tx.begin(tid))

        return body

    def test_a_blocked_tid_blocks_the_request_until_its_dependee_commits(
        self, runtime
    ):
        manager = runtime.manager
        oids = make_counters(runtime, 2)
        gate = runtime.spawn(incrementer(oids[0]))
        tid = runtime.initiate(incrementer(oids[1]))
        manager.form_dependency(DependencyType.BCD, gate, tid)
        state, who = execute_request(
            manager, runtime, gate, prog.Begin(tids=(tid,))
        )
        assert state is BLOCKED and who == (gate,)
        runtime.spawn(committer(gate))
        result = runtime.run(self.begin_it(tid))
        assert result.committed and result.value == 1
        assert manager.status_of(gate) is TransactionStatus.COMMITTED
        assert manager.status_of(tid) is not TransactionStatus.INITIATED

    def test_a_dependee_committing_after_the_refusal_blocks_not_ends(
        self, runtime, monkeypatch
    ):
        manager = runtime.manager
        oid = make_counters(runtime, 1)[0]
        gate = completed_gate(runtime)
        tid = runtime.initiate(incrementer(oid))
        manager.form_dependency(DependencyType.BCD, gate, tid)
        parent = runtime.spawn(None)
        commit_gate_after_blockers_found(monkeypatch, manager, gate)
        request = prog.Begin(tids=(tid,))
        state, who = execute_request(manager, runtime, parent, request)
        assert (state, who) == (BLOCKED, (gate,))
        state, result = execute_request(manager, runtime, parent, request)
        assert (state, result) == (DONE, 1)
        assert manager.status_of(tid) is not TransactionStatus.INITIATED

    def test_an_already_begun_tid_is_done_with_0_at_once(self, runtime):
        oid = make_counters(runtime, 1)[0]
        tid = runtime.spawn(incrementer(oid))
        parent = runtime.spawn(None)
        steps = runtime.steps
        state, result = execute_request(
            runtime.manager, runtime, parent, prog.Begin(tids=(tid,))
        )
        assert (state, result) == (DONE, 0)
        assert runtime.steps == steps
        assert runtime.run(self.begin_it(tid)).value == 0

    def test_a_terminated_tid_is_done_with_0_at_once(self, runtime):
        oid = make_counters(runtime, 1)[0]
        parent = runtime.spawn(None)
        for tid in terminated_tids(runtime, oid):
            steps = runtime.steps
            state, result = execute_request(
                runtime.manager, runtime, parent, prog.Begin(tids=(tid,))
            )
            assert (state, result) == (DONE, 0)
            assert runtime.steps == steps
            assert runtime.run(self.begin_it(tid)).value == 0
