"""The drivers enter ``try_commit`` when the program has ended, not once
per scheduler round.

Count gates in the ``test_coop_retirement.py`` style — call counts and
step counts, no wall clock.  The rule (``runtime.program
.commit_when_ended``) skips exactly the calls the manager would answer
NOT_COMPLETED, which return before any status change, event, tick or
log record; so the *schedule* must not move.  Every ``STEPS`` value and
every answer sequence below was recorded at the parent commit, where the
same scenarios made the same steps and the same non-NOT_COMPLETED
answers in the same order — plus one NOT_COMPLETED per round waited.
"""

import pytest

from tests.conftest import incrementer, make_counters, read_counter

from repro.common.codec import decode_int, encode_int
from repro.common.ids import NULL_TID
from repro.core.dependency import DependencyType
from repro.core.outcomes import CommitStatus
from repro.models import (
    attempt_subtransaction,
    cooperate,
    cursor_scan,
    establish_cooperation,
    join_transaction,
    parallel_subtransactions,
    require_subtransaction,
    run_atomic,
    run_contingent,
    run_distributed,
    run_saga,
    split_transaction,
)
from repro.models.saga import SagaStep
from repro.runtime import program as prog
from repro.runtime.coop import CooperativeRuntime
from repro.runtime.program import BLOCKED, execute_request

FINAL = {
    CommitStatus.COMMITTED,
    CommitStatus.ALREADY_COMMITTED,
    CommitStatus.ABORTED,
}


def count_commit_entries(manager):
    """Record the status of every answer ``manager.try_commit`` gives (a
    counting wrapper on the instance, outside ``src/``)."""
    answers = []
    real = manager.try_commit

    def counting(tid):
        outcome = real(tid)
        answers.append(outcome.status)
        return outcome

    manager.try_commit = counting
    return answers


def add(tx, oid, delta):
    value = decode_int((yield tx.read(oid)))
    yield tx.write(oid, encode_int(value + delta))


def bump(tx, oid):
    yield from add(tx, oid, 1)


def write_then_abort(tx, oid):
    yield from add(tx, oid, 1)
    yield tx.abort()


# -- the scenarios: each drives ``rt`` over ``oids`` and returns truthy --


def sequential_increment(rt, oids):
    return rt.run(incrementer(oids[0])).committed


def seven_request_body(rt, oids):
    def body(tx):
        for oid in oids[:3]:
            yield from add(tx, oid, 1)
        return decode_int((yield tx.read(oids[0])))

    return rt.run(body).value == 1


def parent_commits_its_child(rt, oids):
    def parent(tx):
        kid = yield tx.initiate(bump, args=(oids[0],))
        yield tx.begin(kid)
        # Issued while the child is still running: retried every round.
        return (yield tx.commit(kid))

    return rt.run(parent).value == 1


def commit_all_of_a_cooperating_pair(rt, oids):
    def editor(tx, oid):
        for __ in range(3):
            yield from add(tx, oid, 1)

    left = rt.spawn(editor, args=(oids[0],))
    right = rt.spawn(editor, args=(oids[0],))
    establish_cooperation(rt.manager, left, right, oids=[oids[0]])
    return rt.commit_all([left, right]) == {left: 1, right: 1}


def model_atomic(rt, oids):
    return run_atomic(rt, bump, args=(oids[0],)).committed


def model_contingent(rt, oids):
    result = run_contingent(
        rt, [(write_then_abort, (oids[0],)), (bump, (oids[1],))]
    )
    return result.committed and result.chosen_index == 1


def model_distributed(rt, oids):
    return run_distributed(
        rt, [(bump, (oids[0],)), (bump, (oids[1],))]
    ).committed


def model_saga(rt, oids):
    result = run_saga(rt, [
        SagaStep(bump, add, (oids[0],), (oids[0], -1)),
        SagaStep(bump, add, (oids[1],), (oids[1], -1)),
        SagaStep(write_then_abort, None, (oids[2],)),
    ])
    return not result.committed and result.compensated_steps == 2


def model_nested(rt, oids):
    def nest(tx):
        yield from require_subtransaction(tx, bump, (oids[0],))
        survived = yield from attempt_subtransaction(
            tx, write_then_abort, (oids[1],)
        )
        return survived is None

    return rt.run(nest).value is True


def model_parallel_nested(rt, oids):
    def nest(tx):
        outcomes = yield from parallel_subtransactions(
            tx, [(bump, (oids[0],)), (bump, (oids[1],))]
        )
        return len(outcomes)

    return rt.run(nest).value == 2


def model_split_join(rt, oids):
    def split_and_join(tx):
        yield from add(tx, oids[0], 1)
        half = yield from split_transaction(
            tx, bump, oids=[oids[0]], args=(oids[1],)
        )
        joined = yield from join_transaction(tx, half)
        yield tx.abort(half)
        return joined

    return rt.run(split_and_join).value == 1


def model_cooperate(rt, oids):
    def lender(tx, peer):
        yield from add(tx, oids[0], 1)
        yield from cooperate(tx, peer[0], [oids[0]])

    def borrower(tx):
        yield tx.read(oids[1])
        yield tx.read(oids[1])
        yield from add(tx, oids[0], 1)

    peer = []
    first = rt.initiate(lender, args=(peer,))
    second = rt.initiate(borrower)
    peer.append(second)
    rt.begin(first, second)
    return rt.commit_all([first, second]) == {first: 1, second: 1}


def model_cursor(rt, oids):
    def scan(tx):
        return len((yield from cursor_scan(tx, oids)))

    return rt.run(scan).value == len(oids)


# scenario -> (runtime.steps, try_commit entries), as at the parent
# commit (where the entries column read one more per round waited).
STEPS = {
    sequential_increment: (8, 2),
    seven_request_body: (13, 2),
    parent_commits_its_child: (15, 3),
    commit_all_of_a_cooperating_pair: (19, 3),
    model_atomic: (8, 2),
    model_contingent: (11, 3),
    model_distributed: (11, 3),
    model_saga: (20, 6),
    model_nested: (29, 3),
    model_parallel_nested: (26, 4),
    model_split_join: (20, 2),
    model_cooperate: (16, 3),
    model_cursor: (14, 2),
}


class TestEveryEntryIsFinal:
    @pytest.mark.parametrize(
        "scenario", list(STEPS), ids=lambda scenario: scenario.__name__
    )
    def test_entries_are_final_and_the_schedule_did_not_move(self, scenario):
        rt = CooperativeRuntime()
        answers = count_commit_entries(rt.manager)
        oids = make_counters(rt, 4)
        assert scenario(rt, oids)
        assert answers and set(answers) <= FINAL, answers
        assert (rt.steps, len(answers)) == STEPS[scenario]

    def test_seeded_interleaving_is_covered_too(self):
        """The rule does not lean on round-robin order."""
        rt = CooperativeRuntime(seed=1234)
        answers = count_commit_entries(rt.manager)
        oids = make_counters(rt, 4)
        assert commit_all_of_a_cooperating_pair(rt, oids)
        assert set(answers) <= FINAL
        assert (rt.steps, len(answers)) == (19, 3)


class TestBlockedStillRetriesEveryRound:
    def test_cd_dependent_is_asked_once_per_round_while_blocked(self, rt):
        """BLOCKED is not NOT_COMPLETED: the paper's "retry from step 1"
        stays, one entry per round, until the dependee terminates."""
        [oid, other] = make_counters(rt, 2)

        def slow(tx):
            for __ in range(3):
                yield from add(tx, other, 1)

        dependee = rt.spawn(slow)
        dependent = rt.spawn(bump, args=(oid,))
        rt.manager.form_dependency(DependencyType.CD, dependee, dependent)
        answers = count_commit_entries(rt.manager)
        before = rt.steps
        assert rt.commit_all([dependent, dependee]) == {
            dependent: 1, dependee: 1,
        }
        # The dependent's bump ends after round 3; the dependee's seven
        # steps end after round 7.  Rounds 3..7: BLOCKED each time; then
        # the dependee commits and, in the next pass, the dependent.
        blocked, committed = CommitStatus.BLOCKED, CommitStatus.COMMITTED
        assert answers == [blocked] * 5 + [committed, committed]
        assert rt.steps - before == 10
        assert rt.manager.stats["commit_blocks"] == 5

    def test_group_member_still_running_blocks_the_committer(self, rt):
        """A completed transaction whose GC partner is still running has
        left RUNNING, so the manager is asked — and answers BLOCKED."""
        [oid, other] = make_counters(rt, 2)

        def slow(tx):
            for __ in range(2):
                yield from add(tx, other, 1)

        quick = rt.spawn(bump, args=(oid,))
        partner = rt.spawn(slow)
        rt.manager.form_dependency(DependencyType.GC, quick, partner)
        answers = count_commit_entries(rt.manager)
        before = rt.steps
        assert rt.commit(quick) == 1
        assert answers == [CommitStatus.BLOCKED] * 2 + [CommitStatus.COMMITTED]
        assert rt.steps - before == 8
        assert rt.manager.has_committed(partner)


class TestAbortFromOutside:
    def test_commit_returns_zero_in_the_same_round(self, rt):
        """An abort that lands while the program runs moves the
        descriptor out of RUNNING: the very next test of the rule asks
        the manager and hears ABORTED — no extra round."""
        [oid, other] = make_counters(rt, 2)

        def long_body(tx):
            for __ in range(4):
                yield from add(tx, oid, 1)

        victim = rt.spawn(long_body)

        def killer(tx):
            yield tx.read(other)
            yield tx.read(other)
            yield tx.abort(victim)

        rt.spawn(killer)
        answers = count_commit_entries(rt.manager)
        before = rt.steps
        assert rt.commit(victim) == 0
        assert answers == [CommitStatus.ABORTED]
        assert rt.steps - before == 6
        assert rt.error_of(victim) is None
        assert read_counter(rt, oid) == 0

    def test_task_holds_the_live_descriptor(self, rt):
        """``_step`` reads the abort flag off the TD the task kept; it
        must be the table's own object, not a copy."""
        [oid] = make_counters(rt, 1)
        tid = rt.spawn(incrementer(oid))
        assert rt._tasks[tid].td is rt.manager.table.get(tid)
        rt.manager.abort(tid)
        rt.run_until_quiescent()
        assert rt.active_tasks() == []
        assert rt.commit(tid) == 0


class TestThreadedCommit:
    def test_commit_is_not_entered_once_per_manager_event(self, threaded_rt):
        rt = threaded_rt
        oids = make_counters(rt, 1)
        answers = count_commit_entries(rt.manager)

        def body(tx):
            # 40 requests, each emitting manager events that wake the
            # committer; it used to re-enter try_commit on every one.
            for __ in range(20):
                yield from add(tx, oids[0], 1)

        tid = rt.initiate(body)
        rt.begin(tid)
        assert rt.commit(tid) == 1
        assert 1 <= len(answers) <= 2
        assert set(answers) <= FINAL

    def test_commit_all_asks_only_about_ended_programs(self, threaded_rt):
        rt = threaded_rt
        oids = make_counters(rt, 2)
        answers = count_commit_entries(rt.manager)
        tids = [rt.initiate(bump, args=(oid,)) for oid in oids]
        rt.begin(*tids)
        assert rt.commit_all(tids) == {tid: 1 for tid in tids}
        assert len(answers) == 2 and set(answers) <= FINAL


class TestTheInterpreterAndTheManagerContract:
    def test_commit_request_on_a_running_tid_does_not_enter(self, manager):
        answers = count_commit_entries(manager)
        tid = manager.initiate()
        manager.begin(tid)
        state, who = execute_request(
            manager, None, NULL_TID, prog.Commit(tid=tid)
        )
        assert state is BLOCKED and who == (tid,)
        assert answers == []

    def test_a_direct_caller_still_hears_not_completed(self, manager):
        tid = manager.initiate()
        assert manager.try_commit(tid).status is CommitStatus.NOT_COMPLETED
        manager.begin(tid)
        assert manager.try_commit(tid).status is CommitStatus.NOT_COMPLETED
        answers = count_commit_entries(manager)
        unasked = prog.commit_when_ended(manager, manager.table.get(tid))
        assert unasked.status is CommitStatus.NOT_COMPLETED and answers == []
        manager.note_completed(tid)
        outcome = prog.commit_when_ended(manager, manager.table.get(tid))
        assert outcome.status is CommitStatus.COMMITTED
