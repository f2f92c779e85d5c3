"""The transaction status machine (section 2.1 vocabulary)."""

import pytest

from repro.common.errors import InvalidStateError
from repro.core.status import TransactionStatus, check_transition

S = TransactionStatus


class TestPredicates:
    def test_terminated(self):
        assert S.COMMITTED.is_terminated
        assert S.ABORTED.is_terminated
        for status in (S.INITIATED, S.RUNNING, S.COMPLETED, S.COMMITTING,
                       S.ABORTING):
            assert not status.is_terminated

    def test_active_matches_paper_definition(self):
        """Active = has begun executing and has not terminated."""
        assert S.RUNNING.is_active
        assert S.COMPLETED.is_active
        assert S.COMMITTING.is_active
        assert S.ABORTING.is_active
        assert not S.INITIATED.is_active
        assert not S.COMMITTED.is_active
        assert not S.ABORTED.is_active

    def test_abort_bound(self):
        assert S.ABORTING.is_abort_bound
        assert S.ABORTED.is_abort_bound
        assert not S.RUNNING.is_abort_bound


# Section 2.1, member by member: (terminated, active, abort-bound).
# *Terminated* is committed or aborted; *active* is begun and not
# terminated (PREPARED and the transitional states included); abort-bound
# is aborting or aborted — what the three properties computed before the
# flags became plain attributes set beside ``successors``.
FLAGS = {
    S.INITIATED: (False, False, False),
    S.RUNNING: (False, True, False),
    S.COMPLETED: (False, True, False),
    S.PREPARED: (False, True, False),
    S.COMMITTING: (False, True, False),
    S.ABORTING: (False, True, True),
    S.COMMITTED: (True, False, False),
    S.ABORTED: (True, False, True),
}


class TestTheFlagsAreTheDefinitions:
    def test_every_member_is_in_the_table(self):
        assert set(FLAGS) == set(S)

    @pytest.mark.parametrize("status", list(S), ids=lambda s: s.name)
    def test_flags(self, status):
        flags = (status.is_terminated, status.is_active, status.is_abort_bound)
        assert flags == FLAGS[status]
        assert all(type(flag) is bool for flag in flags)

    @pytest.mark.parametrize("status", list(S), ids=lambda s: s.name)
    def test_flags_follow_from_the_definitions(self, status):
        terminated = status in (S.COMMITTED, S.ABORTED)
        assert status.is_terminated is terminated
        assert status.is_active is (
            status is not S.INITIATED and not terminated
        )
        assert status.is_abort_bound is (status in (S.ABORTING, S.ABORTED))

    def test_flags_are_attributes_not_properties(self):
        """A flag read is an attribute load: no frame per check."""
        for name in ("is_terminated", "is_active", "is_abort_bound"):
            assert not isinstance(getattr(S, name, None), property)
            assert all(name in vars(status) for status in S)


class TestTransitions:
    def test_happy_path(self):
        sequence = [S.INITIATED, S.RUNNING, S.COMPLETED, S.COMMITTING,
                    S.COMMITTED]
        for current, target in zip(sequence, sequence[1:]):
            assert check_transition(current, target) is target

    def test_abort_path_from_each_live_state(self):
        for current in (S.INITIATED, S.RUNNING, S.COMPLETED, S.COMMITTING):
            assert check_transition(current, S.ABORTING) is S.ABORTING
        assert check_transition(S.ABORTING, S.ABORTED) is S.ABORTED

    def test_commit_backoff_allowed(self):
        """A blocked commit retreats COMMITTING -> COMPLETED to retry."""
        assert check_transition(S.COMMITTING, S.COMPLETED) is S.COMPLETED

    def test_terminal_states_are_final(self):
        for terminal in (S.COMMITTED, S.ABORTED):
            for target in S:
                with pytest.raises(InvalidStateError):
                    check_transition(terminal, target)

    def test_cannot_skip_running(self):
        with pytest.raises(InvalidStateError):
            check_transition(S.INITIATED, S.COMPLETED)
        with pytest.raises(InvalidStateError):
            check_transition(S.INITIATED, S.COMMITTED)

    def test_cannot_commit_while_running(self):
        with pytest.raises(InvalidStateError):
            check_transition(S.RUNNING, S.COMMITTING)
