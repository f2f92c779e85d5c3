"""Regression: blocked threaded waiters wake on events, not poll timeouts.

The old wait had a lost-wakeup race: a waiter evaluated
its predicate (``try_commit``, ``wait_outcome``, ``execute_request`` —
all of which took the manager mutex and could take real time), found it
unsatisfied, and only then entered ``Condition.wait``.  An event
notifying in that gap was lost, so the waiter slept the *full* poll
timeout with nothing left to wake it.  With a generous timeout the
runtime still produced correct answers, just absurdly slowly.

The fix captures a wake-generation token *before* the predicate test;
``_idle(seen)`` returns immediately if any event fired
since.  These tests run with a poll timeout far longer than the test
budget, so any reliance on polling busts the wall clock and fails.
"""

import threading
import time

import pytest

from repro.common.codec import decode_int, encode_int
from repro.runtime.threaded import ThreadedRuntime

# Long enough that even ONE full poll sleep busts the wall-clock budget.
HUGE_POLL = 30.0
BUDGET = 10.0


@pytest.fixture
def rt():
    runtime = ThreadedRuntime(watchdog_interval=0.01, poll_timeout=HUGE_POLL)
    yield runtime
    runtime._closing.set()


def _make_counter(rt):
    def setup(tx):
        return (yield tx.create(encode_int(0), name="hot"))

    return rt.run(setup).value


class TestEventDrivenWakeup:
    def test_event_during_predicate_evaluation_is_not_lost(self, rt):
        """The lost-wakeup race, reproduced deterministically.

        The driver's ``commit`` tests its predicate (the descriptor is
        still RUNNING — since the commit-once rule that is a status
        read, no longer a ``try_commit`` call answering NOT_COMPLETED),
        and the transaction's completion event fires *after that failed
        test, before the driver reaches the condition variable*.  The
        old code then slept the full poll timeout (nothing else will
        ever notify); the fix's wake token sees the missed generation
        and returns immediately.
        """
        oid = _make_counter(rt)
        gate = threading.Event()

        def program(tx):
            yield tx.write(oid, encode_int(1))
            gate.wait(timeout=20.0)  # park until the driver is mid-predicate

        tid = rt.initiate(program)
        rt.begin(tid)

        driver = threading.current_thread()
        real_wait = rt._idle
        raced = []

        def wait_racing(seen, why=None):
            if threading.current_thread() is driver and not raced:
                raced.append(True)
                # The predicate has just failed.  Release the worker and
                # WAIT for it to complete: its completion event now lands
                # in exactly the old code's lost-wakeup gap.
                gate.set()
                deadline = time.monotonic() + 20.0
                while rt.manager.wait_outcome(tid) is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            return real_wait(seen, why)

        rt._idle = wait_racing
        try:
            start = time.monotonic()
            assert rt.commit(tid) == 1
            elapsed = time.monotonic() - start
        finally:
            del rt._idle

        assert raced, "the race window was never exercised"
        assert elapsed < BUDGET, (
            f"commit took {elapsed:.1f}s: the completion event that fired "
            f"after the failed predicate test was lost and the driver "
            f"slept out the poll timeout"
        )

    def test_lock_handoff_needs_no_polling(self, rt):
        """Two contending bumps hand the lock over on release events;
        with a 30s poll timeout the whole exchange must still be quick."""
        oid = _make_counter(rt)

        def bump(tx):
            value = decode_int((yield tx.read(oid)))
            yield tx.write(oid, encode_int(value + 1))
            return value + 1

        start = time.monotonic()
        first = rt.initiate(bump)
        second = rt.initiate(bump)
        rt.begin(first, second)
        outcomes = rt.commit_all([first, second])
        elapsed = time.monotonic() - start

        assert all(outcomes.values())
        assert elapsed < BUDGET, (
            f"handoff took {elapsed:.1f}s: a waiter slept out the poll "
            f"timeout instead of waking on the release event"
        )

        def read(tx):
            return decode_int((yield tx.read(oid)))

        assert rt.run(read).value == 2

    def test_driver_wait_wakes_on_abort(self, rt):
        """A driver ``wait`` on a lock-blocked transaction returns
        promptly when the transaction is aborted from another thread —
        the system is fully quiescent before the abort, so only the
        abort event itself can provide the wake-up."""
        oid = _make_counter(rt)

        def holder(tx):
            yield tx.write(oid, encode_int(9))
            # Completes but is never committed: the write lock stays.

        def blocked(tx):
            yield tx.write(oid, encode_int(5))

        hold_tid = rt.initiate(holder)
        rt.begin(hold_tid)
        while rt.manager.wait_outcome(hold_tid) is None:
            time.sleep(0.001)

        blocked_tid = rt.initiate(blocked)
        rt.begin(blocked_tid)
        time.sleep(0.05)  # let the worker reach its lock-blocked retry

        start = time.monotonic()
        aborter = threading.Timer(0.05, rt.abort, args=(blocked_tid,))
        aborter.start()
        try:
            assert rt.wait(blocked_tid) == 0
        finally:
            aborter.cancel()
        assert time.monotonic() - start < BUDGET
