"""The EOS shared/exclusive latch (paper section 4.1).

EOS latches guard short critical sections on cached objects and control
structures.  The paper specifies three properties this module reproduces:

* two modes, **shared (S)** and **exclusive (X)**;
* an **S-counter** counting current shared holders;
* an **X-bit** set while a writer is waiting, which *blocks new readers*
  from setting the latch, "thus preventing starvation of update
  transactions".

EOS implements latches with an atomic test-and-set spin; under CPython
spinning across threads is wasteful, so a latch is a plain
``threading.Lock`` over its counters until some thread has to wait: the
first waiter builds a condition variable on that lock, and a release
notifies only while a waiter is counted.  The protocol — who may enter
when, and the anti-starvation rule — is identical, and that is what the
paper's figure-level claims depend on.

A non-blocking ``try_acquire`` is also provided; the deterministic
cooperative runtime uses it so that latch waits become scheduler yields.
"""

from __future__ import annotations

import enum
import threading

from repro.common.errors import LatchError


class LatchMode(enum.Enum):
    """Latch acquisition modes."""

    SHARED = "S"
    EXCLUSIVE = "X"


class Latch:
    """An S/X latch with an S-counter and a writer-waiting X-bit.

    Invariants (checked by tests and exposed via properties):

    * ``s_count >= 0``;
    * ``x_held`` implies ``s_count == 0``;
    * while ``x_waiting > 0`` (the X-bit), no *new* reader may enter —
      readers already holding the latch drain normally.
    """

    __slots__ = (
        "name", "_mutex", "_cond", "_sleepers",
        "_s_count", "_x_held", "_x_waiting",
    )

    def __init__(self, name=""):
        self.name = name
        self._mutex = threading.Lock()
        self._cond = None  # built by the first thread that has to wait
        self._sleepers = 0  # threads waiting on ``_cond`` right now
        self._s_count = 0
        self._x_held = False
        self._x_waiting = 0

    @property
    def s_count(self):
        """Number of shared holders right now."""
        return self._s_count

    @property
    def x_held(self):
        """Whether an exclusive holder is inside."""
        return self._x_held

    @property
    def x_bit(self):
        """The X-bit: true while at least one writer is waiting."""
        return self._x_waiting > 0

    def _may_enter(self, mode):
        if mode is LatchMode.SHARED:
            return not self._x_held and self._x_waiting == 0
        return not self._x_held and self._s_count == 0

    def _enter(self, mode):
        if mode is LatchMode.SHARED:
            self._s_count += 1
        else:
            self._x_held = True

    def try_acquire(self, mode):
        """Attempt to set the latch without blocking.

        Returns ``True`` and enters the latch if permitted, else ``False``.
        A shared attempt fails while the X-bit is set, matching EOS's
        anti-starvation rule.
        """
        with self._mutex:
            if not self._may_enter(mode):
                return False
            self._enter(mode)
            return True

    def acquire(self, mode, timeout=None):
        """Set the latch in ``mode``, blocking until permitted.

        Returns ``True`` on success, ``False`` on timeout.  An exclusive
        waiter raises the X-bit for the duration of its wait.
        """
        with self._mutex:
            if self._may_enter(mode):
                self._enter(mode)
                return True
            if self._cond is None:
                self._cond = threading.Condition(self._mutex)
            exclusive = mode is LatchMode.EXCLUSIVE
            if exclusive:
                self._x_waiting += 1
            self._sleepers += 1
            try:
                acquired = self._cond.wait_for(
                    lambda: self._may_enter(mode), timeout=timeout
                )
                if acquired:
                    self._enter(mode)
                return acquired
            finally:
                self._sleepers -= 1
                if exclusive:
                    self._x_waiting -= 1
                    # Our departure may clear the X-bit and unblock readers.
                    if self._sleepers:
                        self._cond.notify_all()

    def release(self, mode):
        """Unset the latch previously set in ``mode``."""
        with self._mutex:
            if mode is LatchMode.SHARED:
                if self._s_count <= 0:
                    raise LatchError(
                        f"latch {self.name!r}: shared release without holder"
                    )
                self._s_count -= 1
            else:
                if not self._x_held:
                    raise LatchError(
                        f"latch {self.name!r}: exclusive release without holder"
                    )
                self._x_held = False
            if self._sleepers:
                self._cond.notify_all()

    def held(self, mode):
        """Context manager: hold the latch in ``mode`` for the block."""
        return _Held(self, mode)

    def __repr__(self):
        return (
            f"Latch({self.name!r}, s={self._s_count},"
            f" x={self._x_held}, x_bit={self.x_bit})"
        )


class _Held:
    """What :meth:`Latch.held` returns: acquire on entry, release on exit."""

    __slots__ = ("latch", "mode")

    def __init__(self, latch, mode):
        self.latch = latch
        self.mode = mode

    def __enter__(self):
        if not self.latch.acquire(self.mode):
            raise LatchError(f"latch {self.latch.name!r}: acquire timed out")
        return self.latch

    def __exit__(self, *exc_info):
        self.latch.release(self.mode)
