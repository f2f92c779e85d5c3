"""The EOS S/X latch: modes, S-counter, X-bit anti-starvation."""

import sys
import threading
import time

import pytest

from repro.common.errors import LatchError
from repro.common.latch import Latch, LatchMode


class TestBasicModes:
    def test_shared_acquire_release(self):
        latch = Latch("t")
        assert latch.try_acquire(LatchMode.SHARED)
        assert latch.s_count == 1
        latch.release(LatchMode.SHARED)
        assert latch.s_count == 0

    def test_many_shared_holders(self):
        latch = Latch()
        for __ in range(5):
            assert latch.try_acquire(LatchMode.SHARED)
        assert latch.s_count == 5

    def test_exclusive_excludes_shared(self):
        latch = Latch()
        assert latch.try_acquire(LatchMode.EXCLUSIVE)
        assert latch.x_held
        assert not latch.try_acquire(LatchMode.SHARED)
        assert not latch.try_acquire(LatchMode.EXCLUSIVE)

    def test_shared_excludes_exclusive(self):
        latch = Latch()
        latch.try_acquire(LatchMode.SHARED)
        assert not latch.try_acquire(LatchMode.EXCLUSIVE)

    def test_release_without_hold_raises(self):
        latch = Latch()
        with pytest.raises(LatchError):
            latch.release(LatchMode.SHARED)
        with pytest.raises(LatchError):
            latch.release(LatchMode.EXCLUSIVE)

    def test_context_manager(self):
        latch = Latch()
        with latch.held(LatchMode.EXCLUSIVE):
            assert latch.x_held
        assert not latch.x_held

    def test_context_manager_releases_on_exception(self):
        latch = Latch()
        with pytest.raises(RuntimeError):
            with latch.held(LatchMode.SHARED):
                raise RuntimeError("boom")
        assert latch.s_count == 0


class TestXBitAntiStarvation:
    """The X-bit blocks *new* readers while a writer waits (section 4.1)."""

    def test_waiting_writer_blocks_new_readers(self):
        latch = Latch()
        latch.try_acquire(LatchMode.SHARED)  # an existing reader

        writer_done = threading.Event()

        def writer():
            latch.acquire(LatchMode.EXCLUSIVE)
            writer_done.set()
            latch.release(LatchMode.EXCLUSIVE)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        # Wait until the writer is registered as waiting (X-bit set).
        deadline = time.time() + 2
        while not latch.x_bit and time.time() < deadline:
            time.sleep(0.001)
        assert latch.x_bit
        # A new reader must be refused while the X-bit is up.
        assert not latch.try_acquire(LatchMode.SHARED)
        # The existing reader drains; the writer gets in.
        latch.release(LatchMode.SHARED)
        assert writer_done.wait(timeout=2)
        thread.join(timeout=2)
        # After the writer leaves, readers flow again.
        assert latch.try_acquire(LatchMode.SHARED)

    def test_timeout_expires(self):
        latch = Latch()
        latch.try_acquire(LatchMode.EXCLUSIVE)
        assert latch.acquire(LatchMode.SHARED, timeout=0.01) is False
        assert latch.acquire(LatchMode.EXCLUSIVE, timeout=0.01) is False

    def test_x_bit_cleared_after_timeout(self):
        latch = Latch()
        latch.try_acquire(LatchMode.SHARED)
        assert latch.acquire(LatchMode.EXCLUSIVE, timeout=0.01) is False
        assert not latch.x_bit
        # Readers are admitted again once no writer waits.
        assert latch.try_acquire(LatchMode.SHARED)


class TestALockUntilSomeoneWaits:
    def test_no_condition_until_a_thread_has_to_wait(self):
        latch = Latch("frame:7")
        for mode in LatchMode:
            with latch.held(mode):
                pass
        assert latch._cond is None

    def test_no_wakeup_is_lost_under_a_short_switch_interval(self):
        """Eight threads, more than there are cores, trade S and X on one
        latch while the interpreter switches every 10 µs.  A release
        that skipped a counted sleeper would leave one asleep past its
        timeout; a lost update would show in the counter."""
        latch = Latch()
        rounds, threads_n = 200, 8
        counter = [0]
        errors = []

        def worker(index):
            for number in range(rounds):
                exclusive = (index + number) % 3 == 0
                mode = LatchMode.EXCLUSIVE if exclusive else LatchMode.SHARED
                if not latch.acquire(mode, timeout=5):
                    errors.append(f"thread {index} timed out")
                    return
                try:
                    if exclusive:
                        seen = counter[0]
                        time.sleep(0)
                        counter[0] = seen + 1
                finally:
                    latch.release(mode)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert counter[0] == sum(
            (index + number) % 3 == 0
            for index in range(threads_n)
            for number in range(rounds)
        )
        assert (latch.s_count, latch.x_held, latch._sleepers) == (0, False, 0)


class TestConcurrency:
    def test_mutual_exclusion_under_contention(self):
        """No two writers (and no reader+writer) overlap."""
        latch = Latch()
        counters = {"value": 0, "max_seen": 0}
        errors = []

        def writer():
            for __ in range(50):
                latch.acquire(LatchMode.EXCLUSIVE)
                try:
                    counters["value"] += 1
                    if counters["value"] != 1:
                        errors.append("overlapping exclusive holders")
                    counters["value"] -= 1
                finally:
                    latch.release(LatchMode.EXCLUSIVE)

        def reader():
            for __ in range(50):
                if latch.acquire(LatchMode.SHARED, timeout=2):
                    try:
                        if counters["value"] != 0:
                            errors.append("reader overlapped a writer")
                    finally:
                        latch.release(LatchMode.SHARED)

        threads = [threading.Thread(target=writer) for __ in range(3)]
        threads += [threading.Thread(target=reader) for __ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []
        assert latch.s_count == 0 and not latch.x_held
