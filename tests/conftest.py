"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.acta.history import HistoryRecorder
from repro.common.codec import decode_int, encode_int
from repro.core.manager import TransactionManager
from repro.runtime.coop import CooperativeRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.storage.log import WorkflowRecord

try:  # pragma: no cover - presence depends on the environment
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

# Per-test wall-clock ceiling.  CI installs pytest-timeout and passes
# --timeout on the command line; environments without the plugin get a
# SIGALRM-based fallback so a hung test still dies instead of wedging
# the whole run.  REPRO_TEST_TIMEOUT=0 disables the fallback.
_TEST_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        if (
            _TEST_TIMEOUT <= 0
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return

        def _on_alarm(signum, frame):
            raise TimeoutError(
                f"test exceeded the {_TEST_TIMEOUT}s per-test ceiling"
                f" (REPRO_TEST_TIMEOUT)"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(_TEST_TIMEOUT)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def manager():
    """A fresh transaction manager over in-memory storage."""
    return TransactionManager()


@pytest.fixture
def rt():
    """A deterministic cooperative runtime (round-robin)."""
    return CooperativeRuntime()


@pytest.fixture
def seeded_rt():
    """A deterministic cooperative runtime with a fixed random seed."""
    return CooperativeRuntime(seed=1234)


@pytest.fixture
def threaded_rt():
    """A threaded runtime; closed after the test."""
    runtime = ThreadedRuntime(watchdog_interval=0.01, poll_timeout=0.005)
    yield runtime
    runtime.close()


@pytest.fixture
def recorder(rt):
    """A history recorder attached to the cooperative runtime's manager."""
    return HistoryRecorder(rt.manager)


# -- plain helpers (imported via conftest namespace in tests) ------------


def make_counters(runtime, count, initial=0):
    """Create ``count`` integer objects via a setup transaction."""

    def setup(tx):
        oids = []
        for index in range(count):
            oid = yield tx.create(encode_int(initial), name=f"c{index}")
            oids.append(oid)
        return oids

    result = runtime.run(setup)
    assert result.committed
    return result.value


def read_counter(runtime, oid):
    """Read one integer object via a fresh transaction."""

    def body(tx):
        return decode_int((yield tx.read(oid)))

    result = runtime.run(body)
    assert result.committed
    return result.value


def incrementer(oid, delta=1, fail=False):
    """A body that increments ``oid`` by ``delta`` (optionally aborting)."""

    def body(tx):
        value = decode_int((yield tx.read(oid)))
        yield tx.write(oid, encode_int(value + delta))
        if fail:
            yield tx.abort()
        return value + delta

    return body


def workflow_records(records, wid=None):
    """The workflow records in ``records`` (optionally one
    wid's), in order."""
    return [
        record for record in records
        if isinstance(record, WorkflowRecord)
        and (wid is None or record.wid == wid)
    ]
