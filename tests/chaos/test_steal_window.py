"""The steal window: sweeps over a pool smaller than its working set.

Every other registered scenario fits in its pool, so *steal* — an
uncommitted dirty page evicted mid-transaction — never happened under a
sweep.  ``steal_window`` (flat WAL) and ``steal_window_sharded`` (two
segments) run one-object-per-page values and a three-page large object
through three frames; this file holds them to 0 failures with complete
coverage under every fault dimension, and shows the sweeps go red when
the write-ahead gate is broken either way: never consulted
(``wal_ordering_broken``) or always answering "already durable"
(``wal_gate_stuck``) — or sound, and fed stamps that mean nothing
because a forward site installed before it logged
(``update_logged_after_install``).
"""

import pytest

from repro.chaos import scenarios
from repro.chaos.faults import LOG_FLUSH, PAGE_WRITE
from repro.chaos.sweep import crash_sweep, probe, transient_fault_sweep
from tests.chaos.mutations import (
    update_logged_after_install,
    wal_gate_stuck,
    wal_ordering_broken,
)

ENGINES = pytest.mark.parametrize(
    "name", ["steal_window", "steal_window_sharded"]
)


def _pools(storage):
    shards = getattr(storage, "shards", None)
    return [storage.pool] if shards is None else [s.pool for s in shards]


@ENGINES
class TestStealWindowSweeps:
    def test_steal_window_probe_really_steals(self, name):
        """The clean run evicts, forces the log for some evictions and
        not for others — both sides of the gate are on the swept path."""
        trace = probe(scenarios.get(name))
        pools = _pools(trace.system.storage)
        evictions = sum(pool.evictions for pool in pools)
        forces = sum(pool.wal_forces for pool in pools)
        assert 0 < forces < evictions
        assert len(trace.steps_of_kind(PAGE_WRITE)) > forces
        # In flight at the end: the power cut finds a loser to undo.
        live = [
            td for td in trace.system.manager.table
            if not td.status.is_terminated
        ]
        assert len(live) == 1

    def test_steal_window_every_crash_point_survived(
        self, name, keep_tail_modes
    ):
        result = crash_sweep(
            scenarios.get(name), keep_tail_modes=keep_tail_modes
        )
        assert result.ok, result.describe()
        assert result.coverage_complete
        assert result.covered["crash"] == set(
            range(1, result.total_steps + 1)
        )
        # Torn page writes, lied fsyncs and failpoints were all swept.
        assert {"torn", "lost-fsync", "failpoint"} <= set(result.covered)

    @pytest.mark.parametrize("retry", [None, 3])
    def test_steal_window_every_transient_flush_fault_survived(
        self, name, retry
    ):
        spec = scenarios.get(name)
        result = transient_fault_sweep(spec, retry=retry)
        assert result.ok, result.describe()
        assert result.coverage_complete
        assert result.covered["transient-flush"] == set(
            probe(spec).steps_of_kind(LOG_FLUSH)
        )


class TestStealWindowSensitivity:
    @ENGINES
    @pytest.mark.parametrize("mutation", [
        wal_gate_stuck, wal_ordering_broken, update_logged_after_install,
    ])
    def test_steal_window_catches_a_broken_gate(self, name, mutation):
        with mutation():
            result = crash_sweep(scenarios.get(name), stop_at_first=True)
        assert result.failures, (
            f"sweep passed under {mutation.__name__}: {name} is not"
            " exercising the write-ahead gate"
        )
        artifact = result.failures[0]
        assert any(v.startswith("state") for v in artifact.violations)
        assert f"repro.chaos.replay {name}" in artifact.replay

    @ENGINES
    def test_steal_window_is_clean_without_mutations(self, name):
        result = crash_sweep(scenarios.get(name), stop_at_first=True)
        assert result.ok, result.describe()
