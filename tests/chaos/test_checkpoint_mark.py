"""The checkpoint mark: restart redo bounded by the last durable marker.

No other registered scenario takes a checkpoint that *keeps* the log
(``checkpoint_window``'s truncates it, so every surviving record is above
its mark anyway).  ``checkpoint_mark`` (flat WAL) and
``checkpoint_mark_sharded`` (two segments, one marker each) do: commits
below the mark, a transaction active across it, a commit landing between
the pool flush and the marker, commits and a page write-back above it.
This file holds them to 0 failures with complete coverage under every
fault dimension, and shows the sweeps go red when the bound is wrong any
of three ways: redo starting too high (``redo_lwm_too_high`` — which the
older ``checkpoint_window`` and ``steal_window`` sweeps must see too),
the mark read after the flush instead of before it
(``redo_mark_read_after_flush``), a torn page reset without voiding
the mark (``torn_page_keeps_mark``), or redo under the void mark that
reads only the tail (``void_mark_skips_prefix``): b, on the torn page,
was last written below the restart point.  Above the mark redo installs each
object once, at its newest image; the one way that can be wrong — the
oldest instead (``redo_keeps_oldest_image``) — turns these sweeps and
the ``steal_window`` ones red as well, and so does an index that finds
those images without the compensation records
(``redo_index_skips_compensations``).

Since PR 22 a rewrite marks its frame dirty in one place — the single
unpin that ends ``write_object`` — so that unpin gets a mutation of its
own (``write_unpinned_clean``).  The registered scenarios rewrite pages
their creates already dirtied, which hides it from ``checkpoint_mark``;
``rewrite_then_checkpoint`` below (not registered: the sweep goldens
list registered scenarios) rewrites a *clean* page and checkpoints
again, and its crash sweep names the plans that lose the image.

Since PR 17 the same checkpoint moves the log's *restart point*: every
restart in these sweeps opens a new log at the hint and sees only the
tail.  The transaction active across the checkpoint is what holds the
point below the mark; a point that ignores it
(``restart_point_ignores_active``) leaves restart nothing to undo it
from, and the sweeps must go red.
"""

import pytest

from repro.chaos import scenarios
from repro.chaos.faults import LOG_FLUSH, PAGE_WRITE, FaultPlan
from repro.chaos.scenarios import ScenarioSpec
from repro.chaos.sweep import (
    crash_sweep,
    probe,
    run_plan,
    transient_fault_sweep,
)
from repro.storage.log import (
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    UpdateRecord,
)
from tests.chaos.mutations import (
    redo_index_skips_compensations,
    redo_keeps_oldest_image,
    redo_lwm_too_high,
    redo_mark_read_after_flush,
    restart_point_ignores_active,
    torn_page_keeps_mark,
    void_mark_skips_prefix,
    write_unpinned_clean,
)

ENGINES = pytest.mark.parametrize(
    "name", ["checkpoint_mark", "checkpoint_mark_sharded"]
)


def _segments(storage):
    shards = getattr(storage, "shards", None)
    return [storage.log] if shards is None else [s.log for s in shards]


@ENGINES
class TestCheckpointMarkSweeps:
    def test_the_probe_lands_a_commit_between_flush_and_marker(self, name):
        """In every segment: a marker whose mark is below it, and — in
        the segment the interleaved transaction committed in — a commit
        record above the mark and below the marker."""
        trace = probe(scenarios.get(name))
        between = 0
        for log in _segments(trace.system.storage):
            records = log.records()
            (marker,) = [
                r for r in records if isinstance(r, CheckpointRecord)
            ]
            assert 0 < marker.redo_lsn < marker.lsn.value
            assert log.redo_lsn == marker.redo_lsn
            between += sum(
                isinstance(r, CommitRecord)
                and marker.redo_lsn < r.lsn.value < marker.lsn.value
                for r in records
            )
        assert between == 1
        # A page write-back after the marker: the torn dimension reaches
        # pages whose contents the mark vouches for.
        writes = trace.steps_of_kind(PAGE_WRITE)
        marker_flush = max(
            step for step in trace.steps_of_kind(LOG_FLUSH)
            if step < writes[-1]
        )
        assert writes[0] < marker_flush < writes[-1]

    def test_every_crash_point_survived(self, name, keep_tail_modes):
        result = crash_sweep(
            scenarios.get(name), keep_tail_modes=keep_tail_modes
        )
        assert result.ok, result.describe()
        assert result.coverage_complete
        assert result.covered["crash"] == set(
            range(1, result.total_steps + 1)
        )
        assert {"torn", "lost-fsync", "failpoint"} <= set(result.covered)

    @pytest.mark.parametrize("retry", [None, 3])
    def test_every_transient_flush_fault_survived(self, name, retry):
        spec = scenarios.get(name)
        result = transient_fault_sweep(spec, retry=retry)
        assert result.ok, result.describe()
        assert result.coverage_complete

    def test_restart_redoes_from_the_mark_and_undoes_below_it(self, name):
        """The clean run, power-cut at the end: redo installs only what
        lies above the marks; the loser's before image lies below."""
        verdict = run_plan(scenarios.get(name), FaultPlan())
        assert verdict.ok, verdict.all_violations
        report = verdict.restarted.report
        assert report.redo_from > 0
        logged = sum(
            isinstance(r, (UpdateRecord, CompensationRecord))
            for r in verdict.restarted.durable_records
        )
        assert 0 < report.redone < logged
        assert report.undone == 1
        # ... which is what held the restart point down: the restarted
        # log decoded from the loser's first update, not from the start.
        (loser,) = report.losers
        assert report.restart_from == min(
            r.lsn.value
            for r in verdict.restarted.durable_records
            if isinstance(r, UpdateRecord) and r.tid == loser
        ) > 1
        assert report.scanned < len(verdict.restarted.durable_records)


class TestCheckpointMarkSensitivity:
    @pytest.mark.parametrize("name", [
        "checkpoint_window",
        "steal_window",
        "steal_window_sharded",
        "checkpoint_mark",
        "checkpoint_mark_sharded",
    ])
    def test_redo_starting_too_high_is_caught(self, name):
        with redo_lwm_too_high():
            result = crash_sweep(scenarios.get(name), stop_at_first=True)
        assert result.failures, (
            f"sweep passed with redo starting at the log's end: {name}"
            " leaves nothing for restart to repeat"
        )
        artifact = result.failures[0]
        assert any(v.startswith("state") for v in artifact.violations)
        assert f"repro.chaos.replay {name}" in artifact.replay

    @pytest.mark.parametrize("name", [
        "steal_window",
        "steal_window_sharded",
        "checkpoint_mark",
        "checkpoint_mark_sharded",
    ])
    def test_redo_keeping_the_oldest_image_is_caught(self, name):
        """Each of these writes some object twice above a mark and cuts
        the power with the later image still off its page."""
        with redo_keeps_oldest_image():
            result = crash_sweep(scenarios.get(name))
        assert result.failures
        assert any(
            v.startswith("state")
            for artifact in result.failures
            for v in artifact.violations
        )

    @pytest.mark.parametrize("name", [
        "steal_window",
        "steal_window_sharded",
        "checkpoint_mark",
        "checkpoint_mark_sharded",
    ])
    def test_a_redo_index_that_skips_compensations_is_caught(self, name):
        """Restart undoes a loser by compensation records; read off an
        index that never saw them, the next restart's redo puts the
        undone after images back (the sweep's second recovery pass
        changes the store), and ``steal_window``'s own aborts leave
        states no committed history gives."""
        with redo_index_skips_compensations():
            result = crash_sweep(scenarios.get(name), stop_at_first=True)
        assert result.failures
        assert any(
            v.startswith(("state", "idempotence"))
            for v in result.failures[0].violations
        )

    @ENGINES
    def test_a_mark_read_after_the_flush_is_caught(self, name):
        """Why ``redo_lsn`` is read before ``flush_all``: read after, it
        covers the interleaved commit, whose page only the log holds."""
        with redo_mark_read_after_flush():
            result = crash_sweep(scenarios.get(name))
        assert result.failures
        assert all(
            any(v.startswith("state") for v in artifact.violations)
            for artifact in result.failures
        )

    @ENGINES
    def test_a_torn_page_that_keeps_the_mark_is_caught(self, name):
        with torn_page_keeps_mark():
            result = crash_sweep(scenarios.get(name))
        assert result.failures
        assert {a.plan["label"].split("@")[0] for a in result.failures} == {
            "torn"
        }

    @ENGINES
    def test_a_void_mark_that_skips_the_prefix_is_caught(self, name):
        with void_mark_skips_prefix():
            result = crash_sweep(scenarios.get(name))
        assert result.failures
        assert {a.plan["label"].split("@")[0] for a in result.failures} == {
            "torn"
        }

    @ENGINES
    def test_a_restart_point_that_ignores_the_active_is_caught(self, name):
        """Why the point is a minimum and not just the mark: t2 is
        active across the checkpoint and its before image lies below."""
        with restart_point_ignores_active():
            result = crash_sweep(scenarios.get(name))
        assert result.failures
        assert all(
            any(v.startswith("state: object 5") for v in artifact.violations)
            for artifact in result.failures
        )

    @ENGINES
    def test_clean_without_mutations(self, name):
        result = crash_sweep(scenarios.get(name), stop_at_first=True)
        assert result.ok, result.describe()


def _rewrite_then_checkpoint(stack):
    """Create, checkpoint (the page is clean), rewrite ``a``, checkpoint
    again (its mark passes the rewrite's record), rewrite ``b``."""
    rt, manager = stack.runtime, stack.manager
    oids = {}

    def setup(tx):
        for name in ("a", "b"):
            oids[name] = yield tx.create(name.encode() + b"0")

    def write(tx, oid, value):
        yield tx.write(oid, value)

    stack.note_ack(rt.run(setup).tid)
    stack.intent.oids = dict(oids)
    manager.checkpoint()
    stack.commit(rt.spawn(write, (oids["a"], b"a1")))
    manager.checkpoint()
    stack.commit(rt.spawn(write, (oids["b"], b"b2")))
    stack.intent.expected_clean = {
        oids["a"].value: b"a1", oids["b"].value: b"b2",
    }


class TestTheOneUnpinMarksTheFrame:
    """``write_object``'s single ``unpin(dirty=True)`` is the only thing
    that marks a rewritten frame: clean, the second checkpoint's flush
    skips the frame, its mark passes the record, and every restart from
    that marker on loses the committed ``a1``."""

    # The crash plans from the second marker's flush on (flat: step 17
    # of 20; two segments: step 27 of 30).
    LOSING = {
        None: {"crash@17", "crash@18", "crash@19"},
        2: {"crash@27", "crash@28", "crash@29"},
    }

    @staticmethod
    def _spec(n_shards):
        return ScenarioSpec(
            name="rewrite_then_checkpoint",
            description="a rewrite of a clean page between two checkpoints",
            drive=_rewrite_then_checkpoint,
            n_shards=n_shards,
        )

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_a_clean_unpin_after_a_rewrite_is_caught(self, n_shards):
        with write_unpinned_clean():
            result = crash_sweep(self._spec(n_shards))
        crashes = {
            a.plan["label"] for a in result.failures
            if a.plan["label"].startswith("crash@")
        }
        assert crashes == self.LOSING[n_shards]
        assert all(
            any(
                v.startswith("state: object 1: recovered b'a0'")
                for v in artifact.violations
            )
            for artifact in result.failures
        )

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_clean_without_the_mutation(self, n_shards, keep_tail_modes):
        result = crash_sweep(
            self._spec(n_shards), keep_tail_modes=keep_tail_modes
        )
        assert result.ok, result.describe()
        assert result.coverage_complete
