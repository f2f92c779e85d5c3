"""The resilience runtime under injected faults.

Validates the repro.resilience layer with the chaos harness:

* the ``lease_expiry_mid_delegation`` scenario — watchdog time travel,
  lease reaping, orphan-abort of a stranded delegatee — survives a full
  crash sweep;
* ``transient_fault_sweep`` — every log-flush step of ``retry_saga``
  fails transiently once; a live retry budget absorbs all of them, a
  zero-budget policy surfaces :class:`RetryExhausted` at every step,
  and either way the durable state stays correct;
* ``coalescer_degrade`` — planned lying fsyncs trip the FlushHealth
  breaker into synchronous flushing and a healthy window re-promotes,
  with the transition trace verified by the independent degradation
  oracle;
* stall diagnostics vs the watchdog — the tids a
  :class:`SchedulerStalledError` names are exactly the tids the
  watchdog's lease-expiry rescue aborts on the same wedge.
"""

import pytest

from repro.chaos import scenarios
from repro.chaos.faults import FaultPlan, LOG_FLUSH
from repro.chaos.oracles import check_degradation
from repro.chaos.scenarios import live_violations
from repro.chaos.stack import ChaosStack
from repro.chaos.sweep import (
    crash_sweep,
    lost_fsyncs,
    probe,
    run_plan,
    transient_fault_sweep,
)
from repro.common.errors import RetryExhausted, TransientIOError
from repro.runtime.coop import SchedulerStalledError

# Total-attempt budgets of the RetryPolicy a run attaches: three
# attempts absorb one injected fault; one attempt is the zero budget
# (``RetryPolicy.zero_budget``: exhausted on the first failure).
LIVE_BUDGET = 3
ZERO_BUDGET = 1


class TestLeaseExpiryMidDelegation:
    def test_clean_run_reaps_delegator_and_orphan(self):
        spec = scenarios.get("lease_expiry_mid_delegation")
        stack = probe(spec).system
        watchdog = stack.resilience.watchdog
        kinds = [record.kind for record in watchdog.reaped]
        assert kinds == ["lease", "orphan"]
        assert watchdog.stats["stall_rescues"] == 1
        assert live_violations(stack) == []

    def test_survives_the_full_crash_sweep(self, keep_tail_modes):
        spec = scenarios.get("lease_expiry_mid_delegation")
        result = crash_sweep(spec, keep_tail_modes=keep_tail_modes)
        assert result.coverage_complete
        assert result.ok, result.describe()


class TestTransientFaultSweep:
    def test_retry_budget_absorbs_every_transient_flush_fault(self):
        spec = scenarios.get("retry_saga")
        result = transient_fault_sweep(spec, retry=LIVE_BUDGET)
        flush_steps = set(probe(spec).steps_of_kind(LOG_FLUSH))
        assert result.coverage_complete
        assert result.covered["transient-flush"] == flush_steps
        # Every injected fault was absorbed: none surfaced to the client.
        assert not result.keys_where(lambda v: v.error is not None)
        assert result.ok, result.describe()

    def test_zero_budget_surfaces_retry_exhausted_at_every_step(self):
        spec = scenarios.get("retry_saga")
        result = transient_fault_sweep(spec, retry=ZERO_BUDGET)
        flush_steps = set(probe(spec).steps_of_kind(LOG_FLUSH))
        assert result.coverage_complete
        assert result.covered["transient-flush"] == flush_steps
        assert result.keys_where(
            lambda v: isinstance(v.error, RetryExhausted)
        ) == flush_steps
        # Even with the error surfaced, the durable state stays correct.
        assert result.ok, result.describe()

    def test_zero_budget_error_is_retry_exhausted(self):
        spec = scenarios.get("retry_saga")
        step = probe(spec).steps_of_kind(LOG_FLUSH)[0]
        outcome = run_plan(
            spec,
            FaultPlan(fail_flush_at=frozenset([step])),
            retry=ZERO_BUDGET,
        )
        assert isinstance(outcome.error, RetryExhausted)
        assert isinstance(outcome.error.last_error, TransientIOError)

    def test_no_policy_surfaces_the_raw_transient_error(self):
        spec = scenarios.get("retry_saga")
        step = probe(spec).steps_of_kind(LOG_FLUSH)[0]
        outcome = run_plan(spec, FaultPlan(fail_flush_at=frozenset([step])))
        assert isinstance(outcome.error, TransientIOError)
        assert outcome.ok, outcome.oracle.describe()

    def test_retry_policy_retries_the_planned_fault_exactly_once(self):
        spec = scenarios.get("retry_saga")
        step = probe(spec).steps_of_kind(LOG_FLUSH)[0]
        outcome = run_plan(
            spec,
            FaultPlan(fail_flush_at=frozenset([step])),
            retry=LIVE_BUDGET,
        )
        assert outcome.error is None
        assert outcome.system.injector.failed_flushes == 1
        assert outcome.system.retry_policy.stats["retries"] == 1


class TestCoalescerDegrade:
    def test_healthy_run_never_degrades(self):
        spec = scenarios.get("coalescer_degrade")
        health = probe(spec).system.resilience.health
        assert all(kind == "ok" for kind, __ in health.outcomes)
        assert health.transitions == []
        report = check_degradation(health)
        assert report.ok, report.describe()

    def test_lying_fsyncs_degrade_then_healthy_window_repromotes(self):
        spec = scenarios.get("coalescer_degrade")
        flush_steps = probe(spec).steps_of_kind(LOG_FLUSH)
        # Two consecutive flushes lie (detected by the durable-count
        # audit): degrade_after=2 trips the breaker; the later honest
        # flushes re-promote (repromote_after=2).
        plan = FaultPlan(
            lose_fsync_at=frozenset(flush_steps[1:3]), label="degrade-trip"
        )
        outcome = run_plan(spec, plan)
        assert outcome.ok, outcome.oracle.describe()
        health = outcome.system.resilience.health
        assert [(t["from"], t["to"]) for t in health.transitions] == [
            ("batching", "degraded"),
            ("degraded", "batching"),
        ]
        assert not health.degraded
        report = check_degradation(health)
        assert report.ok, report.describe()

    def test_degraded_mode_flushes_per_commit(self):
        spec = scenarios.get("coalescer_degrade")
        trace = probe(spec)
        probe_health = trace.system.resilience.health
        flush_steps = trace.steps_of_kind(LOG_FLUSH)
        plan = FaultPlan(
            lose_fsync_at=frozenset(flush_steps[1:3]), label="degrade-trip"
        )
        outcome = run_plan(spec, plan)
        assert outcome.ok, outcome.oracle.describe()
        health = outcome.system.resilience.health
        # While degraded, every enrollment demanded an immediate flush, so
        # the breaker saw strictly more flush outcomes than the batching
        # probe run (which coalesced pairs of commits throughout).
        assert len(health.outcomes) > len(probe_health.outcomes)
        report = check_degradation(health)
        assert report.ok, report.describe()

    def test_survives_the_full_crash_sweep(self, long_budget):
        spec = scenarios.get("coalescer_degrade")
        # Which dimension generators are passed *is* the selection: the
        # quick budget sweeps crashes and lost fsyncs, the long one all.
        result = (
            crash_sweep(spec) if long_budget
            else crash_sweep(spec, variants=(lost_fsyncs,))
        )
        assert result.coverage_complete
        assert set(result.covered) >= {"crash", "lost-fsync"}
        assert result.ok, result.describe()


class TestStallDiagnosticsVsWatchdog:
    """The tids the stall report names are the tids the watchdog reaps."""

    def _wedge(self, stack):
        """Drive deadlock_cascade, then wedge the schedule: t7 is
        lock-blocked behind t8, which completed but never commits."""
        spec = scenarios.get("deadlock_cascade")
        spec.drive(stack)
        assert live_violations(stack) == []
        rt = stack.runtime
        oids = {}

        def setup(tx):
            oids["w"] = yield tx.create(b"w0")

        t_setup = rt.spawn(setup)
        rt.wait(t_setup)
        stack.commit(t_setup)
        w = oids["w"]

        def writer(tx):
            yield tx.write(w, b"w!")

        t8 = rt.spawn(writer)
        rt.wait(t8)  # completed; holds w's write lock; never commits
        t7 = rt.spawn(writer)  # parks on w's lock behind t8
        return t7, t8

    def test_stuck_tids_match_the_watchdog_abort_set(self):
        stack = ChaosStack(resilience={"scan_interval": 4})
        watchdog = stack.resilience.watchdog
        deadlines = stack.resilience.deadlines
        t7, t8 = self._wedge(stack)
        rt = stack.runtime

        # With the watchdog disabled the wedge is a genuine stall: the
        # diagnostics must name the lock-blocked transaction and what it
        # blocks on.
        watchdog.enabled = False
        deadlines.grant_lease(t7, duration=100)
        with pytest.raises(SchedulerStalledError) as info:
            rt.commit(t7)
        stuck = info.value.stalled_tids()
        assert stuck == [t7]
        [row] = info.value.stalled
        assert t8 in row.blocked_on

        # Re-enabled, the same wedge is rescued by lease-expiry time
        # travel — and the reaped set is exactly the named stuck set.
        watchdog.enabled = True
        assert rt.commit(t7) == 0  # aborted by the watchdog, not stalled
        assert watchdog.abort_set() == stuck
        [record] = watchdog.reaped
        assert record.kind == "lease"

        # The innocent lock holder is untouched and free to commit.
        assert stack.commit(t8)
