"""The one sweep harness: probe → enumerate → run → judge → replay.

Every fault sweep in the tree — single-site crash points, durable
workflow crashes, cluster message faults and failovers — is the same
five steps, and this module owns all five:

1. **Probe** — :func:`probe` drives a scenario under a plan (by default
   the plan that injects nothing).  The injector numbers every I/O and
   message step and counts every semantic failpoint; that
   :class:`Trace` *is* the universe a sweep must cover.  A probe of the
   fault-free plan also sanity-checks the scenario: a clean run that
   misses its declared state raises :class:`ScenarioBrokenError`.
2. **Enumerate** — a *fault dimension* is a generator of
   :class:`Case`\\ s ``(dimension, key, plan, detail)`` over a trace:
   :func:`crash_steps`, :func:`torn_pages`, :func:`lost_fsyncs`,
   :func:`failpoints`, :func:`transient_flushes` here, the message,
   site-crash, partition, failover and churn dimensions in
   :mod:`repro.cluster.sweep`.  Adding a dimension is one generator::

       def torn_pages(trace):
           for step in trace.steps_of_kind(PAGE_WRITE):
               yield Case(
                   "torn", step,
                   FaultPlan(torn_page_at=step, label=f"torn@{step}"),
               )

   Generators that take a ``base`` plan compose: a kill swept over the
   trace of a blackout is the product of two of them.
3. **Run + judge** — :func:`run_plan` builds the system, drives it,
   and hands it to the scenario's kind for repair/restart and judgment.
   A kind is three methods on the scenario spec — ``build(plan,
   **options)``, ``drive(system)``, ``judge(verdict)`` — plus
   ``probed(verdict)`` for what a probe must do after its drive and
   ``surfaced``, the errors a drive may hand its client instead of
   absorbing.  They are implemented once each: single-site
   (:class:`repro.chaos.scenarios.ScenarioSpec`), durable workflows
   (:class:`repro.chaos.workflow.WorkflowScenarioSpec`) and clusters
   (:class:`repro.cluster.scenarios.ClusterScenarioSpec`).  All return
   the one :class:`Verdict`.
4. **Account** — :func:`sweep` is the only loop: it counts runs, records
   per dimension which keys were enumerated (``universe``) and which
   ran (``covered``), and honours ``stop_at_first``.  Tests assert
   ``covered == universe`` and, for crash sweeps, that the covered
   steps are exactly ``{1..N}`` of the probe — silently skipped crash
   points are impossible.
5. **Replay** — every failing run, of every kind, yields a
   :class:`FailureArtifact` whose ``replay`` is a complete one-command
   recipe: scenario, plan, and the run options the driver was given.

Scenarios of every kind register in the one registry here
(:func:`register` / :func:`get` / :func:`names`), which is what the
replay command line resolves names against.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.chaos.faults import (
    LOG_FLUSH,
    NET_MSG,
    PAGE_WRITE,
    CrashPoint,
    FaultPlan,
)
from repro.chaos.oracles import check_idempotent, evaluate_recovery


class ScenarioBrokenError(AssertionError):
    """The scenario's clean run does not match its declared intent."""


# ---------------------------------------------------------------------------
# the scenario registry
# ---------------------------------------------------------------------------

SCENARIOS = {}


def register(spec):
    """Register a scenario spec (of any kind) under its name."""
    SCENARIOS[spec.name] = spec
    return spec


def registers(spec_class):
    """The decorator that registers drive functions as ``spec_class``
    scenarios: ``@scenario(name, description, **spec_fields)``."""

    def scenario(name, description, **fields):
        def wrap(drive):
            register(spec_class(
                name=name, description=description, drive=drive, **fields
            ))
            return drive

        return wrap

    return scenario


def get(name):
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None


def names(kind=None):
    """Registered scenario names, optionally of one ``kind`` only."""
    return sorted(
        name
        for name, spec in SCENARIOS.items()
        if kind is None or spec.kind == kind
    )


# ---------------------------------------------------------------------------
# the types every kind shares
# ---------------------------------------------------------------------------


class Trace:
    """The numbered step universe of one probe run."""

    def __init__(self, system):
        self.system = system  # the driven ChaosStack / Cluster
        self.steps = list(system.injector.trace)
        self.failpoints = dict(system.injector.failpoint_counts)

    @property
    def step_count(self):
        return len(self.steps)

    def steps_of_kind(self, kind):
        return [step.number for step in self.steps if step.kind == kind]

    @property
    def messages(self):
        """``[(number, "src->dst:kind"), ...]`` of the fabric messages."""
        return [
            (step.number, step.detail)
            for step in self.steps
            if step.kind == NET_MSG
        ]


@dataclass(frozen=True)
class Case:
    """One enumerated fault: what a dimension generator yields."""

    dimension: str
    key: object  # the point in the dimension's universe this plan covers
    plan: FaultPlan
    detail: str = ""


@dataclass
class Verdict:
    """One faulted run, repaired or restarted and judged — of any kind."""

    scenario: str
    plan: FaultPlan
    system: object  # what was driven: the (dead) ChaosStack, or the Cluster
    judgment: str = ""  # which judgment the kind ran (see each ``judge``)
    crash: CrashPoint = None  # the planned crash that ended the drive
    # An error the drive handed to its client instead of absorbing (a
    # transient fault with no retry budget left, a console that lost
    # contact with a crashed coordinator).  The run is still judged: an
    # error surfaced to the client never excuses a wrong durable state.
    error: object = None
    oracle: object = None  # OracleReport of the reference oracles
    violations: list = field(default_factory=list)  # the judge's own findings
    # What the judge observed, by kind.
    restarted: object = None  # RestartedSystem (ChaosStack kinds)
    status: object = None  # workflow: terminal ExecutionStatus, if resumed
    resumed: bool = False  # workflow: recovery handed back an in-flight run
    converged: bool = None  # cluster: did the repaired cluster quiesce
    analyses: dict = field(default_factory=dict)  # cluster: site -> LogAnalysis
    # Where the sweep that ran it placed it.
    dimension: str = ""
    key: object = None
    detail: str = ""

    @property
    def all_violations(self):
        found = list(self.oracle.violations) if self.oracle is not None else []
        return found + self.violations

    @property
    def ok(self):
        return not self.all_violations

    def describe(self):
        state = "OK" if self.ok else "FAILED"
        extra = f" [{self.detail}]" if self.detail else ""
        lines = [f"{state} {self.plan.describe()}{extra}"]
        return "\n".join(lines + [f"  - {v}" for v in self.all_violations])


@dataclass
class FailureArtifact:
    """A reproducible counterexample: plan + violations + replay recipe."""

    scenario: str
    plan: dict
    violations: list
    crash_step: object = None
    replay: str = ""
    judgment: str = ""
    detail: str = ""

    def to_json(self):
        return json.dumps(asdict(self), indent=2, default=str)


@dataclass
class SweepResult:
    """Everything one sweep covered, and everything it found."""

    scenario: str
    total_steps: int = 0  # the probe's numbered steps (0: no trace given)
    universe: dict = field(default_factory=dict)  # dimension -> keys enumerated
    covered: dict = field(default_factory=dict)  # dimension -> keys run
    runs: int = 0
    verdicts: list = field(default_factory=list)  # every run, in order
    failures: list = field(default_factory=list)  # FailureArtifacts

    @property
    def ok(self):
        return not self.failures

    @property
    def coverage_complete(self):
        """Did every enumerated case run — and did a crash sweep hit
        *every* numbered step of its probe, whatever was enumerated?"""
        if "crash" in self.universe and self.covered["crash"] != set(
            range(1, self.total_steps + 1)
        ):
            return False
        return self.covered == self.universe

    def keys_where(self, predicate):
        """Keys of the runs whose verdict satisfies ``predicate``."""
        return {v.key for v in self.verdicts if predicate(v)}

    def describe(self):
        coverage = ", ".join(
            f"{len(self.covered[name])}/{len(keys)} {name}"
            for name, keys in self.universe.items()
        )
        lines = [
            f"sweep of {self.scenario}: {self.runs} runs, {coverage},"
            f" {len(self.failures)} failures"
        ]
        for artifact in self.failures:
            lines.append(f"  plan: {artifact.plan}")
            lines += [f"    - {v}" for v in artifact.violations]
            lines.append(f"    replay: {artifact.replay}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _drive(spec, plan, instrument, options):
    """Build, instrument and drive; planned faults end the drive quietly."""
    system = spec.build(plan, **options)
    if instrument is not None:
        instrument(system)
    verdict = Verdict(scenario=spec.name, plan=plan, system=system)
    try:
        spec.drive(system)
    except CrashPoint as fired:
        verdict.crash = fired
    except spec.surfaced as error:
        verdict.error = error
    return verdict


def probe(spec, plan=None, **options):
    """Drive ``spec`` under ``plan`` and return the run's :class:`Trace`.

    The default plan injects nothing, so the trace is the step universe
    of the clean run — and the kind's ``probed`` hook refuses a scenario
    whose clean run misses its declared outcome
    (:class:`ScenarioBrokenError`): sweeping it would make every verdict
    meaningless.  Second-order sweeps probe under a fault plan instead:
    the steps after a coordinator kill include the takeover's own
    traffic, which no fault-free run ever sends.
    """
    verdict = _drive(spec, plan if plan is not None else FaultPlan(), None,
                     options)
    spec.probed(verdict)
    return Trace(verdict.system)


def run_plan(spec, plan, instrument=None, **options):
    """One faulted run: build, drive, repair or restart, judge.

    ``options`` are the kind's run options (a retry budget, a shard
    count) and go to ``spec.build``.  ``instrument`` is called with the
    freshly built system before anything drives it — the hook
    ``repro.obs`` (and the replay CLI's ``--metrics-out``/``--trace-out``)
    uses to attach observers.  The verdict comes back judged: its
    ``judgment`` names which judgment the kind selected for this plan.
    """
    verdict = _drive(spec, plan, instrument, options)
    spec.judge(verdict)
    return verdict


def judge_recovery(verdict):
    """Power cut, restart recovery, and the reference oracle battery.

    Runs that completed (lost-fsync plans, surfaced errors) get their
    power cut here: an injected lie only matters once the unflushed tail
    is actually lost.  A sharded stack is judged on its segments merged
    by LSN, as the restart found them.
    """
    stack = verdict.system
    verdict.restarted = stack.restart()
    verdict.oracle = evaluate_recovery(
        verdict.restarted,
        stack.intent,
        stack.durable_acks,
        label=f"{verdict.scenario}: {verdict.plan.describe()}",
    )
    check_idempotent(verdict.restarted, verdict.oracle)


# How each run option is spelled on the replay command line.
_REPLAY_FLAGS = {
    "retry": "--retry {}",
    "n_shards": "--storage sharded --shards {}",
}


def _replay_flags(options):
    """Run options as replay CLI flags; KeyError for one with no spelling."""
    return "".join(
        " " + _REPLAY_FLAGS[name].format(value)
        for name, value in sorted(options.items())
        if value is not None
    )


def replay_command(scenario_name, plan, **options):
    """The one-command reproduction recipe for a plan and its run options."""
    return (
        "PYTHONPATH=src python -m repro.chaos.replay "
        f"{scenario_name} --plan '{json.dumps(plan.to_dict())}'"
        f"{_replay_flags(options)}"
    )


def sweep(spec, cases, trace=None, stop_at_first=False, **options):
    """Run every case; account for coverage; keep every counterexample.

    ``cases`` is any iterable of :class:`Case` — chain dimension
    generators to sweep several at once.  ``trace`` is the probe the
    cases were generated from (its step count backs
    :attr:`SweepResult.coverage_complete`); ``options`` go to every
    :func:`run_plan` and into every artifact's replay command.
    """
    cases = list(cases)
    _replay_flags(options)  # refuse an unreplayable option before any run
    result = SweepResult(
        scenario=spec.name,
        total_steps=trace.step_count if trace is not None else 0,
    )
    for case in cases:
        result.universe.setdefault(case.dimension, set()).add(case.key)
        result.covered.setdefault(case.dimension, set())
    for case in cases:
        verdict = run_plan(spec, case.plan, **options)
        verdict.dimension, verdict.key = case.dimension, case.key
        verdict.detail = case.detail
        result.runs += 1
        result.covered[case.dimension].add(case.key)
        result.verdicts.append(verdict)
        if verdict.ok:
            continue
        crash = verdict.crash
        result.failures.append(
            FailureArtifact(
                scenario=spec.name,
                plan=case.plan.to_dict(),
                violations=verdict.all_violations,
                crash_step=(
                    f"{crash.step}:{crash.kind}" if crash is not None else None
                ),
                replay=replay_command(spec.name, case.plan, **options),
                judgment=verdict.judgment,
                detail=case.detail,
            )
        )
        if stop_at_first:
            break
    return result


# ---------------------------------------------------------------------------
# storage fault dimensions (generators over a trace)
# ---------------------------------------------------------------------------


def crash_steps(trace, keep_tail_modes=(False,)):
    """Crash before every numbered step (± the OS writing the tail back)."""
    for keep_tail in keep_tail_modes:
        for step in range(1, trace.step_count + 1):
            yield Case("crash", step, FaultPlan(
                crash_at=step,
                keep_tail=keep_tail,
                label=f"crash@{step}" + ("+tail" if keep_tail else ""),
            ))


def torn_pages(trace):
    """Tear every page write."""
    for step in trace.steps_of_kind(PAGE_WRITE):
        yield Case(
            "torn", step, FaultPlan(torn_page_at=step, label=f"torn@{step}")
        )


def lost_fsyncs(trace):
    """Lie about every log flush (the run's final power cut collects)."""
    for step in trace.steps_of_kind(LOG_FLUSH):
        yield Case("lost-fsync", step, FaultPlan(
            lose_fsync_at=frozenset([step]), label=f"lost-fsync@{step}"
        ))


def failpoints(trace):
    """Crash at every occurrence of every semantic failpoint."""
    for name, count in sorted(trace.failpoints.items()):
        for nth in range(1, count + 1):
            yield Case("failpoint", (name, nth), FaultPlan(
                crash_at_failpoint=(name, nth), label=f"failpoint {name}#{nth}"
            ))


def transient_flushes(trace):
    """Fail every log flush transiently, exactly once."""
    for step in trace.steps_of_kind(LOG_FLUSH):
        yield Case("transient-flush", step, FaultPlan(
            fail_flush_at=frozenset([step]), label=f"transient-flush@{step}"
        ))


# ---------------------------------------------------------------------------
# single-site entry points: pick generators, call sweep
# ---------------------------------------------------------------------------


def crash_sweep(spec, keep_tail_modes=(False,),
                variants=(torn_pages, lost_fsyncs, failpoints),
                stop_at_first=False):
    """Crash at every numbered step, then sweep each variant dimension."""
    trace = probe(spec)
    cases = list(crash_steps(trace, keep_tail_modes))
    for dimension in variants:
        cases += dimension(trace)
    return sweep(spec, cases, trace=trace, stop_at_first=stop_at_first)


def transient_fault_sweep(spec, retry=None, stop_at_first=False):
    """One transient flush failure per LOG_FLUSH step of ``spec``.

    ``retry`` is the total-attempt budget of the
    :class:`~repro.resilience.RetryPolicy` each run attaches.  With a
    live budget every fault is *absorbed*: one retried flush succeeds
    and the oracles must pass.  With ``None`` (no policy) or ``1`` (zero
    budget) the fault *surfaces* on the verdict's ``error`` — and the
    run is still judged.
    """
    trace = probe(spec)
    return sweep(
        spec, transient_flushes(trace), trace=trace,
        stop_at_first=stop_at_first, retry=retry,
    )
