"""Message-step fault dimensions over cluster scenarios.

The cluster front-end of the one sweep harness
(:mod:`repro.chaos.sweep`): a probe numbers every fabric message (step
kind ``net_msg``), and each fault dimension here is a generator of
:class:`~repro.chaos.sweep.Case`\\ s over those message steps —

* **drop / duplicate / delay** the message at that step;
* **crash a site** the moment that step is sent (power cut: volatile
  state and the unflushed log tail are gone);
* **install a partition** at that step and heal it a fixed number of
  steps later;
* **kill the coordinator** permanently at that step;
* a site **joins**, or **leaves** handing its ranges to a successor.

Generators that extend a ``base`` plan compose: the takeover sweep is
site crashes over the trace of a coordinator kill, the release-blackout
sweep is coordinator kills over the trace of a DECISION blackout, the
stranded-witness sweep is site crashes over a dropped DECISION plus a
coordinator kill.
:func:`message_sweep` (any one dimension over the fault-free run) and
the three composed sweeps probe, pick generators and call
:func:`~repro.chaos.sweep.sweep`, which runs each plan through the
cluster kind (:meth:`repro.chaos.cluster_scenarios.ClusterScenarioSpec.judge`
models the operator fixing the world, then judges the durable logs) and
returns the shared :class:`~repro.chaos.sweep.SweepResult`: every
verdict carries its plan, and every failure a
:class:`~repro.chaos.sweep.FailureArtifact` whose ``replay`` is a
one-line reproduction recipe for ``repro.chaos.replay``.
"""

from __future__ import annotations

from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import Case, probe, sweep

__all__ = [
    "coordinator_deaths",
    "joins",
    "leaves",
    "message_faults",
    "message_sweep",
    "partitions",
    "release_blackout_sweep",
    "site_crashes",
    "stranded_witness_sweep",
    "takeover_death_sweep",
]

# ``heal_at`` trails ``partition_at`` by this many message-step numbers:
# retries and inquiries keep the step counter moving during the
# partition, so the heal always fires — after which the convergence
# oracle demands every member settle.
HEAL_AFTER = 16

_MESSAGE_FAULTS = {
    "drop": "drop_msg_at",
    "duplicate": "dup_msg_at",
    "delay": "delay_msg_at",
}


# ---------------------------------------------------------------------------
# fault dimensions: generators over ``[(message step, detail), ...]``
# ---------------------------------------------------------------------------


def _under(base):
    return "" if base.is_noop else f" under {base.describe()}"


def message_faults(messages, faults=("drop",)):
    """Drop, duplicate or delay each message."""
    for number, detail in messages:
        for fault in faults:
            plan = FaultPlan(**{_MESSAGE_FAULTS[fault]: {number}})
            yield Case(fault, number, plan, f"{fault} {detail}")


def site_crashes(messages, victims, base=FaultPlan()):
    """Power-cut each victim site at each message step.

    The canonical victim is the coordinator — the only process whose
    loss can strand a prepared participant — but sweeping every site
    also exercises participant-crash recovery (the in-doubt path).
    """
    for number, detail in messages:
        for victim in victims:
            yield Case(
                "site-crash",
                (victim, number),
                base.with_(site_crash_at=(victim, number)),
                f"crash {victim} at {detail}{_under(base)}",
            )


def partitions(messages, splits):
    """Install each split at each message step; heal ``HEAL_AFTER`` later."""
    for number, detail in messages:
        for split in splits:
            label = "|".join(",".join(group) for group in split)
            plan = FaultPlan(
                partition_at=number,
                heal_at=number + HEAL_AFTER,
                partition_groups=split,
            )
            yield Case(
                "partition", (label, number), plan,
                f"partition {label} at {detail}",
            )


def coordinator_deaths(messages, base=FaultPlan()):
    """Permanently kill whichever site is coordinating, at each step.

    Uses the plan's ``kill_coordinator_at`` mark: the injector kills
    the cluster's coordinator of the group in flight, so the sweep
    covers scenarios where the coordinator varies (or is chosen
    mid-run) without naming it.  Marks placed before any
    coordinator exists hold their fire until one is installed — every
    step kills some coordinator.  The mark also selects the two-phase
    failover judgment: survivors must settle by takeover *before* the
    dead site is restarted.
    """
    for number, detail in messages:
        yield Case(
            "kill-coordinator",
            number,
            base.with_(kill_coordinator_at=number),
            f"kill coordinator at {detail}{_under(base)}",
        )


def joins(messages, joiner):
    """A new site joins the cluster at each message step."""
    for number, detail in messages:
        yield Case(
            "join", number, FaultPlan(join_site_at=(joiner, number)),
            f"join {joiner} at {detail}",
        )


def leaves(messages, leaver, successor):
    """``leaver`` hands its ranges to ``successor`` at each message step.

    The handoff (delegation of in-flight transactions, placement-range
    transfer, epoch bump) lands mid-protocol at every point of the
    scenario; the oracles demand the cluster still converges with
    atomic groups and no dual decisions.
    """
    for number, detail in messages:
        yield Case(
            "leave",
            number,
            FaultPlan(leave_site_at=(leaver, successor, number)),
            f"leave {leaver}->{successor} at {detail}",
        )


# ---------------------------------------------------------------------------
# entry points: probe, pick a generator, call sweep
# ---------------------------------------------------------------------------


def _messages(spec, limit, plan=None, start=1):
    """The first ``limit`` message steps numbered ``start`` or later of a
    run under ``plan`` (default: the fault-free run).

    Deterministic prefix property: in a swept run, every step *before*
    the faulted one is the same message as in this probe.
    """
    messages = [
        (n, d) for n, d in probe(spec, plan).messages if n >= start
    ]
    return messages[:limit]


def message_sweep(spec, dimension, *args, limit=None):
    """Sweep one dimension over the fault-free run's message steps.

    ``message_sweep(spec, site_crashes, spec.sites)`` power-cuts every
    site at every message; ``message_sweep(spec, joins, "delta",
    limit=12)`` lands a join on each of the first twelve.  ``args`` are
    the generator's own (victims, splits, fault shapes, a joiner).
    """
    return sweep(spec, dimension(_messages(spec, limit), *args))


def takeover_death_sweep(spec, wedge_step, limit=None):
    """Kill the coordinator at ``wedge_step``, then each site later.

    The wedge forces a takeover; the second kill sweeps every message
    step *after* the wedge — including the takeover's own traffic — so
    a recovery coordinator dying before or after its force-logged
    claim is covered.  The step universe comes from a probe under the
    wedge plan (fault-free probes never see takeover messages).  The
    failover judgment restarts the second victim for phase 1 while the
    old coordinator stays dead: a force-logged takeover claim must
    resume across the crash.
    """
    wedge = FaultPlan(kill_coordinator_at=wedge_step)
    messages = _messages(spec, limit, plan=wedge, start=wedge_step + 1)
    return sweep(spec, site_crashes(messages, spec.sites, base=wedge))


def release_blackout_sweep(spec, limit=None):
    """Black out every DECISION message, then kill the coordinator.

    The window the plain sweeps never compose: sends are not
    deliveries, so the fabric drops the *entire* commit release —
    fan-out and every heartbeat-paced resend — while the coordinator
    dies permanently at each step from the first (dropped) release
    attempt onward.  Witness-confirmed release is what makes this
    survivable: with no acknowledged witness the commit is never
    force-logged, so the survivors' presumed-abort takeover cannot
    contradict the dead coordinator's durable log.
    """
    blackout = FaultPlan(drop_msg_kinds=frozenset({"decision"}))
    messages = _messages(spec, None, plan=blackout)
    # Kills before any release attempt are the plain death sweep's
    # territory; start the marks at the first blacked-out DECISION.
    first = next(
        (i for i, (__, d) in enumerate(messages) if d.endswith(":decision")),
        len(messages),
    )
    messages = messages[first:][:limit]
    return sweep(spec, coordinator_deaths(messages, base=blackout))


def stranded_witness_sweep(spec, limit=None):
    """Strand one member behind a dead coordinator, then power-cycle
    each site at every later step.

    The last DECISION of the release is dropped and the coordinator
    dies permanently once the commit is sealed, so the member that
    missed it can learn the verdict only by taking over and polling the
    witness that holds it.  Crashing each site at each later step makes
    that witness a *restarted* one: it must still testify to the commit
    it durably applied, from its log alone.
    """
    release = [n for n, d in _messages(spec, None) if d.endswith(":decision")]
    stranded = FaultPlan(drop_msg_at={release[-1]})
    sealed = next(
        n
        for n, d in _messages(spec, None, plan=stranded)
        if d.endswith(":gc_begin.reply")
    )
    base = stranded.with_(kill_coordinator_at=sealed)
    messages = _messages(spec, limit, plan=base, start=sealed + 1)
    return sweep(spec, site_crashes(messages, spec.sites, base=base))
