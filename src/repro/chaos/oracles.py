"""Oracles: what must be true after any crash, schedule, or fault.

Every predicate here is *independent* of the code it judges.  The
expected post-recovery state is computed by a small pure-function replay
of the durable log — no buffer pool, no recovery manager, just the record
semantics — so a bug in recovery cannot also hide in its oracle.  The
ACTA model properties reuse :mod:`repro.acta.checker`, fed with the
scenario's *intended* dependency set and fates derived from the durable
log, so even a mutated primitive that never formed its edge is judged
against what the scenario meant.

The invariants, stated once:

1. **Durability** — every commit the system durably acknowledged is a
   recovery winner (``acks ⊆ winners``).
2. **Atomicity of loss** — every transaction without a durable commit
   record has *no* effect in the recovered state: lost commits are
   indistinguishable from never-requested ones.
3. **Exact state** — the recovered store equals the pure replay of the
   durable log (winners' effects present, losers' undone, delegation
   honoured).
4. **ACTA model properties over durable fates** — group atomicity for GC
   pairs, abort propagation for AD pairs, commit order for CD pairs.
5. **Recovery idempotence** — running recovery again changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.acta.checker import (
    check_abort_dependencies,
    check_commit_order,
    check_group_atomicity,
)
from repro.storage.log import (
    AbortRecord,
    CommitRecord,
    CompensationRecord,
    DecisionRecord,
    DelegateRecord,
    PrepareRecord,
    TakeoverRecord,
    UpdateRecord,
)


@dataclass
class LogAnalysis:
    """The durable log, digested: who won, who lost, who owns what."""

    winners: set = field(default_factory=set)
    losers: set = field(default_factory=set)
    already_aborted: set = field(default_factory=set)
    in_doubt: set = field(default_factory=set)
    updates: list = field(default_factory=list)
    responsibility: dict = field(default_factory=dict)  # lsn -> tid
    commit_positions: dict = field(default_factory=dict)  # tid -> index
    prepares: dict = field(default_factory=dict)  # gid -> PrepareRecord
    decisions: dict = field(default_factory=dict)  # gid -> verdict
    takeovers: dict = field(default_factory=dict)  # gid -> [TakeoverRecord]
    # Every verdict this site durably claimed or decided for a group —
    # a *set* per gid, because duplicates are legal (dueling same-epoch
    # takers, a resumed claim) while *conflicting* verdicts never are.
    group_verdicts: dict = field(default_factory=dict)  # gid -> {verdict}

    def fate(self, tid):
        """Durable fate of ``tid``: committed / aborted / in_doubt / active."""
        if tid in self.winners:
            return "committed"
        if (
            tid in self.losers
            or tid in self.already_aborted
        ):
            return "aborted"
        if tid in self.in_doubt:
            return "in_doubt"
        return "active"


def analyze_log(records):
    """Digest durable records into a :class:`LogAnalysis`.

    This deliberately re-implements the recovery manager's analysis from
    the record definitions alone — the independence is the point.
    """
    analysis = LogAnalysis()
    prepares = []
    for index, record in enumerate(records):
        if isinstance(record, CommitRecord):
            for tid in record.committed_tids():
                analysis.winners.add(tid)
                analysis.commit_positions.setdefault(tid, index)
        elif isinstance(record, DecisionRecord):
            analysis.decisions[record.gid] = record.verdict
            analysis.group_verdicts.setdefault(record.gid, set()).add(
                record.verdict
            )
            if record.verdict == "commit":
                for tid in record.decided_tids():
                    analysis.winners.add(tid)
                    analysis.commit_positions.setdefault(tid, index)
        elif isinstance(record, TakeoverRecord):
            analysis.takeovers.setdefault(record.gid, []).append(record)
            analysis.group_verdicts.setdefault(record.gid, set()).add(
                record.verdict
            )
        elif isinstance(record, PrepareRecord):
            prepares.append(record)
            analysis.prepares[record.gid] = record
        elif isinstance(record, AbortRecord):
            analysis.already_aborted.add(record.tid)
        elif isinstance(record, UpdateRecord):
            analysis.updates.append(record)
            analysis.responsibility[record.lsn] = record.tid
        elif isinstance(record, DelegateRecord):
            wanted = set(record.oids)
            for update in analysis.updates:
                if (
                    analysis.responsibility[update.lsn] == record.tid
                    and update.oid in wanted
                ):
                    analysis.responsibility[update.lsn] = record.delegatee
    for record in prepares:
        analysis.in_doubt |= (
            record.prepared_tids()
            - analysis.winners
            - analysis.already_aborted
        )
    responsible = set(analysis.responsibility.values())
    analysis.losers = (
        responsible
        - analysis.winners
        - analysis.already_aborted
        - analysis.in_doubt
    )
    return analysis


def expected_state(records, analysis=None, baseline=None):
    """Pure replay: the object state the durable log *implies*.

    Start from ``baseline`` (the committed state at the last truncating
    checkpoint — empty when the log holds the full history), repeat
    history (install what every update and every compensation left, in
    order), then undo the losers (install what their updates found,
    newest first).  ``None`` images mean the object is absent.  Returns
    ``{oid_value: bytes}``.
    """
    if analysis is None:
        analysis = analyze_log(records)
    state = dict(baseline) if baseline else {}
    for record in records:
        if isinstance(record, (UpdateRecord, CompensationRecord)):
            state[int(record.oid)] = record.after
    for record in reversed(analysis.updates):
        if analysis.responsibility[record.lsn] in analysis.losers:
            state[int(record.oid)] = record.before
    return {oid: image for oid, image in state.items() if image is not None}


@dataclass
class OracleReport:
    """The verdict of one oracle evaluation."""

    violations: list = field(default_factory=list)
    analysis: LogAnalysis = None
    label: str = ""

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def fail(self, invariant, detail):
        self.violations.append(f"{invariant}: {detail}")

    def describe(self):
        if self.ok:
            return f"oracle OK ({self.label})" if self.label else "oracle OK"
        header = f"oracle VIOLATED ({self.label})" if self.label else "oracle VIOLATED"
        return "\n".join([header] + [f"  - {v}" for v in self.violations])


def evaluate_recovery(system, intent, durable_acks, label=""):
    """Run invariants 1-4 against a :class:`RestartedSystem`.

    ``system`` is what :meth:`ChaosStack.restart` returned; ``intent``
    the scenario's declared intentions; ``durable_acks`` the commits the
    stack acknowledged with a genuinely durable commit record.
    """
    from repro.chaos.stack import read_state

    report = OracleReport(label=label)
    records = system.durable_records
    analysis = analyze_log(records)
    report.analysis = analysis

    # 1. durability: every durable ack is a winner.
    for tid in durable_acks:
        if tid not in analysis.winners:
            report.fail(
                "durability",
                f"commit of {tid!r} was durably acknowledged but is not a"
                f" recovery winner",
            )

    # 2 + 3. exact state: the recovered store equals the pure replay.
    #    (Atomicity of loss is subsumed: a lost commit's transaction is a
    #    replay loser, so any surviving effect shows up as a mismatch.)
    expected = expected_state(records, analysis, baseline=intent.baseline)
    actual = read_state(system.storage)
    for oid_value in sorted(set(expected) | set(actual)):
        want = expected.get(oid_value)
        got = actual.get(oid_value)
        if want != got:
            report.fail(
                "state",
                f"object {int(oid_value)}: recovered "
                f"{got!r}, durable log implies {want!r}",
            )

    # 4. ACTA model properties over durable fates and intended edges.
    fates = {}
    for __, ti, tj in intent.dependencies:
        fates.setdefault(ti, analysis.fate(ti))
        fates.setdefault(tj, analysis.fate(tj))
    deps = intent.dependencies
    for ti, fi, tj, fj in check_group_atomicity(None, deps, fates):
        report.fail(
            "group-atomicity",
            f"GC pair split: {ti!r} is {fi}, {tj!r} is {fj}",
        )
    for ti, tj in check_abort_dependencies(None, deps, fates):
        report.fail(
            "abort-dependency",
            f"AD({ti!r} -> {tj!r}): {ti!r} aborted but {tj!r} committed",
        )
    ticks = {
        tid: pos for tid, pos in analysis.commit_positions.items()
    }
    for ti, tj in check_commit_order(None, deps, ticks):
        report.fail(
            "commit-order",
            f"CD({ti!r} -> {tj!r}): {tj!r}'s commit record precedes {ti!r}'s",
        )
    return report


def check_idempotent(system, report=None):
    """Invariant 5: running recovery a second time changes nothing.

    Appends to ``report`` (or returns a fresh one).  The second pass must
    also report zero redo-able surprises on the undo side: every loser it
    sees was already finished with an abort record by the first pass.
    """
    from repro.chaos.stack import read_state

    if report is None:
        report = OracleReport(label="idempotence")
    before = read_state(system.storage)
    second = system.storage.recover()
    after = read_state(system.storage)
    if before != after:
        changed = sorted(
            oid
            for oid in set(before) | set(after)
            if before.get(oid) != after.get(oid)
        )
        report.fail(
            "idempotence",
            f"second recovery pass changed objects {changed}",
        )
    if second.losers:
        report.fail(
            "idempotence",
            f"second recovery pass still sees losers {sorted(map(int, second.losers))}"
            f" — the first pass did not finish them with abort records",
        )
    return report


def _global_fate(analysis, tid):
    """A member's durable fate, collapsed for cross-site judgment.

    ``active`` here means *no durable trace at all* — no updates it is
    responsible for, no outcome record.  Such a member has zero effects,
    which is observationally an abort (presumed abort says exactly
    this), so it collapses into ``aborted``.  ``in_doubt`` stays
    distinct: it is legal mid-partition and illegal after convergence.
    """
    fate = analysis.fate(tid)
    return "aborted" if fate == "active" else fate


def check_cross_site_atomicity(groups, site_analyses, report=None):
    """No site durably commits a group another site durably aborted.

    ``groups`` maps each global id to ``{"coordinator": site_name,
    "members": {site_name: tid}}`` — the *intended* membership recorded
    by the cluster driver before any protocol message was sent, so a
    mutated protocol that forgot a member is still judged against the
    full group.  ``site_analyses`` maps site names to the
    :class:`LogAnalysis` of that site's durable log.

    A member in doubt is not a violation here (that is what the
    convergence oracle checks); split brain is exactly one member
    durably committed while another durably aborted.
    """
    if report is None:
        report = OracleReport(label="cross-site-atomicity")
    for gid in sorted(groups):
        members = groups[gid]["members"]
        fates = {
            site: _global_fate(site_analyses[site], tid)
            for site, tid in sorted(members.items())
        }
        committed = [site for site, fate in fates.items() if fate == "committed"]
        aborted = [site for site, fate in fates.items() if fate == "aborted"]
        if committed and aborted:
            report.fail(
                "cross-site-atomicity",
                f"global {gid}: committed at {committed} but aborted at"
                f" {aborted} (split brain)",
            )
    return report


def check_cluster_convergence(groups, site_analyses, report=None):
    """After restart + healing + resolution, nobody is still in doubt.

    The liveness half of presumed abort: once every site is back up and
    every partition healed, in-doubt resolution (coordinator decision
    record, or no-information-implies-abort) must terminate every
    member.  Run this only after the harness has given the cluster its
    convergence rounds — mid-partition an in-doubt member is correct.
    """
    if report is None:
        report = OracleReport(label="convergence")
    for gid in sorted(groups):
        members = groups[gid]["members"]
        for site, tid in sorted(members.items()):
            fate = _global_fate(site_analyses[site], tid)
            if fate == "in_doubt":
                report.fail(
                    "convergence",
                    f"global {gid}: member {tid!r} at {site} is still in"
                    f" doubt after resolution",
                )
    return report


def check_no_dual_decision(groups, site_analyses, report=None):
    """No conflicting durable verdicts anywhere in the cluster for one gid.

    Coordinator failover makes *duplicate* decision records normal: the
    old coordinator may have logged ``commit``, and a recovery
    coordinator that later derived the same verdict logs it again (as
    may a dueling same-epoch taker, or a taker resuming a logged claim
    after its own crash).  What must never exist — in any site's log, in
    any takeover claim — is a ``commit`` *and* an ``abort`` for the same
    group.  That would mean an old coordinator and a usurper released
    opposite outcomes: split brain at the decision layer, even before
    any member applies it (cross-site atomicity only sees *applied*
    fates, so it can miss a dual decision whose loser side was never
    delivered).
    """
    if report is None:
        report = OracleReport(label="no-dual-decision")
    merged = {}  # gid -> verdict -> sorted site list
    for site in sorted(site_analyses):
        for gid, verdicts in site_analyses[site].group_verdicts.items():
            for verdict in verdicts:
                merged.setdefault(gid, {}).setdefault(verdict, []).append(site)
    for gid in sorted(merged):
        by_verdict = merged[gid]
        if len(by_verdict) > 1:
            detail = ", ".join(
                f"{verdict!r} at {sorted(set(sites))}"
                for verdict, sites in sorted(by_verdict.items())
            )
            report.fail(
                "no-dual-decision",
                f"global {gid}: conflicting durable verdicts: {detail}",
            )
    return report


def evaluate_cluster(groups, site_records, label="", converged=True):
    """Judge a whole cluster run from its durable logs.

    ``site_records`` maps site names to durable record lists; every
    site's log is digested independently, then the cross-site atomicity
    oracle (and, when ``converged``, the convergence oracle) runs over
    the intended group membership.  Returns ``(report, analyses)``.
    """
    report = OracleReport(label=label)
    analyses = {
        site: analyze_log(records) for site, records in site_records.items()
    }
    check_cross_site_atomicity(groups, analyses, report)
    check_no_dual_decision(groups, analyses, report)
    if converged:
        check_cluster_convergence(groups, analyses, report)
    return report, analyses


def check_degradation(health, report=None):
    """The degradation oracle: replay the flush-outcome trace independently.

    ``health`` is a :class:`~repro.resilience.FlushHealth` that observed a
    run.  Its ``outcomes`` list is the raw evidence — one ``("ok"|"fail",
    detail)`` entry per flush the breaker saw.  This oracle re-derives,
    from that trace and the configured thresholds alone, what the state
    machine *must* have done (string literals on purpose — importing the
    breaker's constants would let one rename bug hide in both places):

    * degrade exactly when ``degrade_after`` consecutive failures land
      while batching; re-promote exactly when ``repromote_after``
      consecutive successes land while degraded;
    * counters reset on every transition.

    The replayed final state and transition list (``from``/``to``/``at``
    triples) must equal what the breaker recorded.
    """
    if report is None:
        report = OracleReport(label="degradation")
    state = "batching"
    failures = successes = 0
    implied = []  # (from, to, at) triples
    for position, (kind, __) in enumerate(health.outcomes, start=1):
        if kind == "fail":
            failures += 1
            successes = 0
            if state == "batching" and failures >= health.degrade_after:
                implied.append(("batching", "degraded", position))
                state = "degraded"
                failures = successes = 0
        else:
            successes += 1
            failures = 0
            if state == "degraded" and successes >= health.repromote_after:
                implied.append(("degraded", "batching", position))
                state = "batching"
                failures = successes = 0
    if health.state != state:
        report.fail(
            "degradation",
            f"breaker reports {health.state!r} but the outcome trace"
            f" implies {state!r}",
        )
    recorded = [(t["from"], t["to"], t["at"]) for t in health.transitions]
    if recorded != implied:
        report.fail(
            "degradation",
            f"recorded transitions {recorded} != trace-implied {implied}",
        )
    return report
