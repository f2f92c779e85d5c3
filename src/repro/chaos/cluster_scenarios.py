"""Cluster chaos scenarios: deterministic multi-site workloads.

The single-site chaos scenarios drive a :class:`~repro.chaos.stack.ChaosStack`;
these drive a whole :class:`~repro.cluster.cluster.Cluster`.  The same
determinism contract applies — a scenario is a pure function of the
fault plan, so a message-step sweep replays the identical workload once
per numbered step and a failing plan is a reproduction recipe.

A planned cluster is built one way, by :func:`planned_cluster`.  Each
spec names the sites it needs and, for the partition sweeps, the
canonical ways to split them.  :class:`ClusterScenarioSpec` is also the
harness's *cluster kind* — the ``build`` / ``drive`` / ``judge`` the one
driver in :mod:`repro.chaos.sweep` runs — and every scenario registers
in that module's shared registry, which is what the
``repro.chaos.replay`` command line resolves names against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.faults import FaultInjector
from repro.chaos.sweep import registers
from repro.cluster.cluster import Cluster
from repro.cluster.group import WAITING
from repro.common.errors import AssetError
from repro.core.dependency import DependencyType

__all__ = [
    "CONVERGE_ROUNDS", "ClusterScenarioSpec", "cluster_scenario",
    "planned_cluster",
]

# Rounds a repaired cluster gets to quiesce: comfortably past the lease
# lapse plus a full takeover exchange.
CONVERGE_ROUNDS = 240


def planned_cluster(plan, **options):
    """A :class:`~repro.cluster.cluster.Cluster` under ``plan``: its one
    injector numbers every step and fires the plan's marks on it."""
    injector = FaultInjector(plan=plan)
    return injector.bind(Cluster(injector=injector, **options))


@dataclass(frozen=True)
class ClusterScenarioSpec:
    """A named deterministic multi-site workload (and the cluster kind)."""

    name: str
    description: str
    drive: object  # callable(cluster) -> None
    sites: tuple = ("alpha", "beta", "gamma")
    # Canonical splits for the partition sweep: tuples of site-name
    # groups.  Default: isolate each site in turn.
    partitions: tuple = ()

    kind = "cluster"
    # The driver (console) half is allowed to fail — a crashed
    # coordinator or a severed link can starve its RPCs.  The oracles
    # judge what the *sites* did, and the whole point of presumed abort
    # is that the cluster settles without the console's help.
    surfaced = (AssetError,)

    def build(self, plan=None, **options):
        return planned_cluster(plan, sites=self.sites, **options)

    def partition_splits(self):
        if self.partitions:
            return self.partitions
        rest = tuple(self.sites)
        return tuple(
            ((name,), tuple(s for s in rest if s != name)) for name in rest
        )

    def probed(self, verdict):
        """Let the run settle with the plan still armed, so the trace
        carries the recovery traffic the fault provokes."""
        verdict.system.converge(CONVERGE_ROUNDS)

    def judge(self, verdict):
        """The operator repairs the world; the protocol must do the rest.

        Heal the partition, disarm the plan, restart what is down, give
        the cluster its convergence rounds, then judge the durable logs
        with the cross-site oracles.  That is the ``"cluster"`` judgment.

        A plan that kills the coordinator (``kill_coordinator_at``) is a
        *permanent-death* plan and gets the two-phase ``"failover"``
        judgment instead.  Phase 1 — the killed site stays dead.  The
        survivors' lease-paced takeover must settle every live member on
        its own: a coordinator that will never answer must not leave a
        participant PREPARED past the lease budget, and any live site
        still holding prepared or in-doubt state after the convergence
        budget is a liveness violation.  Only the plan's ``site_crash_at``
        victim — a second death, whose logged takeover claim must resume
        — restarts before this phase; when that victim *is* the dead
        coordinator the restart exercises the reborn-coordinator
        self-takeover path instead.  Demanding settlement with two
        members permanently silent would be wrong: the silent one may be
        a commit witness, which is exactly the blocking case 2PC cannot
        decide safely.  Phase 2 — the operator restarts the dead sites;
        their durable logs rejoin the judgment and the full oracles
        (cross-site atomicity, no dual decision, convergence) run over
        everything.
        """
        cluster, plan = verdict.system, verdict.plan
        failover = plan.kill_coordinator_at is not None
        verdict.judgment = "failover" if failover else "cluster"
        cluster.injector.disarm()
        cluster.heal()
        liveness = []
        if failover:
            if plan.site_crash_at is not None:
                victim = plan.site_crash_at[0]
                if victim in cluster.sites and not cluster.sites[victim].up:
                    cluster.restart_site(victim)
            if not cluster.converge(CONVERGE_ROUNDS):
                liveness.append(
                    "survivors did not quiesce before the dead sites were"
                    " restarted"
                )
            stranded = sorted(
                name
                for name, site in cluster.sites.items()
                if site.up
                and any(site._group(gid).phase in WAITING for gid in site.active)
            )
            if stranded:
                liveness.append(
                    f"sites {stranded} still hold prepared/in-doubt members"
                    f" with the coordinator permanently dead"
                )
        cluster.restart_down_sites()
        verdict.converged = cluster.converge(CONVERGE_ROUNDS)
        verdict.oracle, verdict.analyses = cluster.evaluate(
            label=plan.describe()
        )
        for finding in liveness:
            verdict.oracle.fail("takeover-liveness", finding)
        if not verdict.converged:
            verdict.violations.append("convergence: cluster did not quiesce")


cluster_scenario = registers(ClusterScenarioSpec)


# ---------------------------------------------------------------------------
# program bodies (run inside a site's cooperative runtime)
# ---------------------------------------------------------------------------


def _account_body(tag):
    """Create an account and deposit into it; completes, never commits —
    termination belongs to the global group."""

    def body(tx):
        oid = yield tx.create(tag + b"0", name=tag.decode())
        yield tx.write(oid, tag + b"1")
        return oid

    return body


# ---------------------------------------------------------------------------
# EX18 scenarios
# ---------------------------------------------------------------------------


@cluster_scenario(
    "cluster_group_commit",
    "one component per site, GC-linked across the fabric, committed by"
    " presumed-abort 2PC with the first site coordinating (EX18 happy path)",
)
def cluster_group_commit(cluster):
    refs = [
        cluster.spawn_at(name, _account_body(name.encode()))
        for name in sorted(cluster.sites)
    ]
    cluster.link_group(refs)
    return cluster.group_commit(refs)


@cluster_scenario(
    "cluster_abort_propagation",
    "a GC-linked cross-site group where the console aborts one member"
    " before the vote: the abort must propagate over the proxy web and"
    " the global commit must refuse",
)
def cluster_abort_propagation(cluster):
    names_ = sorted(cluster.sites)
    refs = [cluster.spawn_at(name, _account_body(name.encode())) for name in names_]
    for ref in refs:
        cluster.wait(ref)
    cluster.link_group(refs)
    cluster.abort(refs[1], reason="console abort before vote")
    cluster.settle(8)  # let the abort ripple across the proxy web
    return cluster.group_commit(refs)


@cluster_scenario(
    "cluster_delegation_handoff",
    "a giver delegates its account to a remote receiver (giver-site log"
    " attributes undo to the receiver's proxy), the receiver writes at"
    " the giver's site under a cross-site permit, then the pair group-"
    "commits by 2PC",
    sites=("alpha", "beta"),
)
def cluster_delegation_handoff(cluster):
    giver_site, receiver_site = sorted(cluster.sites)
    giver = cluster.spawn_at(giver_site, _account_body(b"g"))
    receiver = cluster.spawn_at(receiver_site, _account_body(b"r"))
    cluster.wait(giver)
    cluster.wait(receiver)
    cluster.form_dependency(DependencyType.GC, giver, receiver)
    oid = cluster.result_of(giver)
    cluster.permit(giver, receiver)
    cluster.delegate(giver, receiver, oids=[oid])
    cluster.write_as(receiver, giver_site, oid, b"g2")
    return cluster.group_commit([giver, receiver], coordinator=receiver_site)


# ---------------------------------------------------------------------------
# EX21 scenario: membership churn under a placed workload
# ---------------------------------------------------------------------------


@cluster_scenario(
    "cluster_membership_churn",
    "a placed workload while membership churns: delta joins (epoch bump"
    " rebalances the shard ranges), beta leaves handing its in-flight"
    " transactions to delta by delegation, then one component per"
    " surviving member group-commits across the new membership",
    sites=("alpha", "beta", "gamma"),
)
def cluster_membership_churn(cluster):
    # Routed work under the initial membership; acct-2/acct-3 place on
    # beta, so the leave below has live transactions to hand over.
    keys = [f"acct-{i}" for i in range(4)]
    placed = [
        cluster.spawn_placed(key, _account_body(key.encode())) for key in keys
    ]
    for ref in placed:
        cluster.wait(ref)
    cluster.join_site("delta")
    cluster.leave_site("beta", "delta")
    # Routes resolved before the churn are now stale; spawn_placed
    # re-resolves against the bumped epoch.
    post = cluster.spawn_placed("acct-post", _account_body(b"post"))
    cluster.wait(post)
    group = [
        cluster.spawn_at(name, _account_body(name.encode() + b"!"))
        for name in sorted(cluster.membership)
    ]
    cluster.link_group(group)
    return cluster.group_commit(group)
