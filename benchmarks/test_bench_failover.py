"""EX21 — coordinator failover and membership churn costs.

Sweep 1: rounds to quiescence when the coordinator is *permanently*
killed at each phase of the 2PC exchange.  Unlike EX18b (crash then
restart), the dead site never comes back during the measurement: the
survivors' lease-paced takeover must settle every live member on its
own, and the cost unit is cluster rounds until they do.  The shape:
pre-decision kills pay the full lease lapse plus the takeover exchange
(evidence poll, force-logged claim, re-derived abort), post-decision
kills settle from the already-released verdict almost immediately —
and *every* phase converges with zero oracle failures.

Sweep 2: message cost of a group commit over a growing site count,
with membership churn (one join + one leave mid-workload) switched on
and off.  Churn pays a bounded premium — the epoch announcements, the
handoff offer/accept/done exchange, and the stale-route rejects — on
top of the linear 2PC exchange, and the premium must not change the
commit verdict or the oracles.
"""

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.bench.report import print_table
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe, run_plan
from repro.cluster import Cluster

SITE_POOL = ("alpha", "beta", "gamma", "delta", "epsilon")

PHASES = ("gc_begin", "prepare", "vote", "decision", "ack")


def _body(tag):
    def body(tx):
        oid = yield tx.create(tag + b"0")
        yield tx.write(oid, tag + b"1")
        return oid

    return body


def _phase_steps(spec):
    """The first message step of each 2PC phase in a fault-free run."""
    steps = probe(spec).messages
    first = {}
    for number, detail in steps:
        kind = detail.split(":")[-1]
        if kind in PHASES and kind not in first:
            first[kind] = number
    return [(kind, first[kind]) for kind in PHASES if kind in first]


def _failover_rounds(spec, step):
    result = run_plan(spec, FaultPlan(kill_coordinator_at=step))
    takeovers = sum(
        site.stats["takeovers_decided"]
        for site in result.system.sites.values()
    )
    return result, result.system.rounds, takeovers


def _churned_commit(n_sites, churn):
    cluster = Cluster(sites=SITE_POOL[:n_sites])
    for name in sorted(cluster.membership):
        cluster.wait(cluster.spawn_at(name, _body(name.encode())))
    sent_before = cluster.fabric.stats["sent"]
    if churn:
        cluster.join_site("omega")
        leaver = sorted(cluster.membership - {"omega"})[0]
        cluster.leave_site(leaver, "omega")
    refs = [
        cluster.spawn_at(name, _body(name.encode() + b"!"))
        for name in sorted(cluster.membership)
    ]
    for ref in refs:
        cluster.wait(ref)
    cluster.link_group(refs)
    outcome = cluster.group_commit(refs)
    cluster.converge()
    messages = cluster.fabric.stats["sent"] - sent_before
    report, __ = cluster.evaluate(label=f"churn={churn} n={n_sites}")
    return outcome, messages, report


def test_bench_failover_convergence_by_phase(benchmark):
    spec = get("cluster_group_commit")
    phase_steps = _phase_steps(spec)
    assert [kind for kind, __ in phase_steps] == list(PHASES)
    rows = []
    oracle_failures = 0
    for kind, step in phase_steps:
        result, rounds, takeovers = _failover_rounds(spec, step)
        if not result.ok:
            oracle_failures += 1
        rows.append([kind, step, rounds, takeovers, result.ok])
    print_table(
        "EX21a: rounds to quiescence, coordinator permanently dead",
        ["killed at", "step", "rounds", "takeovers decided", "oracles ok"],
        rows,
    )
    # The acceptance bar: a permanently dead coordinator never leaves a
    # participant PREPARED forever, at any phase, with zero failures.
    assert oracle_failures == 0
    # Pre-decision kills pay the takeover; post-release ones must not.
    assert rows[-1][2] <= rows[2][2]
    vote_step = dict(phase_steps)["vote"]
    benchmark(
        lambda: run_plan(
            spec, FaultPlan(kill_coordinator_at=vote_step)
        )
    )


def test_bench_group_commit_churn_premium(benchmark):
    rows = []
    for n_sites in (3, 4, 5):
        base_outcome, base_messages, base_report = _churned_commit(
            n_sites, churn=False
        )
        churn_outcome, churn_messages, churn_report = _churned_commit(
            n_sites, churn=True
        )
        assert base_outcome.committed and churn_outcome.committed
        assert base_report.ok and churn_report.ok
        rows.append([
            n_sites,
            base_messages,
            churn_messages,
            churn_messages - base_messages,
        ])
    print_table(
        "EX21b: group-commit message cost, churn off vs on",
        ["sites", "messages (stable)", "messages (join+leave)", "premium"],
        rows,
    )
    # Churn costs messages (announcements + handoff) but the premium is
    # bounded: it must not blow past 4x the stable exchange.
    for __, base, churned, premium in rows:
        assert premium > 0
        assert churned <= 4 * base
    benchmark(lambda: _churned_commit(3, churn=True))
