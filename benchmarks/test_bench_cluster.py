"""EX18 — multi-site group commit: message cost and convergence rounds.

Sweep 1: happy-path presumed-abort 2PC over a growing site count.  The
protocol exchange per group is linear in the number of participants
(one PREPARE/VOTE/DECISION/ACK quartet each, plus the console RPCs that
drive the workload), and the message count is *deterministic* — the
same cluster, the same plan, the same bytes on the wire every run — so
the sweep doubles as a chattiness regression tripwire.

Sweep 2: recovery convergence after a coordinator power cut at each 2PC
protocol phase.  The cost unit is cluster rounds to quiescence.  The
shape: crashes *before* the decision cost hundreds of rounds (console
RPC retries against the dead coordinator, then restart plus the paced
in-doubt inquiry), while a crash *after* the release settles almost
immediately — but every phase stays under one convergence budget.
"""

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.bench.report import print_table
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe, run_plan
from repro.cluster import Cluster
from repro.storage.log import CommitRecord

SITE_POOL = ("alpha", "beta", "gamma", "delta", "epsilon")


def _body(tag):
    def body(tx):
        oid = yield tx.create(tag + b"0")
        yield tx.write(oid, tag + b"1")
        return oid

    return body


def _happy_path(n_sites):
    cluster = Cluster(sites=SITE_POOL[:n_sites])
    refs = [
        cluster.spawn_at(name, _body(name.encode()))
        for name in sorted(cluster.sites)
    ]
    for ref in refs:
        cluster.wait(ref)
    cluster.link_group(refs)
    sent_before = cluster.fabric.stats["sent"]
    rounds_before = cluster.rounds
    outcome = cluster.group_commit(refs)
    cluster.converge()
    commit_messages = cluster.fabric.stats["sent"] - sent_before
    commit_rounds = cluster.rounds - rounds_before
    committed_everywhere = all(
        any(
            isinstance(record, CommitRecord)
            and record.tid.value == ref.tid.value
            for record in cluster.sites[ref.site].durable_records()
        )
        for ref in refs
    )
    return outcome, commit_messages, commit_rounds, committed_everywhere


def test_bench_group_commit_vs_site_count(benchmark):
    rows = []
    for n_sites in (2, 3, 4, 5):
        outcome, messages, rounds, everywhere = _happy_path(n_sites)
        assert outcome.committed and everywhere
        rows.append([n_sites, messages, messages / n_sites, rounds])
    print_table(
        "EX18: presumed-abort group commit vs site count",
        ["sites", "commit messages", "messages/site", "rounds"],
        rows,
    )
    # The protocol is linear in participants: per-site message cost is
    # flat (within 2x across the sweep) and the 3-site exchange stays
    # under the EX18 budget of 16 messages end to end.
    per_site = [row[2] for row in rows]
    assert max(per_site) <= 2 * min(per_site)
    assert rows[1][1] <= 16
    benchmark(lambda: _happy_path(3))


def test_bench_recovery_convergence_after_coordinator_crash(benchmark):
    """Rounds to a settled cluster, per crashed protocol phase."""
    spec = get("cluster_group_commit")
    phases = ("gc_begin", "prepare", "vote", "decision", "ack")
    steps_by_phase = {}
    for number, detail in probe(spec).messages:
        kind = detail.split(":")[-1]
        if kind in phases:
            steps_by_phase.setdefault(kind, (number, detail))
    coordinator = sorted(spec.sites)[0]

    def crash_at(step):
        return run_plan(spec, FaultPlan(site_crash_at=(coordinator, step)))

    rows = []
    for phase in phases:
        step, __ = steps_by_phase[phase]
        result = crash_at(step)
        assert result.ok, result.describe()
        rows.append([phase, step, result.system.rounds, result.oracle.ok])
    print_table(
        "EX18: convergence after coordinator crash, by protocol phase",
        ["crashed at", "msg step", "rounds to settle", "oracles ok"],
        rows,
    )
    # Every phase settles inside one convergence budget — no crash
    # position strands the cluster in a permanent inquiry storm.
    settle_rounds = [row[2] for row in rows]
    assert max(settle_rounds) <= 400
    first_step = steps_by_phase["gc_begin"][0]
    benchmark(lambda: crash_at(first_step))
