"""Cluster properties mandated by EX18.

1. **Abort propagation** — a console abort of *any* component, at *any*
   site, before the vote means no component of the group ever commits,
   at any site.
2. **Coordinator-crash convergence** — power-cut the coordinator at
   *every* numbered 2PC message step: after restart, every site settles
   on one global outcome (no split-brain, nothing permanently in doubt).

Both properties quantify over the structure that matters (the victim
component; the crash step) exhaustively rather than sampling — the
message-step universe is small and deterministic, so Hypothesis-style
sampling would only blur the guarantee.
"""

import pytest

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe, run_plan
from repro.cluster import Cluster
from repro.storage.log import CommitRecord

SITES = ("alpha", "beta", "gamma")


def _account(tag):
    def body(tx):
        oid = yield tx.create(tag + b"0")
        yield tx.write(oid, tag + b"1")
        return oid

    return body


def _committed(site):
    return {
        record.tid.value
        for record in site.durable_records()
        if isinstance(record, CommitRecord)
    }


@pytest.mark.parametrize("victim_index", range(len(SITES)))
def test_component_abort_on_any_site_aborts_the_whole_group(victim_index):
    """Property 1, quantified over the aborted component's position."""
    cluster = Cluster(sites=SITES)
    refs = [cluster.spawn_at(name, _account(name.encode())) for name in SITES]
    for ref in refs:
        cluster.wait(ref)
    cluster.link_group(refs)
    cluster.abort(refs[victim_index], reason=f"component {victim_index} vetoes")
    cluster.settle(8)
    outcome = cluster.group_commit(refs)
    assert not outcome.committed
    cluster.converge()
    for ref in refs:
        assert ref.tid.value not in _committed(cluster.sites[ref.site])
    report, __ = cluster.evaluate(label=f"veto by {refs[victim_index]}")
    assert report.ok, report.describe()


def _coordinator_crash_cases():
    """Every 2PC protocol message step of the happy-path scenario.

    The probe numbers all fabric messages; the property quantifies over
    the protocol subset (gc_begin/prepare/vote/decision/ack and the
    inquiry pair) — crashing at a console RPC step exercises nothing the
    RPC retry tests don't already cover.
    """
    protocol_kinds = {
        "gc_begin", "prepare", "vote", "decision", "ack",
        "status_req", "status_rep",
    }
    spec = get("cluster_group_commit")
    steps = [
        (number, detail)
        for number, detail in probe(spec).messages
        if detail.split(":")[-1] in protocol_kinds
    ]
    assert steps
    return spec, steps


_SPEC, _STEPS = _coordinator_crash_cases()


@pytest.mark.parametrize(
    "step,detail", _STEPS, ids=[f"{n}-{d}" for n, d in _STEPS]
)
def test_coordinator_crash_at_every_protocol_step_converges(step, detail):
    """Property 2: one global outcome per group, no permanent doubt."""
    coordinator = sorted(_SPEC.sites)[0]  # group_commit defaults to refs[0]
    plan = FaultPlan(site_crash_at=(coordinator, step))
    result = run_plan(_SPEC, plan)
    assert result.converged, result.describe()
    assert result.oracle.ok, result.oracle.describe()
    # And the outcome is *one* outcome: every member either appears in
    # its site's durable commits or in none — never mixed.
    cluster = result.system
    for gid, group in cluster.groups.items():
        fates = {
            site: tid.value in _committed(cluster.sites[site])
            for site, tid in group["members"].items()
        }
        assert len(set(fates.values())) == 1, (gid, fates)


def test_crash_sweep_covers_all_protocol_message_kinds():
    """The quantification really spans the protocol, not a corner of it."""
    kinds = {detail.split(":")[-1] for __, detail in _STEPS}
    assert {"gc_begin", "prepare", "vote", "decision"} <= kinds
