"""What one unit of work costs, as calls per layer — counts, no clock.

Two shapes, the two the benchmark's steady state is made of, and the
first again on four shards:

* one ``atomic_seq`` unit — a read-modify-write transaction run to
  commit on :class:`CooperativeRuntime`, with no dependency edge, no
  subscriber and no contention;
* one fault-free ``cluster_2pc`` group — a member on each of two sites,
  linked, committed by presumed-abort two-phase commit;
* the same unit on :class:`ShardedRuntime` over a 4-shard store: the
  one transaction manager, so it pays what the flat unit pays plus the
  segmented log and the cross-shard commit count.

Each is counted with ``sys.setprofile`` (``calls_during``, as in
``tests/cluster/test_round_cost.py``): every call into ``repro``, by
the module its code lives in.  The tables are exact.  A change that
moves them moves them here, and says why in CHANGES.md.

What the atomic unit no longer pays for, by name: a dependency probe
beyond one for a tid with no edges (a miss is the shared empty tuple),
a property call for a status flag, a second ``begin_blockers`` per
``begin``, an ``emit`` call for a kind nobody watches, the commit
driver's ``commit_when_ended`` / ``is_final`` on every round while the
code still runs, and clearing pending requests on a grant when the
transaction has none.  What the group no longer pays for: a walk of the
GC edges to find its component (the graph keeps it), a list merge per
``involving`` when only one side has edges, lease bookkeeping in
``resilience`` (the leases are two ticks on the group record), and link
checks on a fabric where no link can fail.  The counts do not depend on
``PYTHONHASHSEED`` (CI runs the gate under seeds 0-5).
"""

import gc
import sys
import types
from collections import Counter
from pathlib import Path

from repro.cluster import Cluster
from repro.core.dependency import DependencyEdge, DependencyGraph
from repro.runtime.coop import CooperativeRuntime
from repro.runtime.sharded import ShardedRuntime
from tests.cluster.test_round_cost import calls_during
from tests.conftest import incrementer, make_counters

_SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro") + "/"

# Calls per layer for one atomic unit: 143 (209 when the gate came in,
# where a tid with no edges still paid hashtable 14, dependency 9,
# status 14, events 9, outcomes 9 and manager 14; then 147, until a
# grant stopped clearing the pending requests of a transaction with
# none: locks 10 -> 8, descriptors 27 -> 25).  A latch use is 8 calls:
# held, the guard's init, enter and exit, acquire with the one entry
# rule (_may_enter, _enter), release.
ATOMIC_UNIT = {
    "common.codec": 2,
    "common.hashtable": 3,
    "common.ids": 1,
    "common.latch": 16,
    "core.descriptors": 25,
    "core.locks": 8,
    "core.manager": 11,
    "core.outcomes": 2,
    "core.permits": 1,
    "core.semantics": 3,
    "runtime.coop": 17,
    "runtime.program": 5,
    "storage.buffer": 4,
    "storage.log": 19,
    "storage.objects": 15,
    "storage.page": 6,
    "storage.store": 5,
}

# Calls per layer for one 2-site group: 840 (1,151 when the gate came
# in, with hashtable 94, dependency 77, status 58, descriptors 110 and
# events 32: the site's narrow subscription made every emit site call;
# then 977, with hashtable 72, dependency 33, fabric 84, clock 34,
# descriptors 98, locks 22 and resilience.deadlines 24, until the GC
# component was kept, not walked, the two leases moved onto the group
# record and a fabric with no failing link stopped checking links; then
# 847, with dependency 21, until the dependency-type flags became member
# attributes).
# ``resilience.retry`` is the console's RPC wrapper, 1 call per RPC.
TWO_SITE_GROUP = {
    "cluster.cluster": 47,
    "cluster.group": 2,
    "cluster.site": 202,
    "common.clock": 30,
    "common.codec": 4,
    "common.events": 4,
    "common.hashtable": 34,
    "common.ids": 4,
    "common.latch": 32,
    "core.dependency": 14,
    "core.descriptors": 94,
    "core.locks": 18,
    "core.manager": 64,
    "core.outcomes": 6,
    "core.permits": 4,
    "core.semantics": 6,
    "net.fabric": 40,
    "resilience.retry": 7,
    "runtime.coop": 56,
    "runtime.program": 10,
    "storage.buffer": 8,
    "storage.log": 99,
    "storage.objects": 30,
    "storage.page": 12,
    "storage.store": 13,
}


# Calls per layer for one atomic unit on four shards: 152 (205 with the
# striped manager: latch 28, hashtable 9, descriptors 29, permits 3,
# core.sharded 21 and core.sharding 7 for the shard latches, the striped
# registry and the striped dependency index).  Over ATOMIC_UNIT: the
# try_commit that reads the store's cross-shard commit count, the
# segmented log's merged view and the facade's shard routing and commit
# barrier.
SHARDED_UNIT = {
    **ATOMIC_UNIT,
    "core.sharded": 1,
    "storage.segmented": 4,
    "storage.store": 9,
}


def repro_calls(function):
    """``function()``'s calls into ``repro``, per layer."""
    return Counter(
        code.co_filename[len(_SRC):-3].replace("/", ".")
        for code in calls_during(function)
        if getattr(code, "co_filename", "").startswith(_SRC)
    )


def atomic_unit_calls(runtime=None):
    runtime = runtime if runtime is not None else CooperativeRuntime()
    oids = make_counters(runtime, 4)
    for index in range(8):  # past every first-use path
        assert runtime.run(incrementer(oids[index % 4])).committed

    def unit():
        assert runtime.run(incrementer(oids[1])).committed

    return repro_calls(unit)


def two_site_group():
    """A warmed two-site cluster's next group: run it to count it."""
    cluster = Cluster(sites=("alpha", "beta"))
    oids = {}
    for site in cluster.sites:
        runtime = cluster.sites[site].runtime
        oids[site] = make_counters(runtime, 2)

    def group():
        refs = [
            cluster.spawn_at(site, incrementer(oids[site][0]))
            for site in ("alpha", "beta")
        ]
        for ref in refs:
            cluster.wait(ref)
        cluster.link_group(refs)
        assert cluster.group_commit(refs, coordinator="alpha").committed

    for __ in range(4):
        group()
    return group


def two_site_group_calls():
    return repro_calls(two_site_group())


def calls_with_callers(function):
    """``(caller code, callee)`` for every Python and builtin call
    ``function()`` makes, collector held off as in ``calls_during``."""
    seen = []

    def profiler(frame, event, arg):
        if event == "call":
            seen.append((frame.f_back.f_code, frame.f_code))
        elif event == "c_call" and arg is not sys.setprofile:
            seen.append((frame.f_code, arg))

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return seen


class TestTheAtomicUnit:
    def test_calls_per_layer(self):
        assert dict(atomic_unit_calls()) == ATOMIC_UNIT

    def test_within_the_budget(self):
        assert sum(ATOMIC_UNIT.values()) <= 165  # 209 at the parent

    def test_an_edgeless_tid_walks_no_edge(self):
        calls = atomic_unit_calls()
        assert "core.dependency" not in calls
        assert calls["common.hashtable"] == 3
        assert "core.status" not in calls
        assert "common.events" not in calls


class TestTheShardedUnit:
    def test_calls_per_layer(self):
        calls = atomic_unit_calls(ShardedRuntime(n_shards=4))
        assert dict(calls) == SHARDED_UNIT

    def test_one_manager_pays_no_latch_of_its_own(self):
        """Frames are latched by storage, as on one shard; no shard
        latch, striped registry or striped index is left to pay for."""
        calls = atomic_unit_calls(ShardedRuntime(n_shards=4))
        assert calls["common.latch"] == atomic_unit_calls()["common.latch"]
        assert "core.sharding" not in calls
        assert sum(calls.values()) <= 160  # 205 with the striped manager


class TestTheTwoSiteGroup:
    def test_calls_per_layer(self):
        assert dict(two_site_group_calls()) == TWO_SITE_GROUP

    def test_within_the_budget(self):
        assert sum(TWO_SITE_GROUP.values()) <= 880  # 977 before the kept component

    def test_a_group_commit_visits_no_edge(self):
        """Its GC component is a lookup: ``gc_group`` runs, calls no
        Python code (no ``involving``, no walk), no edge is asked for its
        other end, and no lease is kept in ``resilience.deadlines``."""
        seen = calls_with_callers(two_site_group())
        lookups = DependencyGraph.gc_group.__code__
        assert sum(callee is lookups for __, callee in seen) >= 4
        assert not [
            callee for caller, callee in seen
            if caller is lookups and isinstance(callee, types.CodeType)
        ]
        assert DependencyEdge.other.__code__ not in {c for __, c in seen}
        layers = two_site_group_calls()
        assert "resilience.deadlines" not in layers
        assert [k for k in layers if k.startswith("resilience")] == [
            "resilience.retry"
        ]
