"""A fault-free cluster carries no fault injector, and its identifiers
are ints: no step is numbered that no plan reads, and no id probe runs
Python code.

Exact counts, no wall clock.  With a plan (or an injector) attached the
cluster numbers every send, append and flush exactly as before: the
step trace and delivery log of three committed groups below were
recorded at the parent commit, where ``Cluster()`` still built a default
injector.
"""

import hashlib
from collections import Counter
from pathlib import Path
from types import CodeType

import repro.chaos
import repro.common.ids
from repro.chaos.cluster_scenarios import planned_cluster
from repro.chaos.faults import FaultInjector, FaultPlan
from repro.cluster import Cluster
from tests.cluster.test_round_cost import calls_during, commit_groups

CHAOS = str(Path(repro.chaos.__file__).parent)
IDS = repro.common.ids.__file__

# Three committed groups on a planned cluster, as the parent numbered them
# — but for the three commit decision appends, smaller now by the
# acknowledged members they no longer name (no step moved:
# ``tests/chaos/golden/decision_remap.py`` checks the mapping).
PLANNED_STEPS = (180, "7c19012fc07469b7")
PLANNED_DELIVERIES = (120, "de171d64f9e810b7")


def _digest(lines):
    lines = list(lines)
    text = "\n".join(lines).encode()
    return len(lines), hashlib.sha256(text).hexdigest()[:16]


def _frames_during(function):
    """``(filename, function name)`` of every Python frame entered."""
    return [
        (callee.co_filename, callee.co_name)
        for callee in calls_during(function)
        if isinstance(callee, CodeType)
    ]


def _stacks(cluster):
    for site in cluster.sites.values():
        storage = site.storage
        yield site.injector
        yield storage.injector
        yield storage.pool.injector
        yield storage.disk.injector
        yield storage.log.device.injector


class TestAFaultFreeClusterHasNoInjector:
    def test_not_on_the_cluster_the_fabric_or_any_site(self):
        cluster = Cluster()
        cluster.join_site("delta")
        assert cluster.injector is None
        assert cluster.fabric.injector is None
        assert set(_stacks(cluster)) == {None}
        assert len(cluster.sites) == 4

    def test_its_groups_commit_and_no_step_is_numbered(self):
        cluster = Cluster()
        commit_groups(cluster, 3)
        log = cluster.fabric.delivery_log
        assert len(log) == PLANNED_DELIVERIES[0]
        assert {(number, action) for number, *__, action in log} == {
            (None, "deliver")
        }

    def test_no_chaos_code_runs(self):
        cluster = Cluster()
        commit_groups(cluster, 1)
        frames = _frames_during(lambda: commit_groups(cluster, 4))
        assert not [f for f in frames if f[0].startswith(CHAOS)]


class TestIdsAreInts:
    def test_a_group_runs_only_id_constructors(self):
        """Hash, equality and order run in C; what is left in
        ``common/ids.py`` is making ids: seven tids and three object ids
        per group.  (1,524 calls at the parent: 1,484 ``__hash__``.)"""
        cluster = Cluster()
        commit_groups(cluster, 1)
        frames = _frames_during(lambda: commit_groups(cluster, 4))
        called = Counter(name for path, name in frames if path == IDS)
        assert called == {"next": 7 * 4, "__new__": 3 * 4}


class TestAPlannedClusterNumbersEveryStep:
    def test_the_parents_steps_and_deliveries(self):
        cluster = planned_cluster(FaultPlan())
        commit_groups(cluster, 3)
        assert _digest(
            f"{s.number} {s.kind} {s.detail}" for s in cluster.injector.trace
        ) == PLANNED_STEPS
        assert _digest(
            repr(entry) for entry in cluster.fabric.delivery_log
        ) == PLANNED_DELIVERIES

    def test_a_given_injector_is_the_one_every_layer_uses(self):
        injector = FaultInjector(plan=FaultPlan())
        cluster = Cluster(injector=injector)
        assert cluster.injector is injector
        assert cluster.fabric.injector is injector
        assert all(layer is injector for layer in _stacks(cluster))
