"""A plan's cluster marks fire from the injector, on the cluster it is
bound to: never from the fabric, and never on nothing.

Raw sends between two sites number message steps without running any
protocol (a site ignores a kind it has no handler for, and nothing is
pumped), so each test sees exactly where a mark lands.
"""

import pytest

from repro.chaos.cluster_scenarios import planned_cluster
from repro.chaos.faults import FaultInjector, FaultPlan
from repro.net import NetworkFabric


def _actions(cluster, sends):
    """``sends`` raw ``alpha -> beta`` messages; every logged action."""
    for n in range(sends):
        cluster.fabric.send("alpha", "beta", f"m{n}")
    return [action for *__, action in cluster.fabric.delivery_log]


class TestTheMarksActOnTheBoundCluster:
    def test_a_partition_installs_and_heals_by_step(self):
        cluster = planned_cluster(
            FaultPlan(
                partition_at=2, heal_at=4, partition_groups=(("alpha",), ("beta",))
            ),
            sites=("alpha", "beta"),
        )
        # The message whose step installs the partition is already cut.
        assert _actions(cluster, 5) == [
            "deliver", "partition_drop", "partition_drop", "deliver", "deliver",
        ]
        assert cluster.injector.marks_fired == {"partition", "heal"}

    def test_a_site_crash_powers_the_site_off_once(self):
        cluster = planned_cluster(
            FaultPlan(site_crash_at=("beta", 2)), sites=("alpha", "beta")
        )
        crashed = []
        crash = cluster.crash_site
        cluster.crash_site = lambda name: crashed.append(name) or crash(name)
        assert _actions(cluster, 3) == ["deliver", "drop", "drop"]
        assert crashed == ["beta"]
        assert not cluster.sites["beta"].up and cluster.sites["alpha"].up

    def test_a_coordinator_kill_waits_for_a_group_in_flight(self):
        cluster = planned_cluster(
            FaultPlan(kill_coordinator_at=1), sites=("alpha", "beta")
        )
        _actions(cluster, 2)
        assert not cluster.injector.marks_fired
        cluster.coordinator = "alpha"
        _actions(cluster, 1)
        assert cluster.injector.marks_fired == {"coordinator kill"}
        assert not cluster.sites["alpha"].up and cluster.sites["beta"].up

    def test_a_join_and_a_leave_wait_for_the_next_tick(self):
        cluster = planned_cluster(
            FaultPlan(
                join_site_at=("delta", 1), leave_site_at=("beta", "gamma", 2)
            )
        )
        _actions(cluster, 3)
        assert cluster.pending_churn == [
            ("join", "delta"), ("leave", ("beta", "gamma")),
        ]
        assert "delta" not in cluster.sites
        cluster.tick()
        assert cluster.pending_churn == []
        assert "delta" in cluster.membership
        assert "beta" not in cluster.membership


def test_a_due_mark_with_no_cluster_bound_raises():
    fabric = NetworkFabric(FaultInjector(plan=FaultPlan(partition_at=2)))
    fabric.register("a", lambda message: None)
    fabric.send("a", "a", "one")
    with pytest.raises(RuntimeError, match="no cluster bound"):
        fabric.send("a", "a", "two")
