"""The simulated fabric: deterministic delivery, per-step faults,
partitions, and site power cuts.  (Planned partitions and power cuts
are the injector's marks on a cluster: ``tests/cluster/test_plan_marks.py``.)"""

import pytest

from repro.chaos.faults import NET_MSG, FaultInjector, FaultPlan
from repro.net import Message, NetworkFabric


def make_fabric(plan=None):
    injector = FaultInjector(plan=plan if plan is not None else FaultPlan())
    return NetworkFabric(injector=injector)


def wire(fabric, *names):
    logs = {}
    for name in names:
        log = logs[name] = []
        fabric.register(name, log.append)
    return logs


class TestDelivery:
    def test_send_enqueues_pump_delivers(self):
        fabric = make_fabric()
        logs = wire(fabric, "a", "b")
        msg = fabric.send("a", "b", "ping", {"n": 1})
        assert isinstance(msg, Message)
        assert logs["b"] == []  # send never delivers synchronously
        assert fabric.pump_round() == 1
        assert [m.kind for m in logs["b"]] == ["ping"]
        assert logs["b"][0].payload == {"n": 1}

    def test_handler_sends_land_next_round(self):
        fabric = make_fabric()
        received = []

        def ponger(msg):
            received.append(msg.kind)
            if msg.kind == "ping":
                fabric.send("b", "a", "pong")

        fabric.register("b", ponger)
        logs = wire(fabric, "a")
        fabric.send("a", "b", "ping")
        fabric.pump_round()
        assert received == ["ping"]
        assert logs["a"] == []  # the pong is queued, not delivered
        fabric.pump_round()
        assert [m.kind for m in logs["a"]] == ["pong"]

    def test_rounds_deliver_in_sorted_site_order(self):
        fabric = make_fabric()
        order = []
        for name in ("zeta", "alpha"):
            fabric.register(name, lambda m, n=name: order.append(n))
        fabric.send("zeta", "alpha", "x")
        fabric.send("alpha", "zeta", "y")
        fabric.pump_round()
        assert order == ["alpha", "zeta"]

    def test_pump_runs_until_quiescent(self):
        fabric = make_fabric()
        wire(fabric, "a")

        hops = []

        def relay(msg):
            hops.append(msg.payload["n"])
            if msg.payload["n"] < 3:
                fabric.send("b", "b", "hop", {"n": msg.payload["n"] + 1})

        fabric.register("b", relay)
        fabric.send("a", "b", "hop", {"n": 0})
        fabric.pump()
        assert hops == [0, 1, 2, 3]
        assert fabric.pending() == 0

    def test_unregistered_destination_is_a_drop(self):
        fabric = make_fabric()
        wire(fabric, "a")
        fabric.send("a", "ghost", "ping")
        assert fabric.pending() == 0
        assert fabric.stats["dropped"] == 1


class TestPlannedFaults:
    def test_drop_at_step(self):
        plan = FaultPlan(drop_msg_at={1})
        fabric = make_fabric(plan)
        logs = wire(fabric, "a", "b")
        fabric.send("a", "b", "first")  # step 1: dropped
        fabric.send("a", "b", "second")  # step 2: delivered
        fabric.pump()
        assert [m.kind for m in logs["b"]] == ["second"]
        assert fabric.stats["dropped"] == 1

    def test_duplicate_at_step(self):
        fabric = make_fabric(FaultPlan(dup_msg_at={1}))
        logs = wire(fabric, "a", "b")
        fabric.send("a", "b", "once")
        fabric.pump()
        assert [m.kind for m in logs["b"]] == ["once", "once"]
        assert fabric.stats["duplicated"] == 1

    def test_delay_slips_one_round(self):
        fabric = make_fabric(FaultPlan(delay_msg_at={1}))
        logs = wire(fabric, "a", "b")
        fabric.send("a", "b", "late")
        fabric.send("a", "b", "ontime")
        fabric.pump_round()
        assert [m.kind for m in logs["b"]] == ["ontime"]
        fabric.pump_round()
        assert [m.kind for m in logs["b"]] == ["ontime", "late"]

    def test_message_steps_are_recorded_for_sweeps(self):
        fabric = make_fabric()
        wire(fabric, "a", "b")
        fabric.send("a", "b", "ping")
        fabric.send("b", "a", "pong")
        steps = [
            step for step in fabric.injector.trace if step.kind == NET_MSG
        ]
        assert [step.detail for step in steps] == ["a->b:ping", "b->a:pong"]
        assert [step.number for step in steps] == [1, 2]


class TestPartitions:
    def test_partition_severs_cross_group_links(self):
        fabric = make_fabric()
        logs = wire(fabric, "a", "b", "c")
        fabric.partition((("a",), ("b", "c")))
        fabric.send("a", "b", "cross")  # severed
        fabric.send("b", "c", "within")  # same group
        fabric.pump()
        assert logs["b"] == []
        assert [m.kind for m in logs["c"]] == ["within"]
        assert fabric.stats["partition_drops"] == 1

    def test_outsiders_reach_everyone(self):
        # The console ("client") is in no group: it models the driver,
        # not a network participant.
        fabric = make_fabric()
        logs = wire(fabric, "a", "b", "client")
        fabric.partition((("a",), ("b",)))
        fabric.send("client", "a", "rpc")
        fabric.send("b", "client", "reply")
        fabric.pump()
        assert [m.kind for m in logs["a"]] == ["rpc"]
        assert [m.kind for m in logs["client"]] == ["reply"]

    def test_heal_restores_links(self):
        fabric = make_fabric()
        logs = wire(fabric, "a", "b")
        fabric.partition((("a",), ("b",)))
        fabric.send("a", "b", "lost")
        fabric.heal()
        fabric.send("a", "b", "found")
        fabric.pump()
        assert [m.kind for m in logs["b"]] == ["found"]


class TestSiteCrash:
    def test_down_site_loses_inbox_and_traffic(self):
        fabric = make_fabric()
        logs = wire(fabric, "a", "b")
        fabric.send("a", "b", "queued")
        fabric.mark_down("b")  # the queued message was in kernel buffers
        fabric.send("a", "b", "while_down")
        fabric.pump()
        assert logs["b"] == []
        assert fabric.stats["dropped"] == 2
        fabric.mark_up("b")
        fabric.send("a", "b", "after")
        fabric.pump()
        assert [m.kind for m in logs["b"]] == ["after"]


class TestDeterminism:
    def test_identical_runs_identical_logs(self):
        def run():
            fabric = make_fabric(FaultPlan(drop_msg_at={2}, dup_msg_at={4}))
            wire(fabric, "a", "b")
            for n in range(6):
                fabric.send("a", "b", f"m{n}")
            fabric.pump()
            return fabric.delivery_log, fabric.stats

    # Two fresh fabrics under the same plan must behave identically —
    # that is what makes a fault plan a reproduction recipe.
        first, second = run(), run()
        assert first == second


@pytest.mark.parametrize("bad", ["drop", "duplicate", "delay"])
def test_link_state_overrides_injector_verdict(bad):
    field = {
        "drop": "drop_msg_at",
        "duplicate": "dup_msg_at",
        "delay": "delay_msg_at",
    }[bad]
    fabric = make_fabric(FaultPlan(**{field: {1}}))
    wire(fabric, "a", "b")
    fabric.mark_down("b")
    fabric.send("a", "b", "x")
    # A down destination wins over whatever the plan wanted.
    assert fabric.delivery_log[-1][4] == "drop"
