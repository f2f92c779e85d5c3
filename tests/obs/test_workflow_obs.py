"""Workflow observability: counters, stats gauges, per-execution spans."""

from repro.common.codec import encode_int
from repro.core.manager import TransactionManager
from repro.obs import ObservabilityKit
from repro.runtime.coop import CooperativeRuntime
from repro.workflow.definition import DefinitionRegistry, WorkflowDefinition
from repro.workflow.engine import WorkflowEngine
from repro.workflow.spec import WorkflowSpec
from tests.conftest import incrementer, make_counters, workflow_records


def _set_value(tx, oid, value):
    yield tx.write(oid, encode_int(value))
    return value


def _attached_engine():
    rt = CooperativeRuntime(TransactionManager(), seed=3)

    def setup(tx):
        return {
            "order": (yield tx.create(encode_int(0), name="order")),
            "audit": (yield tx.create(encode_int(0), name="audit")),
        }

    oids = rt.run(setup).value
    spec = WorkflowSpec(name="approval_spec")
    place = spec.task("place")
    place.alternative(_set_value, args=(oids["order"], 1), label="place")
    place.compensate_with(_set_value, args=(oids["order"], 0))
    confirm = spec.task("confirm", depends_on=("place",))
    confirm.alternative(_set_value, args=(oids["audit"], 1), label="confirm")
    definition = WorkflowDefinition("approval", spec).wait_for(
        "confirm", "approve", timeout=30
    )
    registry = DefinitionRegistry()
    registry.register(definition)
    engine = WorkflowEngine(rt, registry)
    kit = ObservabilityKit()
    kit.attach_manager(rt.manager)
    kit.attach_workflow(engine)
    return engine, kit


class TestCountersAndGauges:
    def test_live_counters_and_stats_gauges(self):
        engine, kit = _attached_engine()
        wid = engine.start("approval")
        engine.signal(wid, "approve")
        snap = kit.snapshot()
        assert snap["counters"]["workflow.started"] == 1
        assert snap["counters"]["workflow.completed"] == 1
        assert snap["counters"]["workflow.steps_committed"] == 2
        assert snap["counters"]["workflow.signals"] == 1
        assert snap["gauges"]["workflow.stats.completed"] == 1

    def test_compensation_counted(self):
        engine, kit = _attached_engine()
        wid = engine.start("approval")
        engine.expire_wait(wid)
        snap = kit.snapshot()
        assert snap["counters"]["workflow.timeouts"] == 1
        assert snap["counters"]["workflow.compensations"] == 1
        assert snap["gauges"]["workflow.stats.compensated"] == 1


class TestExecutionSpans:
    def test_span_opens_annotates_and_closes(self):
        engine, kit = _attached_engine()
        wid = engine.start("approval")
        engine.signal(wid, "approve", "qa")
        spans = [
            span for span in kit.spans.export()
            if span["trace"] == "workflow"
        ]
        assert len(spans) == 1
        span = spans[0]
        assert span["tid"] == wid
        assert span["status"] == "completed"
        assert span["end"] is not None
        kinds = [link["type"] for link in span["links"]]
        assert kinds[0] == "started"
        assert "step_attempt" in kinds
        assert "signal_wait" in kinds
        assert "signal" in kinds
        assert kinds[-1] == "finished"
        # Step attempts carry enough to join against transaction spans.
        attempt = next(
            link for link in span["links"] if link["type"] == "step_attempt"
        )
        assert attempt["step"] == "place"
        assert attempt["tid"] > 0

    def test_attach_is_idempotent(self):
        engine, kit = _attached_engine()
        kit.attach_workflow(engine)  # second attach: no double wiring
        wid = engine.start("approval")
        engine.signal(wid, "approve")
        snap = kit.snapshot()
        assert snap["counters"]["workflow.started"] == 1
        spans = [
            span for span in kit.spans.export()
            if span["trace"] == "workflow"
        ]
        assert len(spans) == 1

    def test_each_anonymous_execution_has_a_span_of_its_own(self):
        """Anonymous executions share no wid, so three of them make three
        spans, each closed with its own outcome — and none is logged."""
        rt = CooperativeRuntime(TransactionManager(), seed=3)
        engine = WorkflowEngine(rt)
        kit = ObservabilityKit()
        kit.attach_workflow(engine)
        [oid] = make_counters(rt, 1)
        for fail in (False, True, False):
            spec = WorkflowSpec()
            spec.task("inc").alternative(incrementer(oid, fail=fail))
            engine.execute(spec)
        spans = [
            span for span in kit.spans.export()
            if span["trace"] == "workflow"
        ]
        assert [span["status"] for span in spans] == [
            "completed", "compensated", "completed",
        ]
        assert len({span["tid"] for span in spans}) == 3
        for span in spans:
            kinds = [link["type"] for link in span["links"]]
            assert kinds.count("started") == kinds.count("finished") == 1
        assert not list(workflow_records(rt.manager.storage.log.records()))
        assert engine.executions() == {}
