"""Property: the parallel workflow driver agrees with the sequential one,
and a durable run *is* the sequential one.

Random workflow specs — random dependency DAGs, optional flags, and
deterministic per-task failure patterns — must produce the same success
flag under both drivers, and identical statuses whenever the workflow
succeeds.  On failure the drivers legitimately diverge for tasks
*independent* of the failing one: the sequential driver never started
them (SKIPPED), while the parallel driver may have already committed
them (then compensated, if a compensation exists) — the price of
overlap, just as in production workflow systems.  The property pins down
exactly that boundary: tasks downstream of a failure agree, and no
compensated task ever stays COMMITTED.  The same plans registered as a
definition and run with ``start`` must equal the sequential ``execute``
in every status, counter and transaction — and be the only run that
wrote workflow records to the log.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workload import populate_objects
from repro.common.codec import decode_int, encode_int
from repro.common.events import EventKind
from repro.runtime.coop import CooperativeRuntime
from repro.workflow.definition import DefinitionRegistry, WorkflowDefinition
from repro.workflow.engine import TaskStatus, WorkflowEngine
from repro.workflow.spec import WorkflowSpec
from tests.conftest import workflow_records

MAX_TASKS = 5

task_plan = st.tuples(
    st.booleans(),  # optional?
    st.integers(0, 3),  # which alternative succeeds (3 = none)
    st.integers(0, 2**(MAX_TASKS - 1) - 1),  # dependency mask (earlier)
    st.booleans(),  # has compensation?
)


def build_spec(plans, oids):
    spec = WorkflowSpec("prop")
    for index, (optional, succeed_at, dep_mask, has_comp) in enumerate(
        plans
    ):
        deps = tuple(
            f"t{dep}" for dep in range(index) if dep_mask & (1 << dep)
        )
        task = spec.task(f"t{index}", optional=optional, depends_on=deps)
        for alt in range(3):
            fail = alt != succeed_at

            def body(tx, index=index, alt=alt, fail=fail):
                value = decode_int((yield tx.read(oids[index])))
                yield tx.write(oids[index], encode_int(value + 1))
                if fail:
                    yield tx.abort()

            task.alternative(body, label=f"a{alt}")
        if has_comp:
            def comp(tx, index=index):
                value = decode_int((yield tx.read(oids[index])))
                yield tx.write(oids[index], encode_int(value - 1))

            task.compensate_with(comp)
    return spec


def run_engine(plans, parallel, durable=False):
    """One run of the generated plans; ``durable`` registers the spec as
    a definition and runs it with ``start`` instead of ``execute``."""
    rt = CooperativeRuntime(seed=9)
    oids = populate_objects(rt, len(plans))
    spec = build_spec(plans, oids)
    made = []  # every transaction's begin and fate, in order
    rt.manager.events.subscribe(
        lambda event: made.append((event.kind, event.tid.value)),
        kinds=(EventKind.INITIATE, EventKind.COMMITTED, EventKind.ABORTED),
    )
    if durable:
        registry = DefinitionRegistry()
        registry.register(WorkflowDefinition("prop", spec))
        engine = WorkflowEngine(rt, registry)
        result = engine.execution(engine.start("prop"))
    else:
        result = WorkflowEngine(rt).execute(spec, parallel=parallel)
    statuses = {task.name: result.status_of(task.name) for task in spec}
    made = list(made)  # before the reader below adds its own
    logged = sum(
        1 for __ in workflow_records(rt.manager.storage.log.records())
    )

    def reader(tx):
        values = []
        for oid in oids:
            values.append(decode_int((yield tx.read(oid))))
        return values

    finals = rt.run(reader).value
    return result.success, statuses, finals, made, logged


class TestEngineEquivalence:
    @given(plans=st.lists(task_plan, min_size=1, max_size=MAX_TASKS))
    @settings(max_examples=60, deadline=None)
    def test_sequential_and_parallel_agree(self, plans):
        sequential = run_engine(plans, False)
        seq_success, seq_statuses, seq_finals, __, seq_logged = sequential
        par_success, par_statuses, par_finals, *__ = run_engine(plans, True)
        # The same plans as a registered definition: one driver, so the
        # durable run is the sequential run — same statuses, counters
        # and transactions in the same order — plus the log records that
        # only it writes.
        durable = run_engine(plans, False, durable=True)
        assert durable[:4] == sequential[:4], plans
        assert seq_logged == 0 and durable[4] > 0, plans
        assert seq_success == par_success, plans
        if seq_success:
            # Success: both engines committed exactly the same tasks and
            # left identical object state.
            assert seq_statuses == par_statuses, plans
            assert seq_finals == par_finals, plans
            return
        # Failure: detection timing differs in BOTH directions (the
        # parallel engine may commit independents the sequential one
        # never reached, and may abandon tasks the sequential one had
        # time to commit).  The portable guarantees are:
        # 1. both report at least one failed/skipped required task;
        # 2. in both, no task with a compensation ends COMMITTED
        #    (abandonment always compensates);
        # 3. a task that FAILED under one engine never COMMITTED under
        #    the other (failure is body-deterministic; only whether it
        #    was attempted varies).
        for statuses in (seq_statuses, par_statuses):
            assert any(
                statuses[f"t{index}"]
                in (TaskStatus.FAILED, TaskStatus.SKIPPED)
                for index, (optional, *_r) in enumerate(plans)
                if not optional
            ), plans
            for index, plan in enumerate(plans):
                if plan[3]:  # has a compensation
                    assert statuses[f"t{index}"] is not TaskStatus.COMMITTED
        for name in seq_statuses:
            pair = {seq_statuses[name], par_statuses[name]}
            assert pair != {TaskStatus.FAILED, TaskStatus.COMMITTED}, (
                name, plans,
            )

    @given(plans=st.lists(task_plan, min_size=1, max_size=MAX_TASKS))
    @settings(max_examples=40, deadline=None)
    def test_statuses_are_internally_consistent(self, plans):
        success, statuses, finals, *__ = run_engine(plans, True)
        if success:
            # A successful workflow committed every required task.
            for index, (optional, *_rest) in enumerate(plans):
                if not optional:
                    assert statuses[f"t{index}"] is TaskStatus.COMMITTED
        else:
            # A failed workflow has at least one failed/skipped required
            # task and no lingering un-compensated committed-with-comp
            # tasks... committed tasks WITHOUT a compensation may remain.
            assert any(
                statuses[f"t{index}"]
                in (TaskStatus.FAILED, TaskStatus.SKIPPED)
                for index, (optional, *_r) in enumerate(plans)
                if not optional
            )
            for index, plan in enumerate(plans):
                has_comp = plan[3]
                if has_comp:
                    assert statuses[f"t{index}"] is not TaskStatus.COMMITTED
