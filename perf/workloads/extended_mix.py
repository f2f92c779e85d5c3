"""extended_mix — the paper's extended models, round-robin on one runtime.

Six kinds of unit, each ending in a scripted outcome that ``verify``
checks against the counters:

=========== ============================================== ==============
kind        what runs                                      net effect
=========== ============================================== ==============
saga        three incrementing steps; when scripted to      +1 +1 +1, or
            fail, step 3 aborts and steps 2, 1 compensate   nothing
nested      parent requires two children and attempts a     +1 +1 0
            third that aborts; their work is delegated up
split       increments a and b, splits b off to a           +1 +1 +1
            transaction that increments c, joins it back
contingent  first alternative writes then aborts, the       0 +1 (third
            second commits                                  untouched)
cooperative two transactions edit one counter three times   +6
            each under mutual permits, commits coupled
workflow    durable execution: contingent step, signal      +1 +1, or
            wait, second step; when scripted to fail the    nothing
            second step aborts and the first compensates
=========== ============================================== ==============
"""

from __future__ import annotations

from repro.models import (
    attempt_subtransaction,
    establish_cooperation,
    join_transaction,
    require_subtransaction,
    run_contingent,
    run_saga,
    split_transaction,
)
from repro.models.saga import SagaStep
from repro.workflow.definition import DefinitionRegistry, WorkflowDefinition
from repro.workflow.durable import DurableWorkflowEngine
from repro.workflow.execution import ExecutionStatus
from repro.workflow.spec import WorkflowSpec

from perf import inputs as gen
from perf.clients import run_sequential
from perf.workload import CounterWorkload, decode, encode, increment

EDITS = 3  # per cooperating transaction


def add(tx, oid, delta):
    value = decode((yield tx.read(oid)))
    yield tx.write(oid, encode(value + delta))


def write_then_abort(tx, oid):
    yield from add(tx, oid, 1)
    yield tx.abort()


def nest(tx, first, second, doomed):
    yield from require_subtransaction(tx, increment, (first,))
    yield from require_subtransaction(tx, increment, (second,))
    survived = yield from attempt_subtransaction(
        tx, write_then_abort, (doomed,)
    )
    return survived is None


def split_and_join(tx, kept, moved, other):
    yield from add(tx, kept, 1)
    yield from add(tx, moved, 1)
    half = yield from split_transaction(
        tx, increment, oids=[moved], args=(other,)
    )
    joined = yield from join_transaction(tx, half)
    # The half delegated everything back; its own fate no longer matters.
    yield tx.abort(half)
    return joined


def _bump(raw):
    return encode(decode(raw) + 1), None


def editor(tx, oid):
    for _ in range(EDITS):
        yield tx.operation(oid, "write", _bump)


class ExtendedMix(CounterWorkload):
    name = "extended_mix"
    why = (
        "the paper's contribution: delegate, permit, form_dependency and"
        " the models and durable workflows built on them"
    )
    units = 900
    clients = 1
    objects = 256

    def generate(self, seed, units):
        return gen.extended_mix(seed, units, self.objects)

    def build(self):
        super().build()
        # The workflow's step bodies are fixed when the definition is
        # registered, so they read the unit in flight from here.  (The
        # shipped ``workflow.travel`` definition is not used: its booking
        # lists grow without bound.)
        self.flow = [None, None, False]
        registry = DefinitionRegistry()
        registry.register(self._definition())
        self.raw_engine = DurableWorkflowEngine(self.raw_runtime, registry)
        wrap, wrap_call = self.tracer.wrap, self.tracer.wrap_call
        self.engine = wrap("workflow", self.raw_engine)
        self.run_saga = wrap_call("models.run_saga", run_saga)
        self.run_contingent = wrap_call("models.run_contingent", run_contingent)
        self.cooperate = wrap_call(
            "models.establish_cooperation", establish_cooperation
        )

    def _definition(self):
        flow = self.flow

        def unavailable(tx):
            yield from write_then_abort(tx, flow[0])

        def reserve(tx):
            yield from add(tx, flow[0], 1)

        def release(tx):
            yield from add(tx, flow[0], -1)

        def confirm(tx):
            if flow[2]:
                yield from write_then_abort(tx, flow[1])
            yield from add(tx, flow[1], 1)

        spec = WorkflowSpec(name="perf_flow_spec")
        first = spec.task("reserve")
        first.alternative(unavailable, label="unavailable")
        first.alternative(reserve, label="reserve")
        first.compensate_with(release)
        second = spec.task("confirm", depends_on=("reserve",))
        second.alternative(confirm, label="confirm")
        return WorkflowDefinition("perf_flow", spec).wait_for("confirm", "go")

    # -- the six kinds -----------------------------------------------------

    def _saga(self, fails, a, b, c):
        last = write_then_abort if fails else increment
        result = self.run_saga(self.raw_runtime, [
            SagaStep(increment, add, (a,), (a, -1)),
            SagaStep(increment, add, (b,), (b, -1)),
            SagaStep(last, None, (c,)),
        ])
        if fails:
            return not result.committed and result.compensated_steps == 2
        return result.committed

    def _nested(self, fails, a, b, c):
        result = self.runtime.run(nest, args=(a, b, c))
        return result.committed and result.value is True

    def _split(self, fails, a, b, c):
        result = self.runtime.run(split_and_join, args=(a, b, c))
        return result.committed and result.value == 1

    def _contingent(self, fails, a, b, c):
        result = self.run_contingent(
            self.raw_runtime, [(write_then_abort, (a,)), (increment, (b,))]
        )
        return result.committed and result.chosen_index == 1

    def _cooperative(self, fails, a, b, c):
        left = self.runtime.spawn(editor, args=(a,))
        right = self.runtime.spawn(editor, args=(a,))
        self.cooperate(self.manager, left, right, oids=[a], mutual=True)
        outcomes = self.runtime.commit_all([left, right])
        return outcomes[left] == 1 and outcomes[right] == 1

    def _workflow(self, fails, a, b, c):
        self.flow[:] = (a, b, fails)
        engine = self.engine
        wid = engine.start("perf_flow")
        if engine.status(wid) is not ExecutionStatus.WAITING_SIGNAL:
            return False
        engine.signal(wid, "go")
        wanted = (
            ExecutionStatus.COMPENSATED if fails else ExecutionStatus.COMPLETED
        )
        return engine.status(wid) is wanted

    def run(self, inputs, recorder):
        oids = self.oids
        kinds = {
            "saga": self._saga,
            "nested": self._nested,
            "split": self._split,
            "contingent": self._contingent,
            "cooperative": self._cooperative,
            "workflow": self._workflow,
        }

        def do_unit(item):
            kind, fails, (a, b, c) = item
            return kind, kinds[kind](fails, oids[a], oids[b], oids[c])

        run_sequential(inputs, do_unit, recorder)

    # -- what the counters must read afterwards ----------------------------

    def increments(self, inputs):
        out = []
        for kind, fails, (a, b, c) in inputs:
            if kind in ("saga", "split") and not fails:
                out.append((a, b, c))
            elif kind == "nested" or (kind == "workflow" and not fails):
                out.append((a, b))
            elif kind == "contingent":
                out.append((b,))
            elif kind == "cooperative":
                out.append((a,) * (2 * EDITS))
            else:  # a compensated saga or workflow leaves nothing behind
                out.append(())
        return out

    def counters(self):
        out = super().counters()
        out["workflow.records"] = len(self.raw_engine.timeline)
        out["workflow.executions"] = self.raw_engine.stats["started"]
        return out
