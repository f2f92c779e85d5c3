"""The workflow unit of the mini-language.

Section 3.2.3: "it is possible to design a language to specify workflows.
These would then be translated into the code given here."  This is that
language: ``workflow { task ... }`` compiles onto the workflow engine,
which drives the same primitives the appendix program calls by hand.
"""

import pytest

from repro.common.codec import decode_json, encode_json
from repro.lang import compile_source
from repro.lang.lexer import LangSyntaxError
from repro.lang.parser import parse
from repro.lang import ast_nodes as ast
from repro.workflow.engine import TaskStatus

X_CONFERENCE = """
workflow {
  task flight {
    trans { if (read(delta) == 0) { abort; } write(delta, read(delta) - 1); }
    else trans { if (read(united) == 0) { abort; } write(united, read(united) - 1); }
    else trans { if (read(american) == 0) { abort; } write(american, read(american) - 1); }
  }
  compensating trans {
    if (read(delta) < 5) { write(delta, read(delta) + 1); }
    else { if (read(united) < 5) { write(united, read(united) + 1); }
           else { write(american, read(american) + 1); } }
  }
  task hotel requires flight {
    trans { if (read(equator) == 0) { abort; } write(equator, read(equator) - 1); }
  }
  optional race task car requires hotel {
    trans { if (read(national) == 0) { abort; } write(national, read(national) - 1); }
    else trans { if (read(avis) == 0) { abort; } write(avis, read(avis) - 1); }
  }
}
"""


class TestParsing:
    def test_task_structure(self):
        unit = parse(X_CONFERENCE)
        assert isinstance(unit, ast.WorkflowUnit)
        flight, hotel, car = unit.tasks
        assert flight.name == "flight"
        assert len(flight.alternatives) == 3
        assert flight.compensation is not None
        assert hotel.requires == ("flight",)
        assert hotel.compensation is None
        assert car.optional and car.race
        assert car.requires == ("hotel",)

    def test_modifier_order_flexible(self):
        first = parse("workflow { optional race task t { trans { abort; } } }")
        second = parse("workflow { race optional task t { trans { abort; } } }")
        assert first.tasks[0].optional and first.tasks[0].race
        assert second.tasks[0].optional and second.tasks[0].race

    def test_empty_workflow_rejected(self):
        with pytest.raises(LangSyntaxError, match="empty workflow"):
            parse("workflow { }")

    def test_model_name(self):
        assert compile_source(
            "workflow { task t { trans { abort; } } }"
        ).model == "workflow"


@pytest.fixture
def inventory(rt):
    def setup(tx):
        objects = {}
        for name, value in [
            ("delta", 5), ("united", 5), ("american", 5),
            ("equator", 5), ("national", 5), ("avis", 5),
        ]:
            objects[name] = yield tx.create(encode_json(value), name=name)
        return objects

    return rt.run(setup).value


def value_of(rt, inventory, name):
    def body(tx):
        return decode_json((yield tx.read(inventory[name])))

    return rt.run(body).value


class TestExecution:
    def test_happy_path(self, rt, inventory):
        result = compile_source(X_CONFERENCE).execute(rt, objects=inventory)
        assert result.success
        assert result.steps["flight"].status is TaskStatus.COMMITTED
        assert value_of(rt, inventory, "delta") == 4
        assert value_of(rt, inventory, "equator") == 4
        cars = value_of(rt, inventory, "national") + value_of(
            rt, inventory, "avis"
        )
        assert cars == 9  # exactly one car booked

    def test_contingent_fallback(self, rt, inventory):
        def drain(tx):
            yield tx.write(inventory["delta"], encode_json(0))

        rt.run(drain)
        result = compile_source(X_CONFERENCE).execute(rt, objects=inventory)
        assert result.success
        assert value_of(rt, inventory, "united") == 4

    def test_compensation_on_hotel_failure(self, rt, inventory):
        def drain(tx):
            yield tx.write(inventory["equator"], encode_json(0))

        rt.run(drain)
        result = compile_source(X_CONFERENCE).execute(rt, objects=inventory)
        assert not result.success
        assert result.status_of("hotel") is TaskStatus.FAILED
        assert result.status_of("flight") is TaskStatus.COMPENSATED
        assert value_of(rt, inventory, "delta") == 5  # seat returned

    def test_optional_car_failure(self, rt, inventory):
        def drain(tx):
            yield tx.write(inventory["national"], encode_json(0))
            yield tx.write(inventory["avis"], encode_json(0))

        rt.run(drain)
        result = compile_source(X_CONFERENCE).execute(rt, objects=inventory)
        assert result.success
        assert result.status_of("car") is TaskStatus.FAILED

    def test_dependency_skipping(self, rt, inventory):
        def drain(tx):
            for name in ("delta", "united", "american"):
                yield tx.write(inventory[name], encode_json(0))

        rt.run(drain)
        result = compile_source(X_CONFERENCE).execute(rt, objects=inventory)
        assert not result.success
        assert result.status_of("flight") is TaskStatus.FAILED
        assert result.status_of("hotel") is TaskStatus.SKIPPED
        assert result.status_of("car") is TaskStatus.SKIPPED
