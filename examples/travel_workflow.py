"""The appendix travel workflow (X_conference), two ways.

1. The literal appendix program: contingent flight booking (Delta, then
   United, then American), a required hotel with flight compensation, and
   a raced optional car rental.
2. The same activity as a declarative WorkflowSpec run by the engine.

Run:  python examples/travel_workflow.py
"""

from repro import CooperativeRuntime
from repro.workflow import TravelAgency, WorkflowEngine, x_conference
from repro.workflow.travel import build_x_conference_spec


def show(agency, names):
    return ", ".join(f"{n}={agency.availability(n)}" for n in names)


def main():
    names = ["Delta", "United", "American", "Equator", "National", "Avis"]

    # -- the literal appendix program --------------------------------------
    rt = CooperativeRuntime(seed=11)
    agency = TravelAgency(
        rt,
        availability={
            "Delta": 1, "United": 1, "American": 1,
            "Equator": 2, "National": 1, "Avis": 1,
        },
    )
    print("inventory:", show(agency, names))

    print("\ntrip 1:", "booked" if x_conference(rt, agency) else "failed")
    print("inventory:", show(agency, names))

    print("trip 2:", "booked" if x_conference(rt, agency) else "failed")
    print("inventory:", show(agency, names))

    # Third trip: no flights remain anywhere -> activity fails outright.
    print("trip 3:", "booked" if x_conference(rt, agency) else "failed")

    # -- hotel sold out: the flight gets compensated -------------------------
    rt2 = CooperativeRuntime(seed=11)
    sold_out = TravelAgency(rt2, availability={"Equator": 0})
    outcome = x_conference(rt2, sold_out)
    print(
        f"\nhotel sold out: activity={'booked' if outcome else 'failed'},"
        f" Delta seats back to {sold_out.availability('Delta')}"
    )

    # -- the declarative version --------------------------------------------------
    rt3 = CooperativeRuntime(seed=11)
    agency3 = TravelAgency(rt3, availability={"National": 0})
    engine = WorkflowEngine(rt3)
    result = engine.execute(build_x_conference_spec(agency3))
    print("\ndeclarative run:", "success" if result.success else "failed")
    for name, step in result.steps.items():
        label = f" via {step.alt}" if step.alt else ""
        print(f"  {name}: {step.status.value}{label}")


if __name__ == "__main__":
    main()
