"""Property: a kept GC component is the walk it replaced.

``DependencyGraph`` keeps each group-commit component as one member set
(joined at ``add(GC)``, left by ``remove_involving``, rebuilt by a
single-edge ``remove``), so ``gc_group`` is a lookup.  Streams of
``form_dependency`` (all six types), completion, commit, abort with its
cascades, and single-edge removal run on the manager (there is one:
the sharded engine keeps the same graph).  After every step, for every
tid ever made:

* ``gc_group(tid)`` equals a fresh walk of the GC edges from ``tid``;
* the component map names exactly the tids that have a GC edge — no
  terminated tid, and nothing when nothing is linked — and each maps to
  its component, one set shared by its members.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AssetError, TransactionAborted
from repro.core.dependency import DependencyType
from repro.core.manager import TransactionManager
from tests.chaos.mutations import gc_component_outlives_abort

N = 6  # transaction slots

step = st.one_of(
    st.tuples(
        st.just("depend"),
        st.sampled_from(list(DependencyType)),
        st.integers(0, N - 1),
        st.integers(0, N - 1),
    ),
    st.tuples(
        st.sampled_from(["complete", "commit", "abort", "renew"]),
        st.integers(0, N - 1),
    ),
    st.tuples(st.just("remove"), st.integers(0, 63)),
)


def walked_group(graph, tid):
    """The component by the walk ``gc_group`` used to make."""
    group, stack = {tid}, [tid]
    while stack:
        node = stack.pop()
        for edge in graph.edges_involving(node):
            if edge.dep_type is DependencyType.GC:
                other = edge.other(node)
                if other not in group:
                    group.add(other)
                    stack.append(other)
    return group


def every_edge(graph, tids):
    """Each edge once (it is in its dependent's outgoing slot), in a
    fixed order."""
    return [edge for tid in tids for edge in graph.outgoing(tid)]


def check(manager, tids):
    graph = manager.dependencies
    components = graph._components
    linked = {
        tid
        for edge in every_edge(graph, tids)
        if edge.dep_type is DependencyType.GC
        for tid in (edge.dependent, edge.dependee)
    }
    assert set(components) == linked
    for tid in tids:
        assert graph.gc_group(tid) == walked_group(graph, tid)
        if tid in components:
            assert components[tid] == walked_group(graph, tid)
            assert all(components[m] is components[tid] for m in components[tid])
    for td in manager.transactions():
        if td.status.is_terminated:
            assert td.tid not in components


def run(manager, steps):
    made = []

    def fresh():
        tid = manager.initiate()
        manager.begin(tid)
        made.append(tid)
        return tid

    slots = [fresh() for __ in range(N)]
    check(manager, made)
    for action, *args in steps:
        try:
            if action == "depend":
                dep_type, a, b = args
                manager.form_dependency(dep_type, slots[a], slots[b])
            elif action == "complete":
                manager.note_completed(slots[args[0]])
            elif action == "commit":
                manager.try_commit(slots[args[0]])
            elif action == "abort":
                manager.abort(slots[args[0]])
            elif action == "renew":
                if manager.table.get(slots[args[0]]).status.is_terminated:
                    slots[args[0]] = fresh()
            else:
                edges = every_edge(manager.dependencies, made)
                if edges:
                    with manager._mutex:
                        manager.dependencies.remove(
                            edges[args[0] % len(edges)]
                        )
        except (AssetError, TransactionAborted):
            pass  # a refusal is an outcome; the graph must still agree
        check(manager, made)
    # Everything terminated: every component dissolved with its members.
    for tid in made:
        manager.abort(tid)
    assert manager.dependencies._components == {}
    check(manager, made)


@settings(max_examples=150, deadline=None)
@given(st.lists(step, max_size=40))
def test_flat_components_are_the_walk(steps):
    run(TransactionManager(), steps)


def test_a_component_outliving_its_abort_is_seen():
    """Under ``gc_component_outlives_abort`` the aborted pair's component
    survives it, and the check says so; without it the same stream is
    clean."""
    pair = [("depend", DependencyType.GC, 0, 1), ("abort", 0)]
    run(TransactionManager(), pair)
    with gc_component_outlives_abort():
        with pytest.raises(AssertionError):
            run(TransactionManager(), pair)
