"""The dependency graph: CD/AD/GC edges, cycle refusal, GC groups."""

import pytest

from repro.common.errors import DependencyCycleError
from repro.common.ids import Tid
from repro.core.dependency import DependencyGraph, DependencyType

D = DependencyType


class TestEdgeDirection:
    def test_form_constrains_second_argument(self):
        graph = DependencyGraph()
        edge = graph.add(D.CD, Tid(1), Tid(2))
        # form_dependency(CD, t1, t2): t2 cannot commit before t1.
        assert edge.dependent == Tid(2)
        assert edge.dependee == Tid(1)

    def test_outgoing_incoming(self):
        graph = DependencyGraph()
        graph.add(D.AD, Tid(1), Tid(2))
        assert [e.dependee for e in graph.outgoing(Tid(2))] == [Tid(1)]
        assert [e.dependent for e in graph.incoming(Tid(1))] == [Tid(2)]
        assert graph.outgoing(Tid(1)) == ()

    def test_duplicate_edges_idempotent(self):
        graph = DependencyGraph()
        first = graph.add(D.CD, Tid(1), Tid(2))
        second = graph.add(D.CD, Tid(1), Tid(2))
        assert first is second
        assert len(graph) == 1

    def test_same_pair_different_types(self):
        graph = DependencyGraph()
        graph.add(D.CD, Tid(1), Tid(2))
        graph.add(D.GC, Tid(1), Tid(2))
        assert len(graph) == 2


class TestCyclePrevention:
    def test_self_dependency_refused(self):
        with pytest.raises(DependencyCycleError):
            DependencyGraph().add(D.CD, Tid(1), Tid(1))

    def test_cd_two_cycle_refused(self):
        graph = DependencyGraph()
        graph.add(D.CD, Tid(1), Tid(2))
        with pytest.raises(DependencyCycleError):
            graph.add(D.CD, Tid(2), Tid(1))

    def test_mixed_ad_cd_cycle_refused(self):
        graph = DependencyGraph()
        graph.add(D.AD, Tid(1), Tid(2))
        graph.add(D.CD, Tid(2), Tid(3))
        with pytest.raises(DependencyCycleError):
            graph.add(D.CD, Tid(3), Tid(1))

    def test_gc_cycles_allowed(self):
        graph = DependencyGraph()
        graph.add(D.GC, Tid(1), Tid(2))
        graph.add(D.GC, Tid(2), Tid(1))  # fine: that's a group

    def test_begin_dependencies_do_not_count(self):
        graph = DependencyGraph()
        graph.add(D.BCD, Tid(1), Tid(2))
        graph.add(D.BCD, Tid(2), Tid(1))  # allowed (checked at begin time)

    def test_diamond_is_fine(self):
        graph = DependencyGraph()
        graph.add(D.CD, Tid(1), Tid(2))
        graph.add(D.CD, Tid(1), Tid(3))
        graph.add(D.CD, Tid(2), Tid(4))
        graph.add(D.CD, Tid(3), Tid(4))
        assert len(graph) == 4


class TestGroups:
    def test_gc_group_transitive(self):
        graph = DependencyGraph()
        graph.add(D.GC, Tid(1), Tid(2))
        graph.add(D.GC, Tid(2), Tid(3))
        assert graph.gc_group(Tid(1)) == {Tid(1), Tid(2), Tid(3)}
        assert graph.gc_group(Tid(3)) == {Tid(1), Tid(2), Tid(3)}

    def test_singleton_group(self):
        graph = DependencyGraph()
        assert graph.gc_group(Tid(9)) == {Tid(9)}

    def test_cd_does_not_join_group(self):
        graph = DependencyGraph()
        graph.add(D.GC, Tid(1), Tid(2))
        graph.add(D.CD, Tid(2), Tid(3))
        assert graph.gc_group(Tid(1)) == {Tid(1), Tid(2)}

    def test_a_star_is_one_kept_component(self):
        graph = DependencyGraph()
        graph.add(D.GC, Tid(1), Tid(2))
        graph.add(D.GC, Tid(1), Tid(3))
        group = {Tid(1), Tid(2), Tid(3)}
        assert all(graph.gc_group(tid) == group for tid in group)
        # One set, shared by the members; each answer is a fresh copy.
        assert len({id(c) for c in graph._components.values()}) == 1
        graph.gc_group(Tid(1)).add(Tid(9))
        assert graph.gc_group(Tid(2)) == group

    def test_components_merge_smaller_into_larger(self):
        graph = DependencyGraph()
        graph.add(D.GC, Tid(1), Tid(2))
        graph.add(D.GC, Tid(2), Tid(3))
        graph.add(D.GC, Tid(4), Tid(5))
        graph.add(D.GC, Tid(5), Tid(1))
        merged = {Tid(1), Tid(2), Tid(3), Tid(4), Tid(5)}
        assert all(graph.gc_group(tid) == merged for tid in merged)

    def test_removing_one_edge_splits_the_component(self):
        graph = DependencyGraph()
        graph.add(D.GC, Tid(1), Tid(2))
        middle = graph.add(D.GC, Tid(2), Tid(3))
        graph.add(D.GC, Tid(3), Tid(4))
        graph.remove(middle)
        assert graph.gc_group(Tid(1)) == {Tid(1), Tid(2)}
        assert graph.gc_group(Tid(4)) == {Tid(3), Tid(4)}

    def test_a_component_dissolves_with_its_members(self):
        graph = DependencyGraph()
        graph.add(D.GC, Tid(1), Tid(2))
        graph.add(D.GC, Tid(2), Tid(3))
        graph.add(D.CD, Tid(3), Tid(7))
        for tid in (Tid(1), Tid(2), Tid(3)):
            graph.remove_involving(tid)
        assert graph._components == {}
        assert graph.gc_group(Tid(2)) == {Tid(2)}


class TestTypeProperties:
    def test_blocks_commit(self):
        assert D.CD.blocks_commit and D.AD.blocks_commit
        assert not D.GC.blocks_commit
        assert not D.BCD.blocks_commit

    def test_blocks_begin(self):
        assert D.BCD.blocks_begin and D.BAD.blocks_begin
        assert not D.CD.blocks_begin

    def test_aborts_dependent(self):
        assert D.AD.aborts_dependent and D.GC.aborts_dependent
        assert not D.CD.aborts_dependent


class TestRemoval:
    def test_remove_involving(self):
        graph = DependencyGraph()
        graph.add(D.CD, Tid(1), Tid(2))
        graph.add(D.AD, Tid(2), Tid(3))
        graph.add(D.CD, Tid(4), Tid(5))
        graph.remove_involving(Tid(2))
        assert graph.outgoing(Tid(2)) == ()
        assert graph.incoming(Tid(2)) == ()
        assert graph.outgoing(Tid(3)) == ()
        assert len(graph) == 1  # the 4->5 edge remains

    def test_edge_other(self):
        graph = DependencyGraph()
        edge = graph.add(D.GC, Tid(1), Tid(2))
        assert edge.other(Tid(1)) == Tid(2)
        assert edge.other(Tid(2)) == Tid(1)
