"""Serialization-graph construction and the serializability test.

The classic conflict graph, with the two ASSET twists the primitives
introduce:

* **Delegation moves responsibility.**  "Once t_i delegates an object ob
  to t_j, it will be as if t_j, not t_i, has performed the operations on
  ob" — so each operation is attributed to the transaction responsible
  for it *after* all delegations, and only operations whose responsible
  transaction committed contribute (aborted work is undone).

* **Permits suppress edges.**  ``permit(t_i, t_j, ob, op)`` lets ``t_j``
  conflict with ``t_i`` "without, conceptually, creating a conflict edge
  in the serialisation graph from t_i to t_j" — so a conflict covered by
  an earlier permit contributes no edge.

With neither primitive in play this is exactly conflict serializability;
the property suite uses that to verify the atomic model, and uses the
full graph to characterize what relaxed models give up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.semantics import ConflictTable


@dataclass
class ConflictGraph:
    """The serialization graph: committed transactions and conflict edges."""

    nodes: set = field(default_factory=set)
    edges: dict = field(default_factory=dict)  # tid -> set of tids
    suppressed: list = field(default_factory=list)  # (ti, tj, oid, op) skipped

    def add_edge(self, source, target):
        """Add ``source -> target`` (conflict order)."""
        self.nodes.add(source)
        self.nodes.add(target)
        self.edges.setdefault(source, set()).add(target)

    def find_cycle(self):
        """One cycle as a tid list, or ``None`` when acyclic."""
        state = {}
        path = []

        def visit(node):
            state[node] = "active"
            path.append(node)
            for nxt in sorted(self.edges.get(node, ())):
                if state.get(nxt) == "active":
                    return path[path.index(nxt):]
                if nxt not in state:
                    cycle = visit(nxt)
                    if cycle is not None:
                        return cycle
            path.pop()
            state[node] = "done"
            return None

        for node in sorted(self.nodes):
            if node not in state:
                cycle = visit(node)
                if cycle is not None:
                    return cycle
        return None

    @property
    def is_acyclic(self):
        """Whether the graph admits a serial order."""
        return self.find_cycle() is None

    def topological_order(self):
        """A serial order witnessing serializability (graph must be acyclic)."""
        indegree = {node: 0 for node in self.nodes}
        for source, targets in self.edges.items():
            for target in targets:
                indegree[target] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for target in sorted(self.edges.get(node, ())):
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        if len(order) != len(self.nodes):
            raise ValueError("graph has a cycle; no serial order exists")
        return order


def _attribute_operations(recorder):
    """Operations re-attributed per the delegations, in tick order."""
    operations = [
        {"tick": op.tick, "tid": op.tid, "oid": op.oid, "op": op.operation}
        for op in recorder.operations()
    ]
    for delegation in recorder.delegations():
        for entry in operations:
            if (
                entry["tick"] < delegation.tick
                and entry["tid"] == delegation.source
                and entry["oid"] in delegation.oids
            ):
                entry["tid"] = delegation.target
    return operations


def build_conflict_graph(recorder, conflicts=None):
    """Build the serialization graph from a recorded history."""
    conflicts = conflicts if conflicts is not None else ConflictTable()
    committed = set(recorder.committed())
    operations = [
        entry
        for entry in _attribute_operations(recorder)
        if entry["tid"] in committed
    ]
    permits = recorder.permits()

    def permitted(giver, receiver, oid, operation, before_tick):
        for permit in permits:
            if permit.tick >= before_tick:
                continue
            if permit.giver != giver or permit.oid != oid:
                continue
            receiver_ok = permit.receiver is None or permit.receiver == receiver
            op_ok = permit.operation is None or permit.operation == operation
            if receiver_ok and op_ok:
                return True
        return False

    graph = ConflictGraph()
    graph.nodes |= committed
    by_object = {}
    for entry in operations:
        by_object.setdefault(entry["oid"], []).append(entry)
    for oid, entries in by_object.items():
        entries.sort(key=lambda entry: entry["tick"])
        for i, first in enumerate(entries):
            for second in entries[i + 1 :]:
                if first["tid"] == second["tid"]:
                    continue
                if not conflicts.conflicts(first["op"], second["op"]):
                    continue
                if permitted(
                    first["tid"], second["tid"], oid, second["op"],
                    second["tick"],
                ):
                    graph.suppressed.append(
                        (first["tid"], second["tid"], oid, second["op"])
                    )
                    continue
                graph.add_edge(first["tid"], second["tid"])
    return graph


def is_conflict_serializable(recorder, conflicts=None):
    """Whether the committed history is (permit-aware) serializable.

    Returns ``(serializable, cycle)``; ``cycle`` is a witness when not.
    """
    graph = build_conflict_graph(recorder, conflicts=conflicts)
    cycle = graph.find_cycle()
    return cycle is None, cycle
