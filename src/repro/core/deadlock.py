"""Deadlock detection over the waits-for graph.

Blocking in ASSET comes from two sources:

* **lock waits** — a pending lock request waits for the holders of
  conflicting granted locks;
* **commit waits** — a transaction whose commit was requested waits for
  the dependees of its CD/AD edges to terminate (and for its GC group
  members to complete).

Both kinds become edges of one waits-for graph; a cycle is a deadlock.
The runtimes invoke the detector when nothing can make progress (the
cooperative scheduler) or periodically (the threaded runtime) and abort a
victim — the youngest transaction in the cycle, whose undo is expected to
be cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WaitsForGraph:
    """A directed graph of "waits for" edges with cycle detection."""

    edges: dict = field(default_factory=dict)  # tid -> set of tids

    def add(self, waiter, holder):
        """Record that ``waiter`` waits for ``holder``."""
        if waiter == holder:
            return
        self.edges.setdefault(waiter, set()).add(holder)

    def remove_node(self, tid):
        """Drop ``tid`` and every edge touching it.

        Used by the resilience watchdog to prune an abort closure from
        the graph in the same step as the abort: a transaction reaped
        while parked in the commit-wait scan must not linger as a
        phantom waiter (or phantom blocker) for cycle detection.
        """
        self.edges.pop(tid, None)
        for holders in self.edges.values():
            holders.discard(tid)

    def __contains__(self, tid):
        if tid in self.edges:
            return True
        return any(tid in holders for holders in self.edges.values())

    def cycles(self):
        """All elementary cycles found by DFS (deduplicated by node set)."""
        found = []
        seen_sets = []
        state = {}
        path = []

        def visit(node):
            state[node] = "active"
            path.append(node)
            for nxt in sorted(self.edges.get(node, ())):
                if state.get(nxt) == "active":
                    cycle = path[path.index(nxt):]
                    key = frozenset(cycle)
                    if key not in seen_sets:
                        seen_sets.append(key)
                        found.append(list(cycle))
                elif nxt not in state:
                    visit(nxt)
            path.pop()
            state[node] = "done"

        for node in sorted(self.edges):
            if node not in state:
                visit(node)
        return found


class DeadlockDetector:
    """Builds the waits-for graph from a transaction manager and scans it."""

    def __init__(self, manager):
        self.manager = manager

    def build_graph(self):
        """Assemble the current waits-for graph."""
        graph = WaitsForGraph()
        table = self.manager.table
        locks = self.manager.lock_manager
        for pending in locks.pending_requests():
            td = table.maybe_get(pending.tid)
            if td is not None and td.status.is_abort_bound:
                continue  # abort-bound: its waits are moot, not deadlock fuel
            for blocker in locks.blockers_of(pending):
                graph.add(pending.tid, blocker)
        for tid in self.manager.committing_transactions():
            for other in self.manager.commit_waits_of(tid):
                graph.add(tid, other)
        return graph

    def find_deadlocks(self):
        """Return the list of deadlock cycles (each a list of tids)."""
        return self.build_graph().cycles()

    @staticmethod
    def choose_victim(cycle):
        """Pick the youngest (highest-tid) member of a cycle as victim."""
        return max(cycle)

    def resolve_one(self):
        """Abort a victim from one deadlock cycle, if any; return it."""
        cycles = self.find_deadlocks()
        if not cycles:
            return None
        victim = self.choose_victim(cycles[0])
        self.manager.abort(victim, reason="deadlock victim")
        return victim
