"""The transaction dependencies graph (section 4.1).

Nodes are transactions; an edge from the *dependent* to the *dependee*
carries a dependency type.  ``form_dependency(type, t_i, t_j)`` always
constrains ``t_j`` relative to ``t_i``:

* **CD** (commit dependency) — if both commit, ``t_j`` cannot commit
  before ``t_i``; ``t_j``'s commit blocks until ``t_i`` terminates.
* **AD** (abort dependency) — if ``t_i`` aborts, ``t_j`` must abort; AD
  covers CD, so ``t_j``'s commit also waits for ``t_i`` to terminate.
* **GC** (group commit) — both commit or neither; symmetric, and a set of
  pairwise GC edges forms a commit *group*.

Two extension types from the ACTA repertoire (the paper notes "many types
of dependency can be formed [8]"):

* **BCD** (begin-on-commit) — ``t_j`` cannot begin until ``t_i`` commits;
* **BAD** (begin-on-abort) — ``t_j`` cannot begin until ``t_i`` aborts
  (the natural trigger for compensating transactions);
* **ED** (exclusion) — at most one of the two commits: ``t_i``'s commit
  forces ``t_j`` to abort (the primitive behind contingent alternatives
  and racing reservations).

``form_dependency`` performs "a check ... to prevent certain dependency
cycles": a cycle of CD/AD edges would block every member's commit forever
(GC cycles are fine — that is what a group is), so those are refused.

Edges are doubly hashed on the two tids involved so dependencies
emanating from or incoming to a transaction are located efficiently, and
the group-commit components are kept as edges come and go, so a
transaction's group is a lookup, not a walk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import DependencyCycleError
from repro.common.hashtable import DoubleHashIndex


class DependencyType(enum.Enum):
    """The dependency types ``form_dependency`` accepts."""

    CD = "commit"
    AD = "abort"
    GC = "group_commit"
    BCD = "begin_on_commit"
    BAD = "begin_on_abort"
    ED = "exclusion"


# Each member carries its flags as plain attributes, as
# ``TransactionStatus`` does: an edge scan reads one per edge, and on
# Python 3.11 a property is a call.
_D = DependencyType
for _type in _D:
    # A dependent's commit must wait on the dependee.
    _type.blocks_commit = _type in (_D.CD, _D.AD)
    # A dependent's begin must wait on the dependee.
    _type.blocks_begin = _type in (_D.BCD, _D.BAD)
    # The dependee's abort forces the dependent to abort.
    _type.aborts_dependent = _type in (_D.AD, _D.GC)
    # The dependee's COMMIT forces the dependent to abort: exclusion, and
    # begin-on-abort (the dependent waited for an abort that can no
    # longer happen).
    _type.aborts_dependent_on_commit = _type in (_D.ED, _D.BAD)


@dataclass(eq=False)
class DependencyEdge:
    """One dependency: ``dependent`` constrained relative to ``dependee``.

    Equal only to itself (and hashed by identity): the index keys its
    slots by edge."""

    dependent: object
    dependee: object
    dep_type: DependencyType

    def other(self, tid):
        """The endpoint that is not ``tid``."""
        return self.dependee if tid == self.dependent else self.dependent

    def __repr__(self):
        return (
            f"Edge({self.dependent!r} -{self.dep_type.name}-> "
            f"{self.dependee!r})"
        )


class DependencyGraph:
    """All dependency edges, indexed by both endpoints."""

    def __init__(self):
        # (dependent, dependee) -> edges.  The queries are the index's own
        # probes, bound once (a scan is one call; a tid with no edges gets
        # the shared empty tuple): the edges where ``tid`` is the dependent
        # (commit-time scan), the dependee (abort-time scan), or either.
        self._index = DoubleHashIndex()
        self.outgoing = self._index.by_left
        self.incoming = self._index.by_right
        self.edges_involving = self._index.involving
        # tid -> its GC component, one set shared by every member; a tid
        # with no GC edge has no entry.  Kept by ``add``, ``remove`` and
        # ``remove_involving``, which run under the manager's mutex.
        self._components = {}

    def add(self, dep_type, ti, tj):
        """Form a dependency of ``dep_type`` between ``ti`` and ``tj``.

        Follows the paper's argument convention: the new edge constrains
        ``tj`` relative to ``ti``.  Refuses commit-blocking cycles.
        Duplicate edges are idempotent.  Returns the edge.
        """
        if ti == tj:
            raise DependencyCycleError([ti, tj])
        for existing in self._index.by_left(tj):
            if existing.dependee == ti and existing.dep_type is dep_type:
                return existing
        if dep_type.blocks_commit and self._reaches(ti, tj):
            raise DependencyCycleError([tj, ti])
        edge = DependencyEdge(dependent=tj, dependee=ti, dep_type=dep_type)
        self._index.add(tj, ti, edge)
        if dep_type is DependencyType.GC:
            self._join(ti, tj)
        return edge

    def _join(self, a, b):
        """Merge the components of ``a`` and ``b``: the smaller one goes
        into the larger, and each moved tid is re-pointed."""
        components = self._components
        small = components.setdefault(a, {a})
        large = components.setdefault(b, {b})
        if small is large:
            return
        if len(small) > len(large):
            small, large = large, small
        large |= small
        for tid in small:
            components[tid] = large

    def _reaches(self, start, goal):
        """Whether ``goal`` is reachable from ``start`` via CD/AD edges."""
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for edge in self._index.by_left(node):
                if not edge.dep_type.blocks_commit:
                    continue
                nxt = edge.dependee
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # -- queries -----------------------------------------------------------------

    def gc_group(self, tid):
        """The group-commit component of ``tid``: a fresh set that always
        contains it.

        GC edges are symmetric, so the component is the connected
        component of the GC-only subgraph; it is kept, so this is one
        probe and visits no edge.
        """
        component = self._components.get(tid)
        return {tid} if component is None else set(component)

    def abort_closure_preview(self, tid):
        """The tids a hypothetical abort of ``tid`` would take down.

        Pure graph traversal mirroring the manager's abort-cascade rules
        — GC is symmetric, AD/BCD cascade dependee→dependent — with no
        status filtering (terminated members are the manager's concern).
        The watchdog uses this for containment accounting *before*
        performing the abort, while the edges still exist.
        """
        closure = {tid}
        stack = [tid]
        while stack:
            current = stack.pop()
            for edge in self.edges_involving(current):
                if edge.dep_type is DependencyType.GC:
                    nxt = edge.other(current)
                elif (
                    edge.dep_type in (DependencyType.AD, DependencyType.BCD)
                    and edge.dependee == current
                ):
                    nxt = edge.dependent
                else:
                    continue
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return closure

    # -- removal -----------------------------------------------------------------

    def remove(self, edge):
        """Remove one edge.

        The one place a component can split: a GC edge's component is
        rebuilt from the GC edges its members still have.
        """
        self._index.remove(edge.dependent, edge.dependee, edge)
        if edge.dep_type is not DependencyType.GC:
            return
        members = self._components.get(edge.dependent, ())
        for tid in members:
            del self._components[tid]
        for tid in members:
            for other in self._index.by_left(tid):
                if other.dep_type is DependencyType.GC:
                    self._join(other.dependee, other.dependent)

    def remove_involving(self, tid):
        """Remove all edges touching ``tid`` (post-termination cleanup),
        and take ``tid`` out of its component.

        The rest of the component stays one: a commit commits the whole
        group and an abort's closure takes it whole, so the members left
        are terminating too.  The last one leaves with the others.
        """
        for edge in tuple(self.edges_involving(tid)):
            self._index.remove(edge.dependent, edge.dependee, edge)
        component = self._components.pop(tid, None)
        if component is not None:
            component.discard(tid)
            if len(component) == 1:
                del self._components[component.pop()]

    def __len__(self):
        return len(self._index)
