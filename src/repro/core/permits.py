"""The permit table: section 2.2's ``permit`` primitive.

A permit ``(t_i, t_j, op)`` on object ``ob`` lets ``t_j`` perform ``op``
even while ``ob`` is locked by ``t_i`` in a conflicting mode — without
creating a serialization edge from ``t_i`` to ``t_j``.  The table
implements all four forms of the primitive (specific / any-object /
any-operation / any-transaction) and the **transitive sharing rule**:

    permit(t_i, t_j, S, O) then permit(t_j, t_k, S', O')
    implies permit(t_i, t_k, S ∩ S', O ∩ O').

Derived permits are materialized eagerly (a worklist closure per
insertion) and marked ``derived``.  Once materialized they stand on their
own — the paper says the effect is "as if the command ... had also been
executed" — so removing the intermediary's permits does not retract them.

Permits are stored on each object's OD (Figure 1) and doubly hashed on the
two tids so that "permissions given by or given to a transaction can be
located efficiently" (commit/abort step: *remove permissions given by and
given to t_i*).
"""

from __future__ import annotations

from repro.common.events import EventBus, EventKind
from repro.common.hashtable import DoubleHashIndex
from repro.core.descriptors import PermitDescriptor


def _op_intersection(op_a, op_b):
    """Intersect two operation scopes where ``None`` means "all".

    Returns ``(ok, op)``: ``ok`` is False when the intersection is empty.
    """
    if op_a is None:
        return True, op_b
    if op_b is None:
        return True, op_a
    if op_a == op_b:
        return True, op_a
    return False, None


class PermitTable:
    """All permits in the system, indexed per object and per transaction."""

    def __init__(self, registry, events=None):
        self._registry = registry  # shared oid -> OD registry
        self._index = DoubleHashIndex()  # (giver, receiver) -> PDs
        # A bus nobody watches when none is given: every emit site tests
        # its kind against ``watched`` and nothing else.
        self._events = events if events is not None else EventBus()

    # -- insertion ---------------------------------------------------------

    def grant(self, oid, giver, receiver=None, operation=None):
        """Add a permit on one object; returns all PDs added (incl. derived).

        This is the single-object workhorse; the manager expands the
        any-object forms of ``permit`` into calls to this method, as the
        section 4.2 implementation of ``permit(t_i, t_j, op)`` prescribes.
        """
        added = []
        worklist = [(oid, giver, receiver, operation)]
        while worklist:
            item_oid, item_giver, item_receiver, item_op = worklist.pop()
            pd = self._insert(item_oid, item_giver, item_receiver, item_op,
                              derived=bool(added))
            if pd is None:
                continue  # duplicate: already covered
            added.append(pd)
            worklist.extend(self._compositions(pd))
        return added

    def _insert(self, oid, giver, receiver, operation, derived):
        od = self._registry.get_or_create(oid)
        for existing in od.permits_from(giver):
            if (
                existing.receiver == receiver
                and existing.operation == operation
            ):
                return None
        pd = PermitDescriptor(
            oid=oid,
            giver=giver,
            receiver=receiver,
            operation=operation,
            derived=derived,
        )
        od.attach_permit(pd)
        self._index.add(giver, receiver, pd)
        if EventKind.PERMIT in self._events.watched:
            self._events.emit(
                EventKind.PERMIT,
                giver,
                oid=oid,
                receiver=receiver,
                operation=operation,
                derived=derived,
            )
        return pd

    def _compositions(self, pd):
        """Transitive compositions enabled by a newly inserted PD.

        A wildcard receiver already covers every transaction, so chains
        through a wildcard need no materialization.  Both directions are
        index probes on the OD: permits *received by* ``pd``'s giver
        compose on the left, permits *given by* ``pd``'s receiver on the
        right — no scan of unrelated permits.
        """
        od = self._registry.get_or_create(pd.oid)
        results = []
        # other ∘ pd : other's (explicit) receiver is pd's giver.
        for other in od.permits_to_receiver(pd.giver):
            if other is pd:
                continue
            ok, op = _op_intersection(other.operation, pd.operation)
            if ok:
                results.append((pd.oid, other.giver, pd.receiver, op))
        # pd ∘ other : pd's receiver is other's giver.
        if pd.receiver is not None:
            for other in od.permits_from(pd.receiver):
                if other is pd:
                    continue
                ok, op = _op_intersection(pd.operation, other.operation)
                if ok:
                    results.append((pd.oid, pd.giver, other.receiver, op))
        return results

    # -- queries ----------------------------------------------------------------

    def allows(self, oid, holder, requester, operation):
        """Whether ``holder`` permits ``requester`` to do ``operation`` on ``oid``.

        This is the check lock acquisition performs against each
        conflicting granted lock (section 4.2 read-lock/write-lock step
        1b).  The OD keys its permits by giver, so the check probes one
        (typically tiny) bucket instead of scanning every permit on the
        object — giver is never a wildcard, which is what makes the key
        exact.
        """
        od = self._registry.maybe_get(oid)
        if od is None:
            return False
        return any(
            pd.covers(requester, operation)
            for pd in od.permits_from(holder)
        )

    def given_by(self, tid):
        """All PDs whose giver is ``tid`` (the index's live slot)."""
        return self._index.by_left(tid)

    def given_to(self, tid):
        """All PDs whose *explicit* receiver is ``tid`` (the live slot)."""
        return self._index.by_right(tid)

    def objects_permitted_to(self, tid):
        """Object ids ``tid`` holds explicit permissions on.

        Used by the any-object forms of ``permit``: the paper finds "each
        object ob that t_i accessed or has permission to access" by
        traversing the LRD list and the permit descriptors.
        """
        return sorted({pd.oid for pd in self.given_to(tid)})

    def permits_on(self, oid):
        """All PDs attached to ``oid`` (a fresh list)."""
        od = self._registry.maybe_get(oid)
        return list(od.permits) if od is not None else []

    # -- removal / rewriting -------------------------------------------------------

    def remove_involving(self, tid):
        """Drop every permit given by or explicitly given to ``tid``.

        Called when ``tid`` terminates (commit step 6 / abort cleanup).
        The index answers a live slot: walk a copy.
        """
        for pd in tuple(self._index.involving(tid)):
            self._discard(pd)

    def _discard(self, pd):
        od = self._registry.maybe_get(pd.oid)
        if od is not None and pd in od.permits_from(pd.giver):
            od.detach_permit(pd)
            self._registry.release_if_idle(pd.oid)
        self._index.remove(pd.giver, pd.receiver, pd)

    def rewrite_giver(self, old_giver, new_giver, oids=None):
        """Re-attribute permits given by ``old_giver`` to ``new_giver``.

        Delegation step (b): "change any PD of the form (t_i, t_k, op) to
        (t_j, t_k, op)".  Restricted to ``oids`` when delegation covers an
        object set rather than everything.
        """
        rewritten = []
        for pd in tuple(self.given_by(old_giver)):
            if oids is not None and pd.oid not in oids:
                continue
            self._discard(pd)
            replacement = self._insert(
                pd.oid, new_giver, pd.receiver, pd.operation, derived=pd.derived
            )
            if replacement is not None:
                rewritten.append(replacement)
        return rewritten

    def __len__(self):
        return len(self._index)
