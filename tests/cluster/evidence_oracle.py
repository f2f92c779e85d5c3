"""The two evidence cascades ``Site`` had before a group became one record.

Kept verbatim from the parent of PR 24 as a reference: ``_h_status_req``'s
verdict cascade (the send removed, the verdict returned) and
``_takeover_evidence``, over the eleven gid-keyed containers they read.
``tests/cluster/test_evidence_oracle.py`` projects every representable
:class:`~repro.cluster.group.Group` onto those containers and demands the
one ``evidence()`` function and the ``STATUS_VERDICT`` table agree with
both.  Imports nothing; not collected (no ``test_`` prefix).
"""


class OldMaps:
    """The gid-keyed containers of the parent's ``Site._boot``."""

    def __init__(self):
        self.pending_prepares = {}
        self.prepared = {}
        self.coordinating = {}
        self.in_doubt = {}
        self.durable_decisions = {}
        self.taking_over = {}
        self.settled_gids = {}
        self.voted_gids = set()

    def status_verdict(self, gid):
        entry = self.coordinating.get(gid)
        if entry is not None and entry["state"] in ("collecting", "releasing"):
            # Releasing: the commit verdict is volatile until a witness
            # ACK seals it.  Answering "commit" here would let the asker
            # durably apply it — including *this site's own member* via
            # a self-inquiry — minting a witness the takeover derivation
            # does not know can exist.  DECISION resends carry liveness.
            verdict = "pending"
        elif entry is not None:
            verdict = entry["verdict"]
        elif gid in self.durable_decisions:
            verdict = "commit"
        elif gid in self.settled_gids:
            verdict = self.settled_gids[gid]
        elif (
            gid in self.in_doubt
            or gid in self.taking_over
            or gid in self.prepared
            or gid in self.voted_gids
        ):
            verdict = "pending"
        else:
            verdict = "abort"
        return verdict

    def _takeover_evidence(self, gid):
        """This site's durable verdict evidence for ``gid``:
        ``committed`` / ``aborted`` / ``collecting`` / ``prepared`` /
        ``pending_prepare`` (accepted but not yet voted) /
        ``never_prepared`` (no trace of the group at all) /
        ``resolved_unknown`` (voted, later resolved, resolution lost —
        defensive, should be unreachable after log reconstruction),
        plus the member tid if known."""
        if gid in self.durable_decisions:
            return "committed", None
        verdict = self.settled_gids.get(gid)
        if verdict is not None:
            return ("committed" if verdict == "commit" else "aborted"), None
        entry = self.coordinating.get(gid)
        if entry is not None:
            if entry["state"] in ("collecting", "releasing"):
                # Releasing is still "deciding" to the outside world:
                # the commit is volatile until a witness ACK seals it,
                # so it must not be offered as durable evidence.
                return "collecting", None
            committed = entry["verdict"] == "commit"
            return ("committed" if committed else "aborted"), None
        live = self.prepared.get(gid)
        if live is not None:
            return "prepared", live["tid"].value
        if gid in self.in_doubt:
            return "prepared", self.in_doubt[gid]["record"].tid.value
        pending = self.pending_prepares.get(gid)
        if pending is not None:
            return "pending_prepare", pending["tid"].value
        if gid in self.voted_gids:
            # The vote was force-logged but its resolution is in no live
            # or reconstructed map.  Never report "no trace" here:
            # presuming abort over a member whose resolution was merely
            # forgotten is the one unsafe guess a taker could make.
            return "resolved_unknown", None
        return "never_prepared", None
