"""One ASSET site: a full local stack behind a fabric endpoint.

A :class:`Site` owns its own storage manager (disk, buffer pool,
write-ahead log), transaction manager, and cooperative runtime, and
talks to the rest of the cluster only through
:class:`~repro.net.fabric.NetworkFabric` messages.  Remote transactions
appear locally as **proxies**: driver-managed transactions (no program,
auto-completed at begin) that stand in for a remote tid so every
cross-site primitive — ``delegate``, ``permit``, ``form_dependency`` —
reduces to the section 4.2 local primitives against the proxy.  Fate
notifications (``abort_tx`` / ``abort_proxy`` / ``commit_proxy``) keep a
proxy's termination in step with its owner over the unreliable links;
for grouped transactions the two-phase commit decision is the
authoritative synchronizer and the notifications are only accelerants.

The site is also both halves of presumed-abort two-phase commit:

* **participant** — a ``PREPARE`` request is retried from ``on_tick``
  until the named component completes, then answered through
  :meth:`~repro.core.manager.TransactionManager.try_prepare` (force-logs
  the vote, freezes the local group in PREPARED).  A prepared group can
  terminate only by the coordinator's decision; if the decision is slow
  the site inquires with ``status_req``, paced by a lease on the
  resilience :class:`~repro.resilience.deadlines.DeadlineTable`.
* **coordinator** — collects votes under a deadline, releases COMMIT
  to the participants and force-logs the
  :class:`~repro.storage.log.DecisionRecord` once the first participant
  acknowledges (witness-confirmed release: a logged commit implies a
  durable witness exists among the members), and answers in-doubt
  inquiries from its durable state: a logged commit decision says
  commit, anything else is presumed abort.

Crash and restart model the paper's failure assumptions: a crash drops
everything volatile (buffer pool, managers, proxy tables, protocol
state) plus the unflushed log tail; restart replays the surviving log,
reports prepared-but-undecided groups as in doubt, and resolves them by
querying the coordinator — or by presumed abort when the coordinator
has no record.

What the site knows about one global group is one
:class:`~repro.cluster.group.Group` in ``Site.groups``; its fields, three
lifecycles and the evidence → verdict table are in ``docs/internals.md``
("One group record").
"""

from __future__ import annotations

from repro.cluster.group import (
    OPEN,
    STATUS_VERDICT,
    VOTING,
    WAITING,
    Group,
    Takeover,
    evidence,
)
from repro.common.errors import TransientIOError
from repro.common.events import EventKind
from repro.common.ids import Tid
from repro.core.dependency import DependencyType
from repro.core.manager import TransactionManager
from repro.core.outcomes import PrepareStatus
from repro.core.status import TransactionStatus
from repro.resilience.deadlines import DeadlineTable
from repro.runtime.coop import CooperativeRuntime
from repro.storage.log import DecisionRecord, PrepareRecord, TakeoverRecord
from repro.storage.store import StorageManager

__all__ = ["Site"]

# Message kinds understood by :meth:`Site.on_message`.  Driver RPC kinds
# reply to ``msg.src`` with ``reply_to=msg.msg_id``; protocol kinds are
# site-to-site and fire-and-forget (loss is survived, not prevented).
INITIATE = "initiate"
BEGIN = "begin"
SPAWN = "spawn"
WAIT = "wait"
RESULT = "result"
ABORT_TX = "abort_tx"
FORM_DEP = "form_dep"
FORM_REMOTE_DEP = "form_remote_dep"
DELEGATE = "delegate"
PERMIT = "permit"
PROXY_WRITE = "proxy_write"
PROXY_READ = "proxy_read"
PROXY_NOTE = "proxy_note"
ABORT_PROXY = "abort_proxy"
COMMIT_PROXY = "commit_proxy"
GC_BEGIN = "gc_begin"
PREPARE = "prepare"
VOTE = "vote"
DECISION = "decision"
ACK = "ack"
STATUS_REQ = "status_req"
STATUS_REP = "status_rep"
GC_HEARTBEAT = "gc_heartbeat"
TAKEOVER_QUERY = "takeover_query"
TAKEOVER_EVIDENCE = "takeover_evidence"
JOIN_ANNOUNCE = "join_announce"
LEAVE_BEGIN = "leave_begin"
HANDOFF_OFFER = "handoff_offer"
HANDOFF_ACCEPT = "handoff_accept"
HANDOFF_DONE = "handoff_done"

# The fault injector's contract: injected faults must propagate, never
# be converted into ordinary RPC error replies — a site that swallows its
# own simulated crash or I/O fault keeps answering while "dead", and the
# sweep oracles lose the fault they planted.  A simulated crash already
# escapes ``except Exception`` by deriving from BaseException; a
# TransientIOError (a planned transient flush failure) does not, so the
# RPC handlers re-raise it explicitly.

# Protocol timing, in cluster ticks.  A participant gives a PREPARE
# request PREPARE_TTL ticks to find its component complete; a coordinator
# gives the votes VOTE_TTL; an in-doubt member asks again every
# INQUIRY_INTERVAL.  Failover: a prepared participant trusts a silent
# coordinator for COORDINATOR_LEASE ticks before counting it overdue, a
# live one beats every HEARTBEAT_INTERVAL, and TAKEOVER_GRACE paces the
# rank-staggered takeover threshold (rank r acts after TAKEOVER_GRACE *
# (r + 1) overdue ticks, so the designated successor moves first and the
# rest are fallbacks).  A leaving site offers its state for HANDOFF_TTL.
PREPARE_TTL = 24
VOTE_TTL = 48
INQUIRY_INTERVAL = 8
COORDINATOR_LEASE = 16
HEARTBEAT_INTERVAL = 4
TAKEOVER_GRACE = 16
HANDOFF_TTL = 32


class Site:
    """A named ASSET instance wired to the cluster fabric."""

    def __init__(self, name, fabric, clock, injector=None):
        self.name = name
        self.fabric = fabric
        self.clock = clock
        self.injector = injector
        self.ticks = 0
        self.up = False
        self.crashes = 0
        # Protocol counters, cumulative across crashes (the observer's
        # view of the site, like ``crashes``); mirrored into repro.obs
        # by the cluster stats collector when a kit is attached.
        self.stats = {
            "takeovers_started": 0,
            "takeovers_decided": 0,
            "takeovers_cancelled": 0,
            "stale_epoch_rejects": 0,
            "stale_route_rejects": 0,
            "heartbeats_sent": 0,
            "handoffs_completed": 0,
            "handoffs_failed": 0,
            "handoff_txs_moved": 0,
        }
        # The durable half survives crashes; everything else is volatile
        # and rebuilt by :meth:`_boot`.
        self.storage = StorageManager(injector=injector)
        self.recovery_report = None
        # Observability (repro.obs): an ObservabilityKit installed by
        # attach_observability, or None.  Kept across crashes — the kit
        # is the *observer's* state, not the site's — and re-wired onto
        # the fresh manager by every _boot.
        self.obs = None
        # The ledger: one :class:`Group` per gid ever mentioned, kept as
        # evidence (polls and inquiries are answered from it long after
        # the group settled).
        self.groups = {}
        self._boot()

    # -- lifecycle ---------------------------------------------------------

    def _boot(self):
        """(Re)build the volatile half of the site over ``self.storage``."""
        self.manager = TransactionManager(storage=self.storage, clock=self.clock)
        self.runtime = CooperativeRuntime(self.manager)
        self.deadlines = DeadlineTable(self.clock)
        self.manager.events.subscribe(
            self._on_local_event,
            kinds=(EventKind.ABORTED, EventKind.COMMITTED),
        )
        # Proxy bookkeeping: (owner_site, owner_tid_value) -> local Tid,
        # the reverse map, and which remote sites hold proxies for our
        # local tids (by value).
        self.proxies = {}
        self.proxy_owner = {}
        self.remote_holders = {}
        # A crash forgets every group: the records are wiped in place,
        # not dropped, so a restart allocates nothing per group its log
        # names (one collector-tracked object per group ever seen costs
        # a restart collector passes).  ``active`` indexes the gids whose
        # record has work — all the tick walks; :meth:`_move` keeps it.
        for g in self.groups.values():
            g.__init__(g.gid)
        self.active = set()
        # Membership state: the cluster-wide membership epoch (stale
        # routed requests are rejected against it), whether this site
        # has left, and the in-flight leaver-side handoff, if any.
        self.membership_epoch = 0
        self.left = False
        self.handoff = None
        self._handoff_accepts = {}
        self.up = True
        self.fabric.register(self.name, self.on_message)
        self.fabric.mark_up(self.name)
        self._wire_obs()

    def attach_observability(self, kit):
        """Install an :class:`~repro.obs.wiring.ObservabilityKit`.

        The kit's subscriptions ride the *current* manager; a crash
        throws that manager away, so :meth:`_boot` re-wires the kit onto
        each incarnation.  Spans from before the crash stay in the kit —
        open spans of transactions the crash killed simply never close,
        which is itself the signal.
        """
        self.obs = kit
        self._wire_obs()
        return kit

    def _wire_obs(self):
        if self.obs is None:
            return
        self.obs.attach_manager(
            self.manager, trace=self.name, correlate=self._correlate
        )

    def _correlate(self, tid):
        """A transaction's logical identity: ``owner_site:owner_tid``.

        Proxies resolve to the remote transaction they stand in for, so
        all spans of one logical transaction share a correlation id.
        """
        owner = self.proxy_owner.get(tid)
        if owner is not None:
            return f"{owner[0]}:{owner[1]}"
        return f"{self.name}:{int(tid)}"

    def crash(self):
        """Power cut: volatile state and the unflushed log tail are gone."""
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        self.fabric.mark_down(self.name)
        self.deadlines.close()
        self.storage.crash()

    def restart(self):
        """Reboot: replay the log, surface in-doubt groups, resume duty.

        The takeover / decision / prepare evidence is folded from
        ``log.records()``, decoding nothing the restart has not already
        decoded: ``storage.recover()`` began with ``drop_volatile``, so
        the log's decoded tail *is* the durable view, and what recovery
        appended to it since (compensation and abort records) is none of
        the three types read here.  Below a restart point the prefix is
        read from the device, as the durable view would.
        """
        if self.up:
            return self.recovery_report
        report = self.storage.recover()
        self._boot()
        self.recovery_report = report
        claims, decisions, votes = {}, {}, {}
        kept = {TakeoverRecord: claims, DecisionRecord: decisions, PrepareRecord: votes}
        for record in self.storage.log.records():
            latest = kept.get(type(record))
            if latest is not None:
                latest[record.gid] = record
        for gid in claims.keys() | decisions.keys() | votes.keys():
            g = self._group(gid)
            g.claim = claims.get(gid)
            if g.claim is not None:
                # Durable takeover claims restore the fencing epoch: a
                # reborn taker must never act below the authority it
                # already asserted.
                g.epoch = g.claim.epoch
            decision, vote = decisions.get(gid), report.in_doubt_votes.get(gid)
            g.voted = gid in votes
            if decision is not None:
                g.verdict = decision.verdict
                g.commit_logged = decision.verdict == "commit"
            elif g.voted and vote is None:
                g.verdict = self._resolved_verdict(votes[gid], report.winners)
            if vote is not None:
                g.tid, g.tids = vote.tid, vote.prepared_tids()
                g.coordinator, g.sites = vote.coordinator, vote.sites
                self._move(g, "phase", "in_doubt")
            elif g.verdict is not None:
                g.phase = "settled"
        # Resume duty, decided groups first and each by ascending gid.
        for gid, decision in sorted(decisions.items()):
            g = self.groups[gid]
            if g.phase == "in_doubt":
                # A decision logged but not yet applied (crash between
                # the force-log and the local settle): finish it now.
                self._finish_in_doubt(g, decision.verdict)
                self._move(g, "phase", "settled")
            # Re-announce: participants may have crashed or missed the
            # release.  Loss is fine — their own inquiry retries cover
            # it; this is just the fast path.
            for participant in decision.participants:
                self._send_decision(g, participant, decision.verdict, g.epoch)
        # A takeover claim without its decision record: the crash landed
        # between the two force-logs.  The logged verdict was derived
        # from durable evidence that only this claim could have changed,
        # so adopting it is safe — finish the takeover it started.  (All
        # that is active after the fold is in doubt and undecided.)
        for gid in sorted(self.active):
            g = self.groups[gid]
            if g.claim is not None:
                g.takeover = Takeover(
                    g.claim.epoch, g.claim.old_coordinator, g.sites, claimed=True
                )
                self._complete_takeover(g, g.claim.verdict)
        return report

    def _resolved_verdict(self, vote, winners):
        """The fate of a group this site voted in and later resolved.

        The ledger is volatile; only the log survives, and a restarted
        commit witness that answered a takeover poll (or a status
        inquiry) with "no information" would let a taker presume abort
        over a member this site durably committed — a cross-site
        atomicity violation.  A voted gid that recovery does not report
        in doubt was resolved: its members are recovery winners iff the
        group committed, and all hold durable abort records otherwise.
        """
        committed = vote.tid in winners or not winners.isdisjoint(vote.group)
        return "commit" if committed else "abort"

    # -- small helpers -----------------------------------------------------

    def _send(self, dst, kind, payload, reply_to=None):
        return self.fabric.send(self.name, dst, kind, payload, reply_to=reply_to)

    def _reply(self, msg, payload):
        return self._send(msg.src, msg.kind + ".reply", payload, reply_to=msg.msg_id)

    def _live_td(self, tid):
        td = self.manager.table.maybe_get(tid)
        if td is None or td.status.is_terminated:
            return None
        return td

    def durable_records(self):
        """The durable log view — what a restart would recover from."""
        return self.storage.log.records(durable_only=True)

    def unsettled(self):
        """Whether protocol work is still outstanding at this site."""
        return bool(self.active or self.handoff is not None)

    @property
    def settled_gids(self):
        """Computed view: gid -> verdict for every group settled here."""
        return {
            gid: g.verdict for gid, g in self.groups.items() if g.verdict is not None
        }

    @property
    def voted_gids(self):
        """Computed view: every gid this site ever force-logged a vote for."""
        return {gid for gid, g in self.groups.items() if g.voted}

    # -- the group ledger --------------------------------------------------

    def _group(self, gid):
        """The record for ``gid``, created on first mention."""
        g = self.groups.get(gid)
        if g is None:
            g = self.groups[gid] = Group(gid)
        return g

    def _move(self, g, field, value):
        """Apply a lifecycle transition (of ``phase`` / ``state`` /
        ``takeover``) and keep ``active`` the gids that have work."""
        setattr(g, field, value)
        if g.phase in VOTING or g.state in OPEN or g.takeover is not None:
            self.active.add(g.gid)
        else:
            self.active.discard(g.gid)

    def _tell(self, dst, kind, g, epoch=None, **fields):
        """Send one group message: every one names its gid and carries
        its sender's fencing epoch (or the ``epoch`` it acts under)."""
        if epoch is None:
            epoch = g.epoch
        self._send(dst, kind, {"gid": g.gid, **fields, "epoch": epoch})

    def _fence(self, g, epoch):
        """Admit or reject a group message by fencing epoch.

        Lower-than-known epochs are stale — a reappearing old
        coordinator, or a delayed pre-takeover release — and are
        dropped (counted).  Equal epochs pass (same-epoch dueling
        takers derive the same verdict from the same durable evidence),
        and higher epochs are adopted on the spot.
        """
        if epoch < g.epoch:
            self._stat("stale_epoch_rejects")
            return False
        g.epoch = max(g.epoch, epoch)
        return True

    def _stat(self, name, amount=1):
        self.stats[name] += amount
        if self.obs is not None:
            counter = self.obs.metrics.counter(
                f"site.protocol.{name}", site=self.name
            )
            counter.value += amount

    def _obs_link(self, tids, kind, **fields):
        """Link ``kind`` onto the spans of ``tids`` that carry the gid
        ``fields`` names (a PREPARED event stamps it), or none.

        Takeovers and handoffs are not transaction-level transitions, so
        they surface as links on the spans of the transactions they
        settle or move — in the same export as the 2PC marks."""
        if self.obs is None:
            return
        spans = self.obs.spans.spans
        gid = fields.get("gid")
        for tid in tids:
            span = spans.get((self.name, tid))
            if span is not None and span["gid"] == gid:
                span["links"].append(
                    {"type": kind, "tick": self.ticks, **fields}
                )

    def _note_coordinator_alive(self, g, src=None):
        """Evidence of a live deciding authority for ``g``: refresh
        the coordinator lease and reset the takeover countdown."""
        if g.phase not in WAITING:
            return
        g.overdue = 0
        if src is not None and g.phase == "prepared":
            # An in-doubt member keeps asking the coordinator its vote
            # record names; redirecting it would renumber steps.
            g.coordinator = src
        self.deadlines.grant_lease(("gcl", g.gid), COORDINATOR_LEASE)

    def _takeover_threshold(self, sites, coordinator):
        """How many overdue ticks before *this* site takes over, or
        ``None`` if it never should.

        Successors are ranked by name among the members that are not the
        old coordinator; rank r waits ``TAKEOVER_GRACE * (r + 1)`` ticks
        so the designated successor acts first and the others are
        deterministic fallbacks should it die too.  A coordinator reborn
        in doubt about its own group (``coordinator == self.name``) is
        rank 0: it cannot ask itself, so it re-derives by polling."""
        if coordinator == self.name:
            return TAKEOVER_GRACE
        candidates = sorted(s for s in sites if s != coordinator)
        if self.name not in candidates:
            return None
        return TAKEOVER_GRACE * (candidates.index(self.name) + 1)

    # -- proxies -----------------------------------------------------------

    def proxy_for(self, owner_site, owner_tid_value):
        """The local proxy standing in for a remote transaction.

        Created on first use: an initiated, begun, driver-managed
        transaction (no program) that the runtime auto-completes — so it
        can immediately hold locks, receive delegations, and anchor
        dependency edges.  The owner site is told, so fate notifications
        flow back.
        """
        key = (owner_site, owner_tid_value)
        proxy = self.proxies.get(key)
        if proxy is not None:
            return proxy
        proxy = self.manager.initiate(function=None)
        self.runtime.begin(proxy)
        self.proxies[key] = proxy
        self.proxy_owner[proxy] = key
        self._send(owner_site, PROXY_NOTE, {"tid": owner_tid_value, "holder": self.name})
        return proxy

    def _on_local_event(self, event):
        """Propagate local terminations across the fabric.

        A proxy's abort is reported home; a local transaction's fate is
        pushed to every remote holder of its proxies.  All of it rides
        unreliable links — for grouped transactions the 2PC decision is
        the safety net, for ungrouped ones this is documented best-effort
        (exactly the paper's remote-dependency caveat).
        """
        if not self.up:
            return
        tid = event.tid
        aborted = event.kind is EventKind.ABORTED
        owner = self.proxy_owner.get(tid)
        if owner is not None and aborted:
            owner_site, owner_value = owner
            self._send(
                owner_site,
                ABORT_TX,
                {"tid": owner_value, "reason": f"proxy aborted at {self.name}"},
            )
        holders = self.remote_holders.get(tid)
        if holders:
            kind = ABORT_PROXY if aborted else COMMIT_PROXY
            for holder in sorted(holders):
                self._send(
                    holder,
                    kind,
                    {
                        "owner": self.name,
                        "tid": tid,
                        "reason": f"owner {'aborted' if aborted else 'committed'}",
                    },
                )

    def _abort_unless_prepared(self, tid, reason):
        """Abort ``tid`` unless it voted: prepared fate belongs to the
        coordinator's decision, never to a stray notification."""
        td = self._live_td(tid)
        if td is None or td.status is TransactionStatus.PREPARED:
            return False
        return self.manager.abort(tid, reason=reason)

    # -- message dispatch --------------------------------------------------

    def on_message(self, msg):
        if not self.up:
            return
        handler = self._HANDLERS.get(msg.kind)
        if handler is None:
            return
        if self.obs is not None:
            with self.obs.message_context(self.name, msg):
                handler(self, msg)
        else:
            handler(self, msg)

    # -- driver RPC handlers ----------------------------------------------

    def _h_initiate(self, msg):
        tid = self.manager.initiate(
            function=msg.payload.get("function"),
            args=tuple(msg.payload.get("args", ())),
        )
        self._reply(msg, {"tid": tid})

    def _h_begin(self, msg):
        tid = Tid(msg.payload["tid"])
        started = bool(self._live_td(tid)) and self.runtime.begin(tid)
        self._reply(msg, {"started": bool(started)})

    def _h_spawn(self, msg):
        route_epoch = msg.payload.get("route_epoch")
        if route_epoch is not None and (
            self.left or route_epoch < self.membership_epoch
        ):
            # Routed work carrying a stale membership view: reject with
            # the current epoch so the router refreshes and retries —
            # a left site must never accept new placements.
            self._stat("stale_route_rejects")
            self._reply(
                msg,
                {
                    "tid": 0,
                    "stale_route": True,
                    "epoch": self.membership_epoch,
                    "left": self.left,
                },
            )
            return
        tid = self.manager.initiate(
            function=msg.payload["function"],
            args=tuple(msg.payload.get("args", ())),
        )
        if tid:
            self.runtime.begin(tid)
        self._reply(msg, {"tid": tid})

    def _h_wait(self, msg):
        tid = Tid(msg.payload["tid"])
        td = self.manager.table.maybe_get(tid)
        if td is None:
            outcome = "unknown"
        else:
            verdict = self.manager.wait_outcome(tid)
            if verdict is None:
                outcome = "running"
            elif verdict:
                outcome = "committed" if td.status.is_terminated else "completed"
            else:
                outcome = "aborted"
        self._reply(msg, {"outcome": outcome})

    def _h_result(self, msg):
        tid = Tid(msg.payload["tid"])
        self._reply(msg, {"value": self.runtime.result_of(tid)})

    def _h_abort_tx(self, msg):
        tid = Tid(msg.payload["tid"])
        done = self._abort_unless_prepared(
            tid, msg.payload.get("reason", "remote abort request")
        )
        if msg.reply_to is None and msg.src == "client":
            self._reply(msg, {"aborted": bool(done)})

    def _h_form_dep(self, msg):
        dep_type = DependencyType[msg.payload["dep_type"]]
        ti = Tid(msg.payload["ti"])
        tj = Tid(msg.payload["tj"])
        try:
            self.manager.form_dependency(dep_type, ti, tj)
            ok = True
        except TransientIOError:
            raise
        except Exception as exc:  # cycle / unknown tid -> report, not die
            ok = False
            self._reply(msg, {"ok": False, "error": type(exc).__name__})
            return
        self._reply(msg, {"ok": ok})

    def _h_form_remote_dep(self, msg):
        """One site's half of a cross-site dependency.

        The peer transaction is represented by its local proxy; the edge
        is the ordinary section 4.1 edge with the proxy in the remote
        party's place.  ``role`` says which side of the edge the *local*
        transaction is on.
        """
        dep_type = DependencyType[msg.payload["dep_type"]]
        local = Tid(msg.payload["local"])
        proxy = self.proxy_for(msg.payload["peer_site"], msg.payload["peer_tid"])
        try:
            if msg.payload["role"] == "dependee":
                self.manager.form_dependency(dep_type, local, proxy)
            else:
                self.manager.form_dependency(dep_type, proxy, local)
            ok, error = True, None
        except TransientIOError:
            raise
        except Exception as exc:
            ok, error = False, type(exc).__name__
        self._reply(msg, {"ok": ok, "error": error})

    def _h_delegate(self, msg):
        """Delegate local responsibility, possibly to a remote receiver.

        A remote receiver is its proxy here: the giver-site log records
        the :class:`~repro.storage.log.DelegateRecord` against the proxy,
        so recovery attributes undo to the receiver's stand-in exactly as
        section 3's joint-checking scenario requires.
        """
        giver = Tid(msg.payload["tid"])
        oids = msg.payload.get("oids")
        receiver_site = msg.payload.get("receiver_site", self.name)
        if receiver_site == self.name:
            receiver = Tid(msg.payload["receiver_tid"])
        else:
            receiver = self.proxy_for(receiver_site, msg.payload["receiver_tid"])
        try:
            moved = self.manager.delegate(giver, receiver, oids)
            self._reply(msg, {"ok": True, "moved": sorted(moved)})
        except TransientIOError:
            raise
        except Exception as exc:
            self._reply(msg, {"ok": False, "error": type(exc).__name__})

    def _h_permit(self, msg):
        giver = Tid(msg.payload["tid"])
        receiver_site = msg.payload.get("receiver_site", self.name)
        receiver_value = msg.payload.get("receiver_tid")
        if receiver_value is None:
            receiver = None
        elif receiver_site == self.name:
            receiver = Tid(receiver_value)
        else:
            receiver = self.proxy_for(receiver_site, receiver_value)
        try:
            self.manager.permit(
                giver,
                receiver,
                oids=msg.payload.get("oids"),
                operations=msg.payload.get("operations"),
            )
            self._reply(msg, {"ok": True})
        except TransientIOError:
            raise
        except Exception as exc:
            self._reply(msg, {"ok": False, "error": type(exc).__name__})

    def _h_proxy_write(self, msg):
        """A remote transaction writes *here*, through its proxy.

        This is what a cross-site permit buys: the receiver's accesses at
        the giver's site run under the proxy's tid, so attribution, WAL
        images, and undo responsibility all land on the stand-in.
        """
        proxy = self.proxy_for(msg.payload["owner"], msg.payload["tid"])
        outcome = self.manager.try_write(
            proxy, msg.payload["oid"], msg.payload["value"]
        )
        self._reply(msg, {"granted": bool(outcome)})

    def _h_proxy_read(self, msg):
        proxy = self.proxy_for(msg.payload["owner"], msg.payload["tid"])
        outcome, value = self.manager.try_read(proxy, msg.payload["oid"])
        self._reply(msg, {"granted": bool(outcome), "value": value})

    # -- fate notification handlers ---------------------------------------

    def _h_proxy_note(self, msg):
        holders = self.remote_holders.setdefault(msg.payload["tid"], set())
        holders.add(msg.payload["holder"])

    def _h_abort_proxy(self, msg):
        proxy = self.proxies.get((msg.payload["owner"], msg.payload["tid"]))
        if proxy is not None:
            self._abort_unless_prepared(
                proxy, msg.payload.get("reason", "owner aborted")
            )

    def _h_commit_proxy(self, msg):
        """The remote owner committed on its own (no global group).

        Only a *standalone* proxy commits here: a proxy woven into a GC
        group belongs to two-phase commit, and committing it early would
        drag local group members past their vote.
        """
        proxy = self.proxies.get((msg.payload["owner"], msg.payload["tid"]))
        if proxy is None or self._live_td(proxy) is None:
            return
        if self.manager.dependencies.gc_group(proxy) == {proxy}:
            self.runtime.commit(proxy)

    # -- two-phase commit: coordinator ------------------------------------

    def _h_gc_begin(self, msg):
        g = self._group(msg.payload["gid"])
        if g.state is not None:
            if g.state in OPEN:
                # Still collecting votes, or waiting for the witness ACK
                # that seals the commit — answer when the fate is sealed.
                g.client = (msg.src, msg.msg_id)
            else:
                self._reply(msg, {"committed": g.verdict == "commit"})
            return
        g.members = dict(msg.payload["members"])
        g.votes, g.acks = {}, set()
        g.client = (msg.src, msg.msg_id)
        g.deadline = VOTE_TTL
        g.next_beat = self.ticks + HEARTBEAT_INTERVAL
        self._move(g, "state", "collecting")
        sites = tuple(sorted(g.members))
        for site, tid_value in sorted(g.members.items()):
            # The same request, to the local member or over the wire.
            ask = {"tid": tid_value, "coordinator": self.name, "sites": sites}
            if site == self.name:
                self._accept_prepare(g, **ask)
            else:
                self._tell(site, PREPARE, g, **ask)

    def _record_vote(self, g, site, verdict):
        if g.state != "collecting":
            return
        g.votes[site] = verdict
        if verdict == "abort":
            self._decide(g, "abort")
        elif all(g.votes.get(s) == "commit" for s in g.members):
            self._decide(g, "commit")

    def _decide(self, g, verdict):
        """Seal the global fate and release it — witnesses first.

        On commit the DECISION messages leave *before* the
        :class:`DecisionRecord` is force-logged, and the force-log (plus
        local apply and client reply, in :meth:`_seal_commit`) waits in
        state ``releasing`` for the first participant ACK.  A send is
        not a delivery: only an acknowledged DECISION proves a durable
        commit witness exists among the members, so the invariant "a
        logged commit implies a witness exists" holds even if every
        fan-out message is dropped and this site then dies permanently.
        That invariant is what makes coordinator takeover safe: a taker
        that finds no commit witness among the members may presume
        abort, because a commit this coordinator logged but never got
        witnessed cannot exist.  (A crash while ``releasing`` leaves no
        decision record; the restarted coordinator is then in doubt
        about its own group and re-derives by polling — a witness that
        did receive the commit answers for it.)  Abort decisions are
        never logged on this path (presumed abort: absence of a
        decision *is* the abort record), and a commit with no remote
        participant seals immediately — its own log is the only truth
        and no takeover can contradict it.
        """
        if verdict == "commit" and any(s != self.name for s in g.members):
            g.next_beat = self.ticks + HEARTBEAT_INTERVAL
            self._move(g, "state", "releasing")
        else:
            self._move(g, "state", "decided")
        self._release(g, verdict, g.epoch)
        if not self.up or g.state == "releasing":
            # Dead (a planned crash fired on one of those sends — the
            # site must not touch its storage again), or waiting for a
            # witness ACK to seal the commit.
            return
        self._seal(g, verdict)

    def _send_decision(self, g, site, verdict, epoch):
        """The one DECISION message: the verdict, fenced by ``epoch``,
        naming ``site``'s member when this site knows the membership."""
        member = {} if g.members is None else {"tid": g.members.get(site)}
        self._tell(site, DECISION, g, epoch, verdict=verdict, **member)

    def _release(self, g, verdict, epoch):
        """Send the decision to every remote member that has not
        acknowledged it (DECISION is idempotent and always ACKed)."""
        for site in sorted(g.members):
            if site != self.name and site not in g.acks:
                self._send_decision(g, site, verdict, epoch)

    def _seal(self, g, verdict):
        """The fate is final here: log it, apply it, tell the client."""
        if verdict == "commit":
            self._log_commit_decision(g)
            if not self.up:
                return
        # The coordinator is its own participant: apply the decision to
        # the local member through the same path a remote one would use.
        self._apply_decision_locally(g, verdict, g.members.get(self.name))
        if not self.up:
            return
        self._answer_group_client(g)

    def _log_commit_decision(self, g):
        """Force-log the commit :class:`DecisionRecord` for ``g``."""
        anchor, group = Tid(0), ()
        local_value = g.members.get(self.name)
        if local_value is not None:
            anchor = Tid(local_value)
            group = tuple(
                sorted(self.manager.dependencies.gc_group(anchor) - {anchor})
            )
        participants = sorted(s for s in g.members if s != self.name)
        self.storage.log_decision(
            anchor, g.gid, "commit", group=group, participants=participants
        )
        g.commit_logged = True

    def _answer_group_client(self, g):
        """Reply to the console waiting on ``gc_begin``, if any."""
        client, g.client = g.client, None
        if client is not None:
            src, msg_id = client
            self._send(
                src,
                "gc_begin.reply",
                {"gid": g.gid, "committed": g.verdict == "commit"},
                reply_to=msg_id,
            )

    def _seal_commit(self, g):
        """First witness ACK arrived: make the commit decision durable.

        The acknowledging participant has durably applied the commit,
        so force-logging the :class:`DecisionRecord` now preserves the
        takeover invariant — any taker polling the members will find at
        least one ``committed`` witness.  Local apply and the client
        reply were deferred with the log for the same reason: nothing
        observable may claim commit while no witness exists.
        """
        self._move(g, "state", "decided")
        self._seal(g, "commit")

    def _h_vote(self, msg):
        g = self._group(msg.payload["gid"])
        self._record_vote(g, msg.payload["site"], msg.payload["verdict"])

    def _h_ack(self, msg):
        g = self._group(msg.payload["gid"])
        if g.state not in ("releasing", "decided"):
            return
        g.acks.add(msg.payload["site"])
        if g.state == "releasing":
            # First acknowledged witness: the commit may now be sealed.
            self._seal_commit(g)
            if not self.up:
                return
        if g.acks >= {s for s in g.members if s != self.name}:
            self._move(g, "state", "done")

    def _h_status_req(self, msg):
        """Answer an inquiry: :func:`evidence`, through ``STATUS_VERDICT``.

        A ``releasing`` coordinator reads as *pending*: the commit is
        volatile until a witness ACK seals it, and answering "commit"
        would let the asker durably apply it — including *this site's
        own member* via a self-inquiry — minting a witness the takeover
        derivation does not know can exist.  DECISION resends carry
        liveness.
        """
        g = self._group(msg.payload["gid"])
        self._fence(g, msg.payload.get("epoch", 0))  # adopt, never reject
        self._tell(msg.src, STATUS_REP, g, verdict=STATUS_VERDICT[evidence(g)[0]])

    # -- two-phase commit: participant ------------------------------------

    def _h_prepare(self, msg):
        payload = msg.payload
        g = self._group(payload["gid"])
        if self._fence(g, payload.get("epoch", 0)):
            sites = tuple(payload.get("sites", ()))
            self._accept_prepare(g, payload["tid"], payload["coordinator"], sites)

    def _accept_prepare(self, g, tid, coordinator, sites):
        if g.phase in VOTING or g.commit_logged:
            return  # duplicate PREPARE (at-least-once links)
        g.tid = Tid(tid)
        g.coordinator = coordinator
        g.sites = sites
        g.ttl = PREPARE_TTL
        self._move(g, "phase", "pending")
        self._attempt_prepare(g)

    def _attempt_prepare(self, g):
        """Try to vote; called at accept time and retried from ticks."""
        if self.handoff is not None:
            # The member was gathered for migration before this PREPARE
            # arrived.  The 2PC claim wins: voting yes *and* delegating
            # it away would race the group verdict against the handoff.
            # Keep it here for group duty (a leaving site still serves
            # 2PC) and migrate only the rest.
            self.handoff["txs"].pop(g.tid, None)
        outcome = self.manager.try_prepare(
            g.tid, gid=g.gid, coordinator=g.coordinator, sites=g.sites
        )
        if outcome:
            g.voted = True
            if outcome.group:
                g.tids = outcome.group
            g.overdue = 0
            self._move(g, "phase", "prepared")
            # Pace decision inquiries with a lease: while it is live we
            # trust the decision is in flight, when it lapses we ask.
            # A second lease tracks the *coordinator* itself: refreshed
            # by its heartbeats; once it lapses the takeover countdown
            # starts.
            self.deadlines.grant_lease(("gc", g.gid), INQUIRY_INTERVAL)
            self.deadlines.grant_lease(("gcl", g.gid), COORDINATOR_LEASE)
            self._cast_vote(g, "commit")
        elif outcome.status is PrepareStatus.ABORTED:
            self._move(g, "phase", None)
            self._cast_vote(g, "abort")
        # NOT_COMPLETED / BLOCKED: keep pending, the tick loop retries.

    def _cast_vote(self, g, verdict):
        if g.coordinator == self.name:
            self._record_vote(g, self.name, verdict)
        else:
            self._tell(g.coordinator, VOTE, g, site=self.name, verdict=verdict)

    def _h_decision(self, msg):
        g = self._group(msg.payload["gid"])
        epoch = msg.payload.get("epoch", 0)
        if not self._fence(g, epoch):
            return
        # Whoever released this decision holds (at least) our epoch:
        # any takeover of ours is superseded by it.
        self._move(g, "takeover", None)
        if g.state in OPEN:
            # A usurper sealed the fate while this (superseded, fenced
            # past) coordinator was still collecting votes or waiting
            # for its witness ACK.  Adopt the verdict — the usurper's
            # log is the durable truth now — and answer the client.
            self._move(g, "state", "decided")
        self._apply_decision_locally(g, msg.payload["verdict"], msg.payload.get("tid"))
        if not self.up:
            return
        if g.state == "decided":
            self._answer_group_client(g)
        self._tell(msg.src, ACK, g, epoch, site=self.name)

    def _h_status_rep(self, msg):
        g = self._group(msg.payload["gid"])
        if not self._fence(g, msg.payload.get("epoch", 0)):
            return
        verdict = msg.payload["verdict"]
        if verdict == "pending":
            # The coordinator answered: alive, still deciding.
            self._note_coordinator_alive(g, src=msg.src)
            return
        self._move(g, "takeover", None)
        self._apply_decision_locally(g, verdict, None)

    def _apply_decision_locally(self, g, verdict, tid_value):
        """Finish the local member group per the global verdict.

        Handles every shape the participant can be in: still pending
        (never managed to vote), live-prepared, in doubt after a
        restart, or already settled (duplicate decision — a no-op).
        """
        phase = g.phase
        self.deadlines.forget(("gc", g.gid))
        self.deadlines.forget(("gcl", g.gid))
        g.verdict = verdict
        self._move(g, "phase", "settled")
        if phase == "prepared":
            if verdict == "commit":
                self.runtime.commit(g.tid)
            else:
                self.manager.abort(g.tid, reason=f"global group {g.gid} aborted")
                # The vote was force-logged, so its resolution must be
                # too: an abort record still in the volatile tail would
                # leave the durable log claiming we are in doubt.
                self.storage.sync_log()
        elif phase == "in_doubt":
            self._finish_in_doubt(g, verdict)
        elif tid_value is not None and verdict == "abort":
            # Decision for a member we never prepared (the PREPARE was
            # lost): an abort decision still names the component.
            self._abort_unless_prepared(
                Tid(tid_value), f"global group {g.gid} aborted"
            )

    def _finish_in_doubt(self, g, verdict):
        """Settle a recovered in-doubt group at the log level.

        There is no live transaction state after a restart — recovery
        already reinstalled the group's updates (they were neither
        winners nor losers) — so commit is one durable commit record and
        abort is the undo pass plus abort records, exactly what the
        recovery manager would have done with the decision in hand.
        """
        if verdict == "commit":
            others = tuple(t for t in g.tids if t != g.tid)
            self.storage.log_commit(g.tid, group=others)
        else:
            members = sorted(g.tids)
            self.storage.undo_many(members)
            for member in members:
                self.storage.log_abort(member)
        self.storage.sync_log()

    # -- coordinator failover ----------------------------------------------

    def _h_gc_heartbeat(self, msg):
        """The coordinator's lease renewal for one of its groups."""
        g = self._group(msg.payload["gid"])
        if self._fence(g, msg.payload.get("epoch", 0)):
            self._note_coordinator_alive(g, src=msg.src)

    def _start_takeover(self, g):
        """Claim a wedged in-doubt group at the next fencing epoch.

        The taker polls every member for durable evidence; the old
        coordinator is polled too (it may be reborn holding the
        verdict) but is the only member whose *silence* is eventually
        presumed — any other silent member might be a commit witness.
        """
        # Only a waiting member takes over, so a taker has voted: its
        # own evidence is never "no trace", its STATUS_REP never abort.
        assert g.voted and g.takeover is None
        g.epoch = epoch = g.epoch + 1  # above any claim: restart restored it
        self._stat("takeovers_started")
        self._obs_link(
            g.tids, "takeover_started", gid=g.gid, epoch=epoch, old=g.coordinator
        )
        self._move(g, "takeover", Takeover(epoch, g.coordinator, g.sites))
        self._poll_takeover(g)

    def _poll_takeover(self, g):
        taker = g.takeover
        taker.next_poll = self.ticks + INQUIRY_INTERVAL
        for site in taker.sites:
            if site == self.name or site in taker.evidence:
                continue
            self._tell(site, TAKEOVER_QUERY, g, taker.epoch, site=self.name)
        self._maybe_conclude_takeover(g)

    def _h_takeover_query(self, msg):
        g = self._group(msg.payload["gid"])
        epoch = msg.payload["epoch"]
        if not self._fence(g, epoch):
            # Teach the stale taker the newer epoch so it stands down.
            self._tell(
                msg.src, TAKEOVER_EVIDENCE, g, site=self.name, state="superseded"
            )
            return
        if g.takeover is not None and g.takeover.epoch < epoch:
            # A higher-epoch taker owns this group; abandon our claim.
            self._move(g, "takeover", None)
        # The querying taker is the acting authority now: inquiries go
        # to it, and its poll counts as a heartbeat.
        self._note_coordinator_alive(g, src=msg.src)
        state, tid_value = evidence(g)
        self._tell(
            msg.src, TAKEOVER_EVIDENCE, g, site=self.name, state=state, tid=tid_value
        )

    def _h_takeover_evidence(self, msg):
        g = self._group(msg.payload["gid"])
        taker = g.takeover
        if taker is None:
            return
        epoch = msg.payload["epoch"]
        state = msg.payload["state"]
        if epoch > taker.epoch or state == "superseded":
            g.epoch = max(g.epoch, epoch)
            self._move(g, "takeover", None)
            self._stat("takeovers_cancelled")
            return
        site = msg.payload["site"]
        if state == "collecting":
            if site == taker.old:
                # The old coordinator answered: alive and still
                # deciding.  Cancel the coup, fall back to inquiries.
                self._move(g, "takeover", None)
                self._stat("takeovers_cancelled")
                self._note_coordinator_alive(g)
                return
            state = "prepared"  # a rival same-epoch taker mid-poll
        taker.evidence[site] = state
        if msg.payload.get("tid") is not None:
            taker.tids[site] = msg.payload["tid"]
        if state in ("committed", "aborted"):
            # Someone already holds a durable outcome for this group —
            # adopt it now instead of waiting out members that may never
            # answer (a crashed rival taker whose decision this is, or a
            # reborn old coordinator that settled before dying again).
            self._complete_takeover(
                g, "commit" if state == "committed" else "abort"
            )
            return
        self._maybe_conclude_takeover(g)

    def _maybe_conclude_takeover(self, g):
        """Derive the verdict once every pollable member has answered.

        Evidence from *all* members except the old coordinator is
        required — a silent member could be a commit witness, and
        presuming abort over it would split the group.  Only the old
        coordinator's silence is presumed (abort), which the
        witness-confirmed release in :meth:`_decide` makes safe: a
        commit the old coordinator logged without any member holding it
        cannot exist.  Any commit evidence — including a reborn old
        coordinator's durable decision — forces commit.  Abort is
        presumed only over states that provably never held a commit
        (``prepared`` / ``pending_prepare`` / ``never_prepared`` /
        ``aborted``); a ``resolved_unknown`` answer blocks the
        conclusion rather than risk a dual durable verdict.
        """
        taker = g.takeover
        if any(
            s not in taker.evidence
            for s in taker.sites
            if s not in (self.name, taker.old)
        ):
            return
        states = set(taker.evidence.values())
        states.add(evidence(g)[0])
        if "committed" in states:
            self._complete_takeover(g, "commit")
            return
        if "resolved_unknown" in states:
            # Some member voted and later resolved but lost track of
            # which way — a recovery defect surfaced loudly.  Concluding
            # either verdict would be a guess; leave the group open (the
            # quiescence oracle will flag it) instead of gambling.
            return
        self._complete_takeover(g, "abort")

    def _complete_takeover(self, g, verdict):
        """Force-log the claim + decision, settle locally, release."""
        taker = g.takeover
        self._move(g, "takeover", None)
        epoch = taker.epoch
        g.epoch = max(g.epoch, epoch)
        if not taker.claimed:
            votes = tuple(
                f"{site}:{state}"
                for site, state in sorted(taker.evidence.items())
            )
            g.claim = self.storage.log_takeover(
                g.gid, epoch, taker.old, verdict, votes=votes
            )
        if not self.up:
            return
        participants = tuple(s for s in taker.sites if s != self.name)
        # Unlike the primary path, *both* verdicts are force-logged:
        # the decision record is the audit trail the no-dual-decision
        # oracle (and any later taker) reads.
        self.storage.log_decision(
            g.tid if g.tid else Tid(0), g.gid, verdict, participants=participants
        )
        if not self.up:
            return
        if verdict == "commit":
            g.commit_logged = True
        self._stat("takeovers_decided")
        self._obs_link(
            g.tids, "takeover_decided", gid=g.gid, epoch=epoch, verdict=verdict
        )
        # The taker is the group's coordinator of record from here on.
        g.members = {site: taker.tids.get(site) for site in taker.sites}
        g.members[self.name] = g.tid
        g.votes, g.acks, g.client = {}, set(), None
        self._move(g, "state", "decided")
        self._apply_decision_locally(g, verdict, g.tid)
        if not self.up:
            return
        self._release(g, verdict, epoch)

    # -- membership churn: join, leave, object-range handoff ---------------

    def _h_join_announce(self, msg):
        """A new site joined: adopt the bumped membership epoch."""
        epoch = msg.payload["epoch"]
        self.membership_epoch = max(self.membership_epoch, epoch)
        self._reply(msg, {"ok": True, "epoch": self.membership_epoch})

    def _h_leave_begin(self, msg):
        """Console request: leave the cluster, handing uncommitted state
        to ``successor`` via delegation (the ASSET §4 primitive — the
        migration *is* a delegation of responsibility).

        Live, unprepared local transactions are offered to the
        successor; 2PC members stay behind (their fate belongs to their
        coordinator) and this site keeps serving protocol duty for
        them.  The console reply is deferred until the handoff settles.
        """
        epoch = msg.payload["epoch"]
        successor = msg.payload["successor"]
        self.membership_epoch = max(self.membership_epoch, epoch)
        if self.handoff is not None or self.left:
            self._reply(msg, {"ok": False, "error": "already leaving"})
            return
        in_twophase = {
            self.groups[gid].tid
            for gid in self.active
            if self.groups[gid].phase in ("pending", "prepared")
        }
        txs = {}
        for td in self.manager.table.live():
            tid = td.tid
            if td.status is TransactionStatus.PREPARED:
                continue
            if tid in in_twophase or tid in self.proxy_owner:
                continue
            txs[tid] = sorted(
                {
                    record.oid
                    for record in self.storage.log.updates_by(tid)
                }
            )
        if not txs:
            self.left = True
            self._stat("handoffs_completed")
            self._reply(msg, {"ok": True, "moved": 0, "adopted": {}})
            return
        self.handoff = {
            "successor": successor,
            "epoch": epoch,
            "txs": txs,
            "client": (msg.src, msg.msg_id),
            "map": None,
            "ttl": HANDOFF_TTL,
            "next_send": 0,
        }
        self._send_handoff_offer()

    def _send_handoff_offer(self):
        handoff = self.handoff
        handoff["next_send"] = self.ticks + INQUIRY_INTERVAL
        self._send(
            handoff["successor"],
            HANDOFF_OFFER,
            {
                "epoch": handoff["epoch"],
                "txs": sorted(handoff["txs"].items()),
            },
        )

    def _h_handoff_offer(self, msg):
        """Successor side: adopt one receiver per offered transaction.

        Idempotent per (leaver, epoch): the leaver retries the offer
        until accepted, and a duplicate must map to the *same*
        receivers, not a fresh batch.
        """
        epoch = msg.payload["epoch"]
        if epoch < self.membership_epoch and (msg.src, epoch) not in self._handoff_accepts:
            return  # stale offer from a superseded churn round
        self.membership_epoch = max(self.membership_epoch, epoch)
        key = (msg.src, epoch)
        adopted = self._handoff_accepts.get(key)
        if adopted is None:
            adopted = {}
            for tid_value, __ in msg.payload["txs"]:
                receiver = self.manager.initiate(function=None)
                self.runtime.begin(receiver)
                adopted[tid_value] = receiver
            self._handoff_accepts[key] = adopted
        self._send(
            msg.src,
            HANDOFF_ACCEPT,
            {"epoch": epoch, "map": sorted(adopted.items())},
        )

    def _h_handoff_accept(self, msg):
        """Leaver side: delegate every offered transaction's state to
        its adopted receiver (through the receiver's local proxy), then
        finish the givers and report back to the console."""
        handoff = self.handoff
        if handoff is None or msg.payload["epoch"] != handoff["epoch"]:
            return
        if msg.src != handoff["successor"]:
            return
        moved, handed = 0, []
        mapping = dict(msg.payload["map"])
        for tid_value in sorted(handoff["txs"]):
            receiver_value = mapping.get(tid_value)
            if receiver_value is None:
                continue
            giver = Tid(tid_value)
            if self._live_td(giver) is None:
                continue
            td = self.manager.table.maybe_get(giver)
            if td is not None and td.status is TransactionStatus.PREPARED:
                continue  # claimed by 2PC after the gather; it stays
            proxy = self.proxy_for(handoff["successor"], receiver_value)
            try:
                self.manager.delegate(giver, proxy, None)
            except TransientIOError:
                raise
            except Exception:
                self.manager.abort(giver, reason="handoff delegation failed")
                continue
            moved += 1
            handed.append(giver)
            td = self.manager.table.maybe_get(giver)
            if td is not None and td.status is TransactionStatus.COMPLETED:
                self.runtime.commit(giver)
            else:
                self.manager.abort(
                    giver, reason=f"handed off to {handoff['successor']}"
                )
        if not self.up:
            return
        self.handoff = None
        self.left = True
        self._stat("handoffs_completed")
        self._stat("handoff_txs_moved", moved)
        self._obs_link(handed, "handoff_done", moved=moved)
        self._send(
            handoff["successor"],
            HANDOFF_DONE,
            {"epoch": handoff["epoch"], "moved": moved},
        )
        src, msg_id = handoff["client"]
        self._send(
            src,
            "leave_begin.reply",
            {"ok": True, "moved": moved, "adopted": mapping},
            reply_to=msg_id,
        )

    def _h_handoff_done(self, msg):
        """Successor side: the leaver finished delegating.  Nothing to
        unwind — the receivers simply hold whatever arrived."""
        self.membership_epoch = max(
            self.membership_epoch, msg.payload["epoch"]
        )

    def _abandon_handoff(self):
        """The successor never answered within the handoff TTL: abort
        the gathered transactions locally (a clean, consistent abort)
        and report failure rather than wedging the leave forever."""
        handoff = self.handoff
        self.handoff = None
        self.left = True
        self._stat("handoffs_failed")
        for tid_value in sorted(handoff["txs"]):
            giver = Tid(tid_value)
            if self._live_td(giver) is not None:
                self.manager.abort(giver, reason="handoff successor lost")
        src, msg_id = handoff["client"]
        self._send(
            src,
            "leave_begin.reply",
            {"ok": False, "moved": 0, "adopted": {}},
            reply_to=msg_id,
        )

    # -- the tick loop -----------------------------------------------------

    def _chase_votes(self, g):
        """The coordinator's duty to an open group."""
        if g.state == "releasing":
            # Un-witnessed commit: keep re-releasing to members that
            # have not acknowledged until the first ACK seals it.
            if self.ticks >= g.next_beat:
                g.next_beat = self.ticks + HEARTBEAT_INTERVAL
                self._release(g, "commit", g.epoch)
            return
        # Vote deadline: silence is an abort vote.  While collecting,
        # heartbeat the members so their coordinator leases stay live
        # (a slow vote must not look like a dead coordinator).
        g.deadline -= 1
        if g.deadline <= 0:
            self._decide(g, "abort")
        elif self.ticks >= g.next_beat:
            g.next_beat = self.ticks + HEARTBEAT_INTERVAL
            for site in sorted(g.members):
                if site != self.name:
                    self._stat("heartbeats_sent")
                    self._tell(site, GC_HEARTBEAT, g)

    def _await_verdict(self, g):
        """A member that voted commit and has no verdict: ask when the
        inquiry pacing says so; when the *coordinator* lease lapses,
        count it overdue and — past this site's rank-staggered
        threshold — take over.

        A live-prepared member paces its inquiries with the ``gc``
        lease and asks even itself; a member in doubt after a restart
        paces them by tick (the coordinator may be long gone) and skips
        a coordinator that is this site, which it re-derives by polling.
        """
        live = g.phase == "prepared"
        if live:
            ask = not self.deadlines.lease_live(("gc", g.gid))
            if ask:
                self.deadlines.grant_lease(("gc", g.gid), INQUIRY_INTERVAL)
        else:
            ask = self.ticks >= g.next_ask
            if ask:
                g.next_ask = self.ticks + INQUIRY_INTERVAL
                ask = g.coordinator != self.name
        if ask:
            self._tell(g.coordinator, STATUS_REQ, g, site=self.name)
        if live and g.coordinator == self.name:
            return  # our own liveness is not in doubt
        if self.deadlines.lease_live(("gcl", g.gid)):
            g.overdue = 0
            return
        g.overdue += 1
        threshold = self._takeover_threshold(g.sites, g.coordinator)
        if threshold is not None and g.overdue >= threshold:
            self._start_takeover(g)

    def on_tick(self):
        """One deterministic slice of background duty per pump round."""
        if not self.up:
            return
        self.ticks += 1
        # Advance local transaction programs one cooperative step.
        self.runtime.round()
        # Everything below reads ``active`` or the handoff.
        if not self.unsettled():
            return
        # Five duties, in this order and each by ascending gid.  A tick
        # brings no new gid, so one snapshot serves them all; each duty
        # tests the record as it stands when its turn comes.
        work = [self.groups[gid] for gid in sorted(self.active)]
        for g in work:
            if g.phase == "pending":
                # Retry the vote; give up (vote abort) when the component
                # cannot complete within the prepare deadline.
                g.ttl -= 1
                self._attempt_prepare(g)
                if g.phase == "pending" and g.ttl <= 0:
                    self._move(g, "phase", None)
                    self._cast_vote(g, "abort")
        for g in work:
            if g.state in OPEN:
                self._chase_votes(g)
        for phase in WAITING:
            for g in work:
                if g.phase == phase and g.takeover is None:
                    self._await_verdict(g)
        # Takeover polls: re-ask members that have not answered yet.
        for g in work:
            if g.takeover is not None and self.ticks >= g.takeover.next_poll:
                self._poll_takeover(g)
        # Leaver-side handoff: retry the offer; give up past the TTL.
        if self.handoff is not None:
            self.handoff["ttl"] -= 1
            if self.handoff["ttl"] <= 0:
                self._abandon_handoff()
            elif self.ticks >= self.handoff["next_send"]:
                self._send_handoff_offer()

    _HANDLERS = {
        INITIATE: _h_initiate,
        BEGIN: _h_begin,
        SPAWN: _h_spawn,
        WAIT: _h_wait,
        RESULT: _h_result,
        ABORT_TX: _h_abort_tx,
        FORM_DEP: _h_form_dep,
        FORM_REMOTE_DEP: _h_form_remote_dep,
        DELEGATE: _h_delegate,
        PERMIT: _h_permit,
        PROXY_WRITE: _h_proxy_write,
        PROXY_READ: _h_proxy_read,
        PROXY_NOTE: _h_proxy_note,
        ABORT_PROXY: _h_abort_proxy,
        COMMIT_PROXY: _h_commit_proxy,
        GC_BEGIN: _h_gc_begin,
        PREPARE: _h_prepare,
        VOTE: _h_vote,
        DECISION: _h_decision,
        ACK: _h_ack,
        STATUS_REQ: _h_status_req,
        STATUS_REP: _h_status_rep,
        GC_HEARTBEAT: _h_gc_heartbeat,
        TAKEOVER_QUERY: _h_takeover_query,
        TAKEOVER_EVIDENCE: _h_takeover_evidence,
        JOIN_ANNOUNCE: _h_join_announce,
        LEAVE_BEGIN: _h_leave_begin,
        HANDOFF_OFFER: _h_handoff_offer,
        HANDOFF_ACCEPT: _h_handoff_accept,
        HANDOFF_DONE: _h_handoff_done,
    }
