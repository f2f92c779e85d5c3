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
"""

from __future__ import annotations

from repro.chaos.faults import CrashPoint
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

# The fault injector's contract (chaos/faults.py): injected faults must
# propagate, never be converted into ordinary RPC error replies — a site
# that swallows its own simulated crash or I/O fault keeps answering
# while "dead", and the sweep oracles lose the fault they planted.
# CrashPoint already escapes ``except Exception`` by deriving from
# BaseException; TransientIOError (fail_flush_at) does not, so the RPC
# handlers must re-raise it explicitly.
_INJECTED_FAULTS = (CrashPoint, TransientIOError)


class Site:
    """A named ASSET instance wired to the cluster fabric."""

    def __init__(
        self,
        name,
        fabric,
        clock,
        injector=None,
        prepare_ttl=24,
        vote_ttl=48,
        inquiry_interval=8,
        coordinator_lease=16,
        heartbeat_interval=4,
        takeover_grace=16,
        handoff_ttl=32,
        capacity=256,
    ):
        self.name = name
        self.fabric = fabric
        self.clock = clock
        self.injector = injector
        self.prepare_ttl = prepare_ttl
        self.vote_ttl = vote_ttl
        self.inquiry_interval = inquiry_interval
        # Failover knobs: the coordinator lease is how long a prepared
        # participant trusts a silent coordinator before counting it
        # overdue; takeover_grace paces the rank-staggered takeover
        # threshold (rank r acts after grace*(r+1) overdue ticks, so the
        # designated successor moves first and the rest are fallbacks).
        self.coordinator_lease = coordinator_lease
        self.heartbeat_interval = heartbeat_interval
        self.takeover_grace = takeover_grace
        self.handoff_ttl = handoff_ttl
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
        self.storage = StorageManager(injector=injector, capacity=capacity)
        self.recovery_report = None
        # Observability (repro.obs): an ObservabilityKit installed by
        # attach_observability, or None.  Kept across crashes — the kit
        # is the *observer's* state, not the site's — and re-wired onto
        # the fresh manager by every _boot.
        self.obs = None
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
        # Two-phase-commit state, all keyed by gid.
        self.pending_prepares = {}
        self.prepared = {}
        self.coordinating = {}
        # The gids whose entry is still collecting/releasing: the only
        # ones the tick has work for (``coordinating`` keeps every group
        # ever, as evidence).  Kept true by :meth:`_set_group_state`.
        self.open_groups = set()
        self.in_doubt = {}
        self.durable_decisions = {}
        # Failover state.  ``group_epochs`` is the fencing epoch per gid
        # (volatile: durable TakeoverRecords restore it on restart);
        # every group message carries its sender's epoch and lower ones
        # are rejected, so a reappearing old coordinator cannot undo a
        # takeover.  ``settled_gids`` remembers terminal verdicts so
        # takeover polls can be answered after the live entries are gone.
        self.group_epochs = {}
        self.taking_over = {}
        self.settled_gids = {}
        self.takeover_claims = {}
        # Every gid this site ever force-logged a vote for.  Purely
        # defensive: if a voted gid is somehow neither live, in doubt,
        # nor settled, takeover evidence reports ``resolved_unknown``
        # instead of "never prepared" — presuming abort over a member
        # whose resolution was merely forgotten is the one unsafe guess.
        self.voted_gids = set()
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
        return f"{self.name}:{tid.value}"

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
        self.in_doubt = {
            gid: {"record": record, "next_ask": 0, "overdue": 0}
            for gid, record in sorted(report.in_doubt_votes.items())
        }
        claims = {}
        decisions = {}
        prepares = {}
        for record in self.storage.log.records():
            if isinstance(record, TakeoverRecord):
                claims[record.gid] = record
            elif isinstance(record, DecisionRecord):
                decisions[record.gid] = record
            elif isinstance(record, PrepareRecord):
                prepares[record.gid] = record
        self.takeover_claims = claims
        self.voted_gids = set(prepares)
        # Durable takeover claims restore the fencing epoch: a reborn
        # taker must never act below the authority it already asserted.
        for gid, claim in claims.items():
            self.group_epochs[gid] = max(
                self.group_epochs.get(gid, 0), claim.epoch
            )
        for gid, record in sorted(decisions.items()):
            if record.verdict == "commit":
                self.durable_decisions[gid] = "commit"
            if gid in self.in_doubt:
                # A decision logged but not yet applied (crash between
                # the force-log and the local settle): finish it now.
                self._finish_in_doubt(gid, record.verdict)
            self.settled_gids[gid] = record.verdict
            # Re-announce: participants may have crashed or missed the
            # release.  Loss is fine — their own inquiry retries cover
            # it; this is just the fast path.
            for participant in record.participants:
                self._send(
                    participant,
                    DECISION,
                    {
                        "gid": gid,
                        "verdict": record.verdict,
                        "epoch": self.group_epochs.get(gid, 0),
                    },
                )
        # Reconstruct witness knowledge for every group this site voted
        # in and later resolved.  The live maps (``settled_gids``,
        # ``durable_decisions``) are volatile; only the log survives, and
        # a restarted commit witness that answered a takeover poll (or a
        # status inquiry) with "no information" would let a taker presume
        # abort over a member this site durably committed — a cross-site
        # atomicity violation.  A prepared gid absent from ``in_doubt``
        # was resolved: its members are recovery winners iff the group
        # committed, and all hold durable abort records otherwise.
        for gid, record in sorted(prepares.items()):
            if gid in self.settled_gids or gid in self.in_doubt:
                continue
            if record.prepared_tids() & report.winners:
                self.settled_gids[gid] = "commit"
            else:
                self.settled_gids[gid] = "abort"
        # A takeover claim without its decision record: the crash landed
        # between the two force-logs.  The logged verdict was derived
        # from durable evidence that only this claim could have changed,
        # so adopting it is safe — finish the takeover it started.
        for gid, claim in sorted(claims.items()):
            if gid in decisions or gid not in self.in_doubt:
                continue
            record = self.in_doubt[gid]["record"]
            self.taking_over[gid] = {
                "epoch": claim.epoch,
                "old": claim.old_coordinator,
                "sites": tuple(sorted(record.sites)),
                "tid": record.tid.value,
                "evidence": {},
                "tids": {},
                "next_poll": 0,
                "claimed": True,
            }
            self._complete_takeover(gid, claim.verdict)
        return report

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
        return bool(
            self.pending_prepares
            or self.prepared
            or self.in_doubt
            or self.taking_over
            or self.handoff is not None
            or self.open_groups
        )

    def _set_group_state(self, gid, entry, state):
        """Move a coordinated group to ``state``, keeping ``open_groups``
        the set of gids still collecting votes or awaiting a witness."""
        entry["state"] = state
        if state in ("collecting", "releasing"):
            self.open_groups.add(gid)
        else:
            self.open_groups.discard(gid)

    # -- fencing epochs ----------------------------------------------------

    def _epoch_of(self, gid):
        return self.group_epochs.get(gid, 0)

    def _fence(self, gid, epoch):
        """Admit or reject a group message by fencing epoch.

        Lower-than-known epochs are stale — a reappearing old
        coordinator, or a delayed pre-takeover release — and are
        dropped (counted).  Equal epochs pass (same-epoch dueling
        takers derive the same verdict from the same durable evidence),
        and higher epochs are adopted on the spot.
        """
        known = self.group_epochs.get(gid, 0)
        if epoch < known:
            self._stat("stale_epoch_rejects")
            return False
        if epoch > known:
            self.group_epochs[gid] = epoch
        return True

    def _stat(self, name, amount=1):
        self.stats[name] += amount
        if self.obs is not None:
            counter = self.obs.metrics.counter(
                f"site.protocol.{name}", site=self.name
            )
            counter.value += amount

    def _obs_mark(self, gid, kind, **fields):
        """Annotate the local member transaction's span, if any.

        Takeover and handoff transitions are group-level, not
        transaction-level, so they surface as links on the span of the
        member transaction they settle — visible in the same export as
        the 2PC marks."""
        if self.obs is None:
            return
        tick = self.ticks
        for key, span in self.obs.spans.spans.items():
            if key[0] == self.name and span.get("gid") == gid:
                span["links"].append(
                    {"type": kind, "tick": tick, "gid": gid, **fields}
                )

    def _note_coordinator_alive(self, gid, src=None):
        """Evidence of a live deciding authority for ``gid``: refresh
        the coordinator lease and reset the takeover countdown."""
        entry = self.prepared.get(gid)
        if entry is not None:
            entry["overdue"] = 0
            if src is not None:
                entry["coordinator"] = src
        doubt = self.in_doubt.get(gid)
        if doubt is not None:
            doubt["overdue"] = 0
        if entry is not None or doubt is not None:
            self.deadlines.grant_lease(("gcl", gid), self.coordinator_lease)

    def _takeover_threshold(self, sites, coordinator):
        """How many overdue ticks before *this* site takes over, or
        ``None`` if it never should.

        Successors are ranked by name among the members that are not the
        old coordinator; rank r waits ``takeover_grace * (r + 1)`` ticks
        so the designated successor acts first and the others are
        deterministic fallbacks should it die too.  A coordinator reborn
        in doubt about its own group (``coordinator == self.name``) is
        rank 0: it cannot ask itself, so it re-derives by polling."""
        if coordinator == self.name:
            return self.takeover_grace
        candidates = sorted(s for s in sites if s != coordinator)
        if self.name not in candidates:
            return None
        return self.takeover_grace * (candidates.index(self.name) + 1)

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
        holders = self.remote_holders.get(tid.value)
        if holders:
            kind = ABORT_PROXY if aborted else COMMIT_PROXY
            for holder in sorted(holders):
                self._send(
                    holder,
                    kind,
                    {
                        "owner": self.name,
                        "tid": tid.value,
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
        self._reply(msg, {"tid": tid.value})

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
        self._reply(msg, {"tid": tid.value})

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
        except _INJECTED_FAULTS:
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
        except _INJECTED_FAULTS:
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
        except _INJECTED_FAULTS:
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
        except _INJECTED_FAULTS:
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
        gid = msg.payload["gid"]
        entry = self.coordinating.get(gid)
        if entry is not None:
            if entry["state"] in ("collecting", "releasing"):
                # Still collecting votes, or waiting for the witness ACK
                # that seals the commit — answer when the fate is sealed.
                entry["client"] = (msg.src, msg.msg_id)
            else:
                self._reply(msg, {"committed": entry["verdict"] == "commit"})
            return
        members = dict(msg.payload["members"])
        sites = tuple(sorted(members))
        entry = {
            "members": members,
            "votes": {},
            "acks": set(),
            "verdict": None,
            "client": (msg.src, msg.msg_id),
            "ttl": self.vote_ttl,
            "next_beat": self.ticks + self.heartbeat_interval,
        }
        self.coordinating[gid] = entry
        self._set_group_state(gid, entry, "collecting")
        for site, tid_value in sorted(members.items()):
            if site == self.name:
                self._accept_prepare(gid, tid_value, self.name, sites=sites)
            else:
                self._send(
                    site,
                    PREPARE,
                    {
                        "gid": gid,
                        "tid": tid_value,
                        "coordinator": self.name,
                        "sites": sites,
                        "epoch": self._epoch_of(gid),
                    },
                )

    def _record_vote(self, gid, site, verdict):
        entry = self.coordinating.get(gid)
        if entry is None or entry["state"] != "collecting":
            return
        entry["votes"][site] = verdict
        if verdict == "abort":
            self._decide(gid, "abort")
        elif all(entry["votes"].get(s) == "commit" for s in entry["members"]):
            self._decide(gid, "commit")

    def _decide(self, gid, verdict):
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
        entry = self.coordinating[gid]
        entry["verdict"] = verdict
        epoch = self._epoch_of(gid)
        participants = sorted(s for s in entry["members"] if s != self.name)
        if verdict == "commit" and participants:
            self._set_group_state(gid, entry, "releasing")
            entry["next_release"] = self.ticks + self.heartbeat_interval
        else:
            self._set_group_state(gid, entry, "decided")
        for site in participants:
            self._send(
                site,
                DECISION,
                {
                    "gid": gid,
                    "verdict": verdict,
                    "tid": entry["members"][site],
                    "epoch": epoch,
                },
            )
        if not self.up or entry["state"] == "releasing":
            # Dead (a planned crash fired on one of those sends — the
            # site must not touch its storage again), or waiting for a
            # witness ACK to seal the commit.
            return
        if verdict == "commit":
            self._log_commit_decision(gid, entry, participants)
            if not self.up:
                return
        # The coordinator is its own participant: apply the decision to
        # the local member through the same path a remote one would use.
        self._apply_decision_locally(gid, verdict, entry["members"].get(self.name))
        if not self.up:
            return
        self._answer_group_client(gid, entry)

    def _log_commit_decision(self, gid, entry, participants):
        """Force-log the commit :class:`DecisionRecord` for ``gid``."""
        local_value = entry["members"].get(self.name)
        local_tid = Tid(local_value) if local_value is not None else None
        anchor = local_tid if local_tid is not None else Tid(0)
        group = ()
        if local_tid is not None:
            group = tuple(
                sorted(
                    self.manager.dependencies.gc_group(local_tid) - {local_tid},
                    key=lambda t: t.value,
                )
            )
        self.storage.log_decision(
            anchor, gid, "commit", group=group, participants=participants
        )
        self.durable_decisions[gid] = "commit"

    def _answer_group_client(self, gid, entry):
        """Reply to the console waiting on ``gc_begin``, if any."""
        client = entry.pop("client", None)
        if client is not None:
            src, msg_id = client
            self._send(
                src,
                "gc_begin.reply",
                {"gid": gid, "committed": entry["verdict"] == "commit"},
                reply_to=msg_id,
            )

    def _seal_commit(self, gid):
        """First witness ACK arrived: make the commit decision durable.

        The acknowledging participant has durably applied the commit,
        so force-logging the :class:`DecisionRecord` now preserves the
        takeover invariant — any taker polling the members will find at
        least one ``committed`` witness.  Local apply and the client
        reply were deferred with the log for the same reason: nothing
        observable may claim commit while no witness exists.
        """
        entry = self.coordinating[gid]
        self._set_group_state(gid, entry, "decided")
        participants = sorted(s for s in entry["members"] if s != self.name)
        self._log_commit_decision(gid, entry, participants)
        if not self.up:
            return
        self._apply_decision_locally(gid, "commit", entry["members"].get(self.name))
        if not self.up:
            return
        self._answer_group_client(gid, entry)

    def _h_vote(self, msg):
        self._record_vote(msg.payload["gid"], msg.payload["site"], msg.payload["verdict"])

    def _h_ack(self, msg):
        gid = msg.payload["gid"]
        entry = self.coordinating.get(gid)
        if entry is None or entry["state"] not in ("releasing", "decided"):
            return
        entry["acks"].add(msg.payload["site"])
        if entry["state"] == "releasing":
            # First acknowledged witness: the commit may now be sealed.
            self._seal_commit(gid)
            if not self.up:
                return
        if entry["acks"] >= {s for s in entry["members"] if s != self.name}:
            self._set_group_state(gid, entry, "done")

    def _h_status_req(self, msg):
        """Answer an in-doubt inquiry from durable truth.

        Still collecting -> pending.  Decided -> the verdict.  No state
        at all (a coordinator reborn after a crash) -> a logged commit
        decision says commit; *no information means abort* — the
        presumed-abort rule that makes coordinator amnesia safe.

        One refinement under witness-confirmed release: a site that is
        itself in doubt about ``gid`` (a reborn coordinator before its
        own re-derivation poll settles), or that voted but cannot place
        the resolution, answers *pending*, never abort — a commit
        witness it has not heard from yet may exist.
        """
        gid = msg.payload["gid"]
        self._fence(gid, msg.payload.get("epoch", 0))
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
        self._send(
            msg.src,
            STATUS_REP,
            {"gid": gid, "verdict": verdict, "epoch": self._epoch_of(gid)},
        )

    # -- two-phase commit: participant ------------------------------------

    def _h_prepare(self, msg):
        if not self._fence(msg.payload["gid"], msg.payload.get("epoch", 0)):
            return
        self._accept_prepare(
            msg.payload["gid"],
            msg.payload["tid"],
            msg.payload["coordinator"],
            sites=tuple(msg.payload.get("sites", ())),
        )

    def _accept_prepare(self, gid, tid_value, coordinator, sites=()):
        if gid in self.prepared or gid in self.pending_prepares:
            return  # duplicate PREPARE (at-least-once links)
        if gid in self.durable_decisions or gid in self.in_doubt:
            return
        self.pending_prepares[gid] = {
            "tid": Tid(tid_value),
            "coordinator": coordinator,
            "sites": tuple(sites),
            "ttl": self.prepare_ttl,
        }
        self._attempt_prepare(gid)

    def _attempt_prepare(self, gid):
        """Try to vote; called at accept time and retried from ticks."""
        entry = self.pending_prepares.get(gid)
        if entry is None:
            return
        if self.handoff is not None:
            # The member was gathered for migration before this PREPARE
            # arrived.  The 2PC claim wins: voting yes *and* delegating
            # it away would race the group verdict against the handoff.
            # Keep it here for group duty (a leaving site still serves
            # 2PC) and migrate only the rest.
            self.handoff["txs"].pop(entry["tid"].value, None)
        outcome = self.manager.try_prepare(
            entry["tid"],
            gid=gid,
            coordinator=entry["coordinator"],
            sites=entry.get("sites", ()),
        )
        if outcome:
            del self.pending_prepares[gid]
            self.voted_gids.add(gid)
            self.prepared[gid] = {
                "tid": entry["tid"],
                "coordinator": entry["coordinator"],
                "sites": entry.get("sites", ()),
                "overdue": 0,
            }
            # Pace decision inquiries with a lease: while it is live we
            # trust the decision is in flight, when it lapses we ask.
            # A second lease tracks the *coordinator* itself: refreshed
            # by its heartbeats; once it lapses the takeover countdown
            # starts.
            self.deadlines.grant_lease(("gc", gid), self.inquiry_interval)
            self.deadlines.grant_lease(("gcl", gid), self.coordinator_lease)
            self._cast_vote(gid, entry["coordinator"], "commit")
        elif outcome.status is PrepareStatus.ABORTED:
            del self.pending_prepares[gid]
            self._cast_vote(gid, entry["coordinator"], "abort")
        # NOT_COMPLETED / BLOCKED: keep pending, the tick loop retries.

    def _cast_vote(self, gid, coordinator, verdict):
        if coordinator == self.name:
            self._record_vote(gid, self.name, verdict)
        else:
            self._send(
                coordinator,
                VOTE,
                {
                    "gid": gid,
                    "site": self.name,
                    "verdict": verdict,
                    "epoch": self._epoch_of(gid),
                },
            )

    def _h_decision(self, msg):
        gid = msg.payload["gid"]
        epoch = msg.payload.get("epoch", 0)
        if not self._fence(gid, epoch):
            return
        # Whoever released this decision holds (at least) our epoch:
        # any takeover of ours is superseded by it.
        self.taking_over.pop(gid, None)
        verdict = msg.payload["verdict"]
        entry = self.coordinating.get(gid)
        if entry is not None and entry["state"] in ("collecting", "releasing"):
            # A usurper sealed the fate while this (superseded, fenced
            # past) coordinator was still collecting votes or waiting
            # for its witness ACK.  Adopt the verdict — the usurper's
            # log is the durable truth now — and answer the client.
            self._set_group_state(gid, entry, "decided")
            entry["verdict"] = verdict
        self._apply_decision_locally(gid, verdict, msg.payload.get("tid"))
        if not self.up:
            return
        if entry is not None and entry["state"] == "decided":
            self._answer_group_client(gid, entry)
        self._send(
            msg.src, ACK, {"gid": gid, "site": self.name, "epoch": epoch}
        )

    def _h_status_rep(self, msg):
        gid = msg.payload["gid"]
        if not self._fence(gid, msg.payload.get("epoch", 0)):
            return
        verdict = msg.payload["verdict"]
        if verdict == "pending":
            # The coordinator answered: alive, still deciding.
            self._note_coordinator_alive(gid, src=msg.src)
            return
        self.taking_over.pop(gid, None)
        self._apply_decision_locally(gid, verdict, None)

    def _apply_decision_locally(self, gid, verdict, tid_value):
        """Finish the local member group per the global verdict.

        Handles every shape the participant can be in: still pending
        (never managed to vote), live-prepared, in doubt after a
        restart, or already settled (duplicate decision — a no-op).
        """
        self.pending_prepares.pop(gid, None)
        live = self.prepared.pop(gid, None)
        self.deadlines.forget(("gc", gid))
        self.deadlines.forget(("gcl", gid))
        self.settled_gids[gid] = verdict
        if live is not None:
            if verdict == "commit":
                self.runtime.commit(live["tid"])
            else:
                self.manager.abort(
                    live["tid"], reason=f"global group {gid} aborted"
                )
                # The vote was force-logged, so its resolution must be
                # too: an abort record still in the volatile tail would
                # leave the durable log claiming we are in doubt.
                self.storage.sync_log()
            return
        if gid in self.in_doubt:
            self._finish_in_doubt(gid, verdict)
            return
        if tid_value is not None and verdict == "abort":
            # Decision for a member we never prepared (the PREPARE was
            # lost): an abort decision still names the component.
            self._abort_unless_prepared(
                Tid(tid_value), f"global group {gid} aborted"
            )

    def _finish_in_doubt(self, gid, verdict):
        """Settle a recovered in-doubt group at the log level.

        There is no live transaction state after a restart — recovery
        already reinstalled the group's updates (they were neither
        winners nor losers) — so commit is one durable commit record and
        abort is the undo pass plus abort records, exactly what the
        recovery manager would have done with the decision in hand.
        """
        entry = self.in_doubt.pop(gid)
        record = entry["record"]
        anchor = record.tid
        others = tuple(t for t in record.prepared_tids() if t != anchor)
        if verdict == "commit":
            self.storage.log_commit(anchor, group=others)
        else:
            members = sorted(record.prepared_tids(), key=lambda t: t.value)
            self.storage.undo_many(members)
            for member in members:
                self.storage.log_abort(member)
        self.storage.sync_log()

    # -- coordinator failover ----------------------------------------------

    def _h_gc_heartbeat(self, msg):
        """The coordinator's lease renewal for one of its groups."""
        gid = msg.payload["gid"]
        if not self._fence(gid, msg.payload.get("epoch", 0)):
            return
        self._note_coordinator_alive(gid, src=msg.src)

    def _start_takeover(self, gid, old, sites, tid_value=None):
        """Claim a wedged in-doubt group at the next fencing epoch.

        The taker polls every member for durable evidence; the old
        coordinator is polled too (it may be reborn holding the
        verdict) but is the only member whose *silence* is eventually
        presumed — any other silent member might be a commit witness.
        """
        if gid in self.taking_over:
            return
        epoch = self.group_epochs.get(gid, 0) + 1
        claim = self.takeover_claims.get(gid)
        if claim is not None and claim.epoch >= epoch:
            epoch = claim.epoch
        self.group_epochs[gid] = epoch
        self._stat("takeovers_started")
        self._obs_mark(gid, "takeover_started", epoch=epoch, old=old)
        self.taking_over[gid] = {
            "epoch": epoch,
            "old": old,
            "sites": tuple(sorted(sites)),
            "tid": tid_value,
            "evidence": {},
            "tids": {},
            "next_poll": 0,
            "claimed": False,
        }
        self._poll_takeover(gid)

    def _poll_takeover(self, gid):
        entry = self.taking_over.get(gid)
        if entry is None:
            return
        entry["next_poll"] = self.ticks + self.inquiry_interval
        for site in entry["sites"]:
            if site == self.name or site in entry["evidence"]:
                continue
            self._send(
                site,
                TAKEOVER_QUERY,
                {"gid": gid, "epoch": entry["epoch"], "site": self.name},
            )
        self._maybe_conclude_takeover(gid)

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

    def _h_takeover_query(self, msg):
        gid = msg.payload["gid"]
        epoch = msg.payload["epoch"]
        if not self._fence(gid, epoch):
            # Teach the stale taker the newer epoch so it stands down.
            self._send(
                msg.src,
                TAKEOVER_EVIDENCE,
                {
                    "gid": gid,
                    "epoch": self._epoch_of(gid),
                    "site": self.name,
                    "state": "superseded",
                },
            )
            return
        mine = self.taking_over.get(gid)
        if mine is not None and mine["epoch"] < epoch:
            # A higher-epoch taker owns this group; abandon our claim.
            self.taking_over.pop(gid, None)
        # The querying taker is the acting authority now: inquiries go
        # to it, and its poll counts as a heartbeat.
        self._note_coordinator_alive(gid, src=msg.src)
        state, tid_value = self._takeover_evidence(gid)
        self._send(
            msg.src,
            TAKEOVER_EVIDENCE,
            {
                "gid": gid,
                "epoch": self._epoch_of(gid),
                "site": self.name,
                "state": state,
                "tid": tid_value,
            },
        )

    def _h_takeover_evidence(self, msg):
        gid = msg.payload["gid"]
        entry = self.taking_over.get(gid)
        if entry is None:
            return
        epoch = msg.payload["epoch"]
        state = msg.payload["state"]
        if epoch > entry["epoch"] or state == "superseded":
            self.group_epochs[gid] = max(self.group_epochs.get(gid, 0), epoch)
            self.taking_over.pop(gid, None)
            self._stat("takeovers_cancelled")
            return
        site = msg.payload["site"]
        if state == "collecting":
            if site == entry["old"]:
                # The old coordinator answered: alive and still
                # deciding.  Cancel the coup, fall back to inquiries.
                self._cancel_takeover(gid)
                return
            state = "prepared"  # a rival same-epoch taker mid-poll
        entry["evidence"][site] = state
        if msg.payload.get("tid") is not None:
            entry["tids"][site] = msg.payload["tid"]
        if state in ("committed", "aborted"):
            # Someone already holds a durable outcome for this group —
            # adopt it now instead of waiting out members that may never
            # answer (a crashed rival taker whose decision this is, or a
            # reborn old coordinator that settled before dying again).
            self._complete_takeover(
                gid, "commit" if state == "committed" else "abort"
            )
            return
        self._maybe_conclude_takeover(gid)

    def _cancel_takeover(self, gid):
        if self.taking_over.pop(gid, None) is not None:
            self._stat("takeovers_cancelled")
        self._note_coordinator_alive(gid)

    def _maybe_conclude_takeover(self, gid):
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
        entry = self.taking_over.get(gid)
        if entry is None:
            return
        needed = [
            s
            for s in entry["sites"]
            if s not in (self.name, entry["old"])
        ]
        if any(s not in entry["evidence"] for s in needed):
            return
        states = set(entry["evidence"].values())
        own_state, __ = self._takeover_evidence(gid)
        states.add(own_state)
        if "committed" in states:
            self._complete_takeover(gid, "commit")
            return
        if "resolved_unknown" in states:
            # Some member voted and later resolved but lost track of
            # which way — a recovery defect surfaced loudly.  Concluding
            # either verdict would be a guess; leave the group open (the
            # quiescence oracle will flag it) instead of gambling.
            return
        self._complete_takeover(gid, "abort")

    def _complete_takeover(self, gid, verdict):
        """Force-log the claim + decision, settle locally, release."""
        entry = self.taking_over.pop(gid)
        epoch = entry["epoch"]
        self.group_epochs[gid] = max(self.group_epochs.get(gid, 0), epoch)
        if not entry.get("claimed"):
            votes = tuple(
                f"{site}:{state}"
                for site, state in sorted(entry["evidence"].items())
            )
            self.storage.log_takeover(
                gid, epoch, entry["old"], verdict, votes=votes
            )
        if not self.up:
            return
        tid_value = entry.get("tid")
        anchor = Tid(tid_value) if tid_value else Tid(0)
        participants = tuple(
            s for s in sorted(entry["sites"]) if s != self.name
        )
        # Unlike the primary path, *both* verdicts are force-logged:
        # the decision record is the audit trail the no-dual-decision
        # oracle (and any later taker) reads.
        self.storage.log_decision(
            anchor, gid, verdict, participants=participants
        )
        if not self.up:
            return
        if verdict == "commit":
            self.durable_decisions[gid] = "commit"
        self._stat("takeovers_decided")
        self._obs_mark(gid, "takeover_decided", epoch=epoch, verdict=verdict)
        members = {site: entry["tids"].get(site) for site in entry["sites"]}
        members[self.name] = tid_value
        decided = {
            "members": members,
            "votes": {},
            "acks": set(),
            "verdict": verdict,
            "ttl": 0,
        }
        self.coordinating[gid] = decided
        self._set_group_state(gid, decided, "decided")
        self._apply_decision_locally(gid, verdict, tid_value)
        if not self.up:
            return
        for site in participants:
            self._send(
                site,
                DECISION,
                {
                    "gid": gid,
                    "verdict": verdict,
                    "tid": entry["tids"].get(site),
                    "epoch": epoch,
                },
            )

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
            entry["tid"]
            for entry in self.pending_prepares.values()
        } | {entry["tid"] for entry in self.prepared.values()}
        txs = {}
        for td in self.manager.table.live():
            tid = td.tid
            if td.status is TransactionStatus.PREPARED:
                continue
            if tid in in_twophase or tid in self.proxy_owner:
                continue
            txs[tid.value] = sorted(
                {
                    record.oid.value
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
            "ttl": self.handoff_ttl,
            "next_send": 0,
        }
        self._send_handoff_offer()

    def _send_handoff_offer(self):
        handoff = self.handoff
        handoff["next_send"] = self.ticks + self.inquiry_interval
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
                adopted[tid_value] = receiver.value
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
        moved = 0
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
            except _INJECTED_FAULTS:
                raise
            except Exception:
                self.manager.abort(giver, reason="handoff delegation failed")
                continue
            moved += 1
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
        self._obs_mark(0, "handoff_done", moved=moved)
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

    def on_tick(self):
        """One deterministic slice of background duty per pump round."""
        if not self.up:
            return
        self.ticks += 1
        # Advance local transaction programs one cooperative step.
        self.runtime.round()
        # Everything below reads the six structures ``unsettled`` names.
        if not self.unsettled():
            return
        # Retry pending votes; give up (vote abort) when the component
        # cannot complete within the prepare deadline.
        for gid in sorted(self.pending_prepares):
            entry = self.pending_prepares.get(gid)
            if entry is None:
                continue
            entry["ttl"] -= 1
            self._attempt_prepare(gid)
            entry = self.pending_prepares.get(gid)
            if entry is not None and entry["ttl"] <= 0:
                del self.pending_prepares[gid]
                self._cast_vote(gid, entry["coordinator"], "abort")
        # Coordinator vote deadlines: silence is an abort vote.  While
        # collecting, heartbeat the members so their coordinator leases
        # stay live (a slow vote must not look like a dead coordinator).
        for gid in sorted(self.open_groups):
            entry = self.coordinating[gid]
            if entry["state"] == "releasing":
                # Un-witnessed commit: keep re-releasing to members that
                # have not acknowledged (DECISION is idempotent and
                # always ACKed) until the first ACK seals it.
                if self.ticks >= entry.get("next_release", 0):
                    entry["next_release"] = (
                        self.ticks + self.heartbeat_interval
                    )
                    epoch = self._epoch_of(gid)
                    for site in sorted(entry["members"]):
                        if site == self.name or site in entry["acks"]:
                            continue
                        self._send(
                            site,
                            DECISION,
                            {
                                "gid": gid,
                                "verdict": "commit",
                                "tid": entry["members"][site],
                                "epoch": epoch,
                            },
                        )
                continue
            if entry["state"] != "collecting":
                continue
            entry["ttl"] -= 1
            if entry["ttl"] <= 0:
                self._decide(gid, "abort")
                continue
            if self.ticks >= entry.get("next_beat", 0):
                entry["next_beat"] = self.ticks + self.heartbeat_interval
                epoch = self._epoch_of(gid)
                for site in sorted(entry["members"]):
                    if site == self.name:
                        continue
                    self._stat("heartbeats_sent")
                    self._send(
                        site, GC_HEARTBEAT, {"gid": gid, "epoch": epoch}
                    )
        # Prepared but no decision: when the inquiry lease lapses, ask;
        # when the *coordinator* lease lapses, count it overdue and —
        # past this site's rank-staggered threshold — take over.
        for gid in sorted(self.prepared):
            entry = self.prepared.get(gid)
            if entry is None or gid in self.taking_over:
                continue
            key = ("gc", gid)
            if not self.deadlines.lease_live(key):
                self._send(
                    entry["coordinator"], STATUS_REQ,
                    {
                        "gid": gid,
                        "site": self.name,
                        "epoch": self._epoch_of(gid),
                    },
                )
                self.deadlines.grant_lease(key, self.inquiry_interval)
            if entry["coordinator"] == self.name:
                continue  # our own liveness is not in doubt
            if self.deadlines.lease_live(("gcl", gid)):
                entry["overdue"] = 0
                continue
            entry["overdue"] += 1
            threshold = self._takeover_threshold(
                entry.get("sites", ()), entry["coordinator"]
            )
            if threshold is not None and entry["overdue"] >= threshold:
                self._start_takeover(
                    gid,
                    entry["coordinator"],
                    entry.get("sites", ()),
                    tid_value=entry["tid"].value,
                )
        # In-doubt after restart: periodic inquiry until resolved, with
        # the same overdue countdown (the coordinator may be long gone).
        for gid in sorted(self.in_doubt):
            entry = self.in_doubt.get(gid)
            if entry is None or gid in self.taking_over:
                continue
            record = entry["record"]
            if self.ticks >= entry["next_ask"]:
                entry["next_ask"] = self.ticks + self.inquiry_interval
                if record.coordinator != self.name:
                    self._send(
                        record.coordinator, STATUS_REQ,
                        {
                            "gid": gid,
                            "site": self.name,
                            "epoch": self._epoch_of(gid),
                        },
                    )
            if self.deadlines.lease_live(("gcl", gid)):
                entry["overdue"] = 0
                continue
            entry["overdue"] = entry.get("overdue", 0) + 1
            threshold = self._takeover_threshold(
                record.sites, record.coordinator
            )
            if threshold is not None and entry["overdue"] >= threshold:
                self._start_takeover(
                    gid,
                    record.coordinator,
                    record.sites,
                    tid_value=record.tid.value,
                )
        # Takeover polls: re-ask members that have not answered yet.
        for gid in sorted(self.taking_over):
            entry = self.taking_over.get(gid)
            if entry is not None and self.ticks >= entry["next_poll"]:
                self._poll_takeover(gid)
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
