"""The multi-site ASSET cluster: N sites, one fabric, one injector.

:class:`Cluster` assembles :class:`~repro.cluster.site.Site` instances
over a shared :class:`~repro.net.fabric.NetworkFabric`, a shared
:class:`~repro.common.clock.LogicalClock`, and — when given an
``injector`` — a *single* fault injector, so every storage I/O step and
every message step across all sites draws from one deterministic
counter.  The cluster never reads a fault plan: the harness binds the
injector to the cluster, whose console the plan's marks then act
through.  A fault-free cluster carries no injector: nothing numbers a
step that no plan reads.

The driver itself is a fabric endpoint named ``"client"`` — the test
console.  Its RPCs ride the same unreliable links as everything else and
are retried by the resilience :class:`~repro.resilience.retry.RetryPolicy`
(network faults are :class:`~repro.common.errors.TransientError`\\ s, so
the default policy already covers them).  A call that exhausts retries
raises — or, for :meth:`group_commit`, degrades to an *unresolved*
:class:`GroupOutcome`: the cluster may still settle the group on its own
once links heal; :meth:`converge` drives that settlement.

The cluster records every group-commit *intent* in :attr:`groups`, in
exactly the shape :func:`repro.chaos.oracles.evaluate_cluster` consumes
— the bridge between "what the driver asked for" and "what the durable
logs say happened" that the cross-site atomicity oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from repro.chaos.oracles import evaluate_cluster
from repro.common.clock import LogicalClock
from repro.common.errors import NetworkTimeout, RetryExhausted
from repro.common.ids import Tid
from repro.core.dependency import DependencyType
from repro.core.sharding import ShardRouter
from repro.net.fabric import NetworkFabric
from repro.resilience.retry import RetryPolicy
from repro.cluster import site as protocol
from repro.cluster.site import Site

__all__ = ["Cluster", "GroupOutcome", "SiteRef"]


@dataclass(frozen=True)
class SiteRef:
    """A transaction named from outside its site: ``(site, tid)``."""

    site: str
    tid: Tid

    def __repr__(self):
        return f"{self.site}:{int(self.tid)}"


@dataclass(frozen=True)
class GroupOutcome:
    """What the driver learned about a global group commit.

    ``resolved`` is False when the console lost contact before hearing
    the verdict — the group is in doubt *from the driver's view* only;
    the sites settle it themselves and :attr:`committed` then reflects
    the pessimistic presumption, not the final fate.  ``abort_reason``
    records why a degraded outcome aborted (for the error paths that
    never reach 2PC at all, e.g. a coordinator hosting no member).
    """

    gid: int
    committed: bool
    resolved: bool = True
    abort_reason: str = ""

    def __bool__(self):
        return self.resolved and self.committed


class Cluster:
    """N ASSET sites behind one deterministic unreliable fabric."""

    def __init__(
        self,
        sites=("alpha", "beta", "gamma"),
        injector=None,
        rpc_timeout=16,
        rpc_attempts=4,
    ):
        self.injector = injector
        self.clock = LogicalClock()
        self.fabric = NetworkFabric(injector=self.injector)
        self.sites = {
            name: Site(
                name, self.fabric, clock=self.clock, injector=self.injector
            )
            for name in sites
        }
        # The tick's walk, by name; rebuilt only where a site is added.
        self._tick_order = [self.sites[n] for n in sorted(self.sites)]
        self.rpc_timeout = rpc_timeout
        self.retry = RetryPolicy(
            max_attempts=rpc_attempts, base_delay=1, max_delay=4, clock=self.clock
        )
        self.fabric.register("client", self._on_client_message)
        self._replies = {}
        self._gids = count(1)
        self.groups = {}
        self.rounds = 0
        # Who coordinates the group commit in flight, and membership
        # changes deferred to the next tick: ``("join", name)`` or
        # ``("leave", (leaver, successor))``.
        self.coordinator = None
        self.pending_churn = []
        # Membership map + object-range placement.  ``membership`` is
        # the set of sites accepting *new* placements (a left site stays
        # in ``sites`` to serve 2PC duty for state it still holds); the
        # router hashes keys into a fixed number of ranges and
        # ``placement`` maps each range to its owning site.  Both carry
        # the membership epoch so stale routes are rejected and retried.
        self.membership = set(sites)
        self.membership_epoch = 0
        self.router = ShardRouter(n_shards=max(8, 2 * len(self.sites)))
        self.placement = self._balanced_placement()

    # -- time --------------------------------------------------------------

    def tick(self):
        """One cluster round: deliver, then give every site a duty slice."""
        # Deferred churn runs at the tick boundary, deterministically:
        # joining a site mid-send would recurse into the cluster.
        if self.pending_churn:
            self._apply_churn()
        self.fabric.pump_round()
        for site in self._tick_order:
            site.on_tick()
        self.clock.tick()
        self.rounds += 1

    def _apply_churn(self):
        requests, self.pending_churn = self.pending_churn, []
        for action, arg in requests:
            if action == "join":
                if arg not in self.sites:
                    self.join_site(arg)
            elif action == "leave":
                leaver, successor = arg
                if (
                    leaver in self.membership
                    and successor in self.membership
                    and successor != leaver
                ):
                    # A plan naming an absent successor (typo, or its
                    # join fires at a later step) is skipped, not a
                    # ValueError out of the middle of the tick loop.
                    self.leave_site(leaver, successor, wait=False)

    def settle(self, rounds=8):
        """Run a fixed number of rounds (protocol soak, no early exit)."""
        for __ in range(rounds):
            self.tick()

    def unsettled(self):
        return self.fabric.pending() > 0 or any(
            site.up and site.unsettled() for site in self.sites.values()
        )

    def converge(self, max_rounds=200):
        """Drive rounds until protocol state quiesces; True on success.

        This is the post-fault settlement loop: decision re-sends,
        status inquiries, and in-doubt resolution all happen on ticks,
        so "no pending messages and no unsettled site" is the fixpoint.
        A cluster that cannot settle (coordinator still partitioned
        away) exhausts the budget and returns False.
        """
        idle = 0
        for __ in range(max_rounds):
            if not self.unsettled():
                idle += 1
                if idle >= 2:
                    return True
            else:
                idle = 0
            self.tick()
        return not self.unsettled()

    # -- the console RPC channel ------------------------------------------

    def _on_client_message(self, msg):
        # A slot per msg_id some ``call`` awaits; other replies are late.
        if msg.reply_to in self._replies:
            self._replies[msg.reply_to] = msg

    def call(self, dst, kind, payload=None, timeout=None, retry=True):
        """An RPC from the console, over the same unreliable links.

        Raises :class:`~repro.common.errors.NetworkTimeout` when no
        reply arrives within the round budget; with ``retry`` the
        resilience policy re-sends (timeouts are transient) and
        :class:`~repro.common.errors.RetryExhausted` is the final word.
        """
        timeout = timeout if timeout is not None else self.rpc_timeout

        def attempt():
            msg = self.fabric.send("client", dst, kind, payload or {})
            awaited = msg.msg_id
            self._replies[awaited] = None
            try:
                for __ in range(timeout):
                    self.tick()
                    reply = self._replies[awaited]
                    if reply is not None:
                        return reply
                raise NetworkTimeout("client", dst, kind, timeout)
            finally:
                del self._replies[awaited]

        if retry:
            return self.retry.run(attempt, op=f"rpc.{kind}")
        return attempt()

    # -- transaction console ----------------------------------------------

    def site(self, name):
        return self.sites[name]

    def initiate_at(self, site, function=None, args=()):
        """Cross-site ``initiate``; returns a ref or None (null tid)."""
        reply = self.call(
            site, protocol.INITIATE, {"function": function, "args": tuple(args)}
        )
        value = reply.payload["tid"]
        return SiteRef(site, Tid(value)) if value else None

    def begin(self, ref):
        reply = self.call(ref.site, protocol.BEGIN, {"tid": ref.tid})
        return reply.payload["started"]

    def spawn_at(self, site, function, args=()):
        """initiate + begin in one console exchange."""
        reply = self.call(
            site, protocol.SPAWN, {"function": function, "args": tuple(args)}
        )
        value = reply.payload["tid"]
        return SiteRef(site, Tid(value)) if value else None

    def wait(self, ref, max_rounds=64):
        """Poll the paper's ``wait`` remotely until the fate is known."""
        for __ in range(max_rounds):
            reply = self.call(ref.site, protocol.WAIT, {"tid": ref.tid})
            outcome = reply.payload["outcome"]
            if outcome != "running":
                return outcome
        return "running"

    def result_of(self, ref):
        reply = self.call(ref.site, protocol.RESULT, {"tid": ref.tid})
        return reply.payload["value"]

    def abort(self, ref, reason="console abort"):
        reply = self.call(
            ref.site, protocol.ABORT_TX, {"tid": ref.tid, "reason": reason}
        )
        return reply.payload.get("aborted", False)

    # -- cross-site primitives --------------------------------------------

    def form_dependency(self, dep_type, dependee, dependent):
        """Section 4.2 ``form_dependency`` across sites.

        Same-site refs use the local primitive directly.  Cross-site,
        the edge is split into per-site halves against proxies:

        * **GC** — symmetric: each site links its member to the peer's
          proxy, which is what stitches local groups into the global one
          (and what routes the 2PC prepare through delegated state).
        * **AD/ED/BCD/BAD** (dependee's fate triggers the dependent) —
          installed at *both* sites so whichever side hears the news
          first propagates it.
        * **CD** — only the dependent's site needs the edge; the proxy
          terminates when the dependee's fate notification arrives.
        """
        if dependee.site == dependent.site:
            reply = self.call(
                dependee.site,
                protocol.FORM_DEP,
                {
                    "dep_type": dep_type.name,
                    "ti": dependee.tid,
                    "tj": dependent.tid,
                },
            )
            return reply.payload["ok"]
        halves = []
        if dep_type is DependencyType.GC or dep_type.aborts_dependent_on_commit or (
            dep_type is DependencyType.AD
        ):
            halves.append((dependee.site, "dependee", dependee, dependent))
        halves.append((dependent.site, "dependent", dependent, dependee))
        ok = True
        for site, role, local, peer in halves:
            reply = self.call(
                site,
                protocol.FORM_REMOTE_DEP,
                {
                    "dep_type": dep_type.name,
                    "role": role,
                    "local": local.tid,
                    "peer_site": peer.site,
                    "peer_tid": peer.tid,
                },
            )
            ok = ok and reply.payload["ok"]
        return ok

    def delegate(self, giver, receiver, oids=None):
        """Cross-site ``delegate``: responsibility moves to the receiver.

        The giver's site logs the delegation against the receiver's
        proxy, so the giver-site WAL attributes undo to the receiver's
        stand-in from that point on.
        """
        reply = self.call(
            giver.site,
            protocol.DELEGATE,
            {
                "tid": giver.tid,
                "receiver_site": receiver.site,
                "receiver_tid": receiver.tid,
                "oids": oids,
            },
        )
        return reply.payload

    def permit(self, giver, receiver, oids=None, operations=None):
        """Cross-site ``permit``: the receiver may access at the giver's
        site, through its proxy there."""
        reply = self.call(
            giver.site,
            protocol.PERMIT,
            {
                "tid": giver.tid,
                "receiver_site": receiver.site,
                "receiver_tid": receiver.tid,
                "oids": oids,
                "operations": operations,
            },
        )
        return reply.payload

    def write_as(self, ref, at_site, oid, value):
        """``ref`` writes an object hosted at ``at_site`` via its proxy."""
        reply = self.call(
            at_site,
            protocol.PROXY_WRITE,
            {"owner": ref.site, "tid": ref.tid, "oid": oid, "value": value},
        )
        return reply.payload["granted"]

    def read_as(self, ref, at_site, oid):
        reply = self.call(
            at_site,
            protocol.PROXY_READ,
            {"owner": ref.site, "tid": ref.tid, "oid": oid},
        )
        return reply.payload

    # -- global group commit ----------------------------------------------

    def link_group(self, refs):
        """Pairwise-GC the refs (the paper's group formation), returning
        the same refs for chaining.  Cross-site pairs get proxy webs."""
        for left, right in zip(refs, refs[1:]):
            self.form_dependency(DependencyType.GC, left, right)
        return refs

    def group_commit(self, refs, coordinator=None, timeout=64):
        """Commit a cross-site group atomically via presumed-abort 2PC.

        ``refs`` must name at most one component per site (same-site
        members belong to one local GC group; pass any representative).
        The coordinator defaults to the first ref's site and must host a
        member — its durable log is the group's commit point.
        """
        members = {}
        for ref in refs:
            if ref.site in members:
                raise ValueError(
                    f"one representative per site: {ref.site} named twice"
                )
            members[ref.site] = ref.tid
        coordinator = coordinator or refs[0].site
        gid = next(self._gids)
        if coordinator not in members:
            # Degrade like the other error paths instead of raising: the
            # group never enters 2PC, so abort the members (best-effort)
            # and hand back a resolved abort with the reason recorded.
            reason = f"coordinator {coordinator} hosts no member"
            self.groups[gid] = {
                "coordinator": coordinator,
                "members": {ref.site: ref.tid for ref in refs},
            }
            for ref in refs:
                try:
                    self.abort(ref, reason=reason)
                except (NetworkTimeout, RetryExhausted):
                    pass  # their sites settle the abort on their own
            return GroupOutcome(
                gid=gid, committed=False, abort_reason=reason
            )
        self.groups[gid] = {
            "coordinator": coordinator,
            "members": {ref.site: ref.tid for ref in refs},
        }
        self.coordinator = coordinator
        try:
            reply = self.call(
                coordinator,
                protocol.GC_BEGIN,
                {"gid": gid, "members": members},
                timeout=timeout,
            )
        except (NetworkTimeout, RetryExhausted):
            # The console lost contact — not the cluster's commit point.
            # Presume abort from out here; converge() settles the truth.
            return GroupOutcome(gid=gid, committed=False, resolved=False)
        return GroupOutcome(gid=gid, committed=reply.payload["committed"])

    # -- failure console ---------------------------------------------------

    def crash_site(self, name):
        self.sites[name].crash()

    def restart_site(self, name):
        return self.sites[name].restart()

    def restart_down_sites(self):
        for name in sorted(self.sites):
            if not self.sites[name].up:
                self.restart_site(name)

    def partition(self, *groups):
        self.fabric.partition(groups)

    def heal(self):
        self.fabric.heal()

    # -- membership churn & object-range routing ---------------------------

    def _balanced_placement(self):
        members = sorted(self.membership)
        return {
            shard: members[shard % len(members)]
            for shard in range(self.router.n_shards)
        }

    def _announce_epoch(self, event, site):
        """Fire-and-forget the new membership epoch to every live site.

        Loss is survivable: a site with a stale epoch merely rejects
        nothing extra, and learns the truth from the next routed
        request or churn event that reaches it.
        """
        for name in sorted(self.sites):
            if self.sites[name].up:
                self.fabric.send(
                    "client",
                    name,
                    protocol.JOIN_ANNOUNCE,
                    {
                        "event": event,
                        "site": site,
                        "epoch": self.membership_epoch,
                    },
                )

    def join_site(self, name):
        """Add a site to the cluster and rebalance placement ranges.

        The joiner starts with the current membership epoch; every
        other site learns the bumped epoch so routes resolved before
        the join are rejected as stale and re-resolved.
        """
        if name in self.sites:
            raise ValueError(f"site {name} already exists")
        self.membership_epoch += 1
        self.router.bump_epoch()
        site = Site(
            name, self.fabric, clock=self.clock, injector=self.injector
        )
        site.membership_epoch = self.membership_epoch
        self.sites[name] = site
        self._tick_order = [self.sites[n] for n in sorted(self.sites)]
        self.membership.add(name)
        self.placement = self._balanced_placement()
        self._announce_epoch("join", name)
        return site

    def leave_site(self, name, successor, wait=True, timeout=None):
        """Remove ``name`` from membership, handing its state over.

        The leaver delegates its uncommitted transactions to adopted
        receivers at ``successor`` (ASSET ``delegate`` as migration) and
        its placement ranges move to the successor.  The site object
        stays registered — it keeps serving 2PC duty for groups it
        already voted in — but accepts no new placements.  With
        ``wait`` the console blocks for the handoff result and returns
        it ({'ok', 'moved', 'adopted'}); without, the handoff proceeds
        in the background (planned-churn sweeps).
        """
        if name not in self.membership:
            raise ValueError(f"site {name} is not a member")
        if successor not in self.membership or successor == name:
            raise ValueError(f"bad successor {successor} for {name}")
        self.membership_epoch += 1
        self.router.bump_epoch()
        self.membership.discard(name)
        self.placement = {
            shard: (successor if owner == name else owner)
            for shard, owner in self.placement.items()
        }
        self._announce_epoch("leave", name)
        payload = {"successor": successor, "epoch": self.membership_epoch}
        if not wait:
            self.fabric.send("client", name, protocol.LEAVE_BEGIN, payload)
            return None
        reply = self.call(
            name,
            protocol.LEAVE_BEGIN,
            payload,
            timeout=timeout if timeout is not None else 4 * self.rpc_timeout,
        )
        return reply.payload

    def route(self, key):
        """The site owning ``key``'s placement range right now."""
        return self.placement[self.router.shard_for_key(key)]

    def spawn_placed(self, key, function, args=()):
        """Spawn at the site owning ``key``, with stale-route retry.

        The request carries the epoch it was routed under; a site that
        has seen newer membership (or has left) rejects it, the console
        re-resolves against its own placement, and retries once per
        epoch step — the reject/retry loop the epoch exists for.
        """
        for __ in range(4):
            site = self.route(key)
            reply = self.call(
                site,
                protocol.SPAWN,
                {
                    "function": function,
                    "args": tuple(args),
                    "route_epoch": self.membership_epoch,
                },
            )
            if not reply.payload.get("stale_route"):
                value = reply.payload["tid"]
                return SiteRef(site, Tid(value)) if value else None
            # Adopt the owner's newer epoch and re-resolve.
            self.membership_epoch = max(
                self.membership_epoch, reply.payload.get("epoch", 0)
            )
        raise RetryExhausted(
            f"route for {key!r} still stale after retries", attempts=4
        )

    # -- verdicts ----------------------------------------------------------

    def durable_records(self):
        """Per-site durable log views, for the cross-site oracles."""
        return {
            name: site.durable_records()
            for name, site in sorted(self.sites.items())
        }

    def evaluate(self, label="", converged=True):
        """Run the cross-site oracles over every recorded group intent."""
        return evaluate_cluster(
            self.groups, self.durable_records(), label=label, converged=converged
        )
