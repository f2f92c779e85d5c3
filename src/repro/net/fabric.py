"""The simulated message fabric: typed messages over unreliable links.

The fabric is synchronous and pump-driven: :meth:`NetworkFabric.send`
only *enqueues*; :meth:`NetworkFabric.pump_round` delivers everything
queued at that moment (endpoints in sorted-name order, per-endpoint
FIFO) by invoking the destination's registered handler.  Handlers may
send more messages; those land in the *next* round.  No threads, no wall
clock — a run is a deterministic function of (plan, workload), which is
what makes message-step sweeps and replays possible.

Fault semantics, per message, decided at send time:

* **drop** — the message vanishes; the sender cannot tell.
* **duplicate** — delivered twice in the same round (at-least-once
  links; handlers must be idempotent).
* **delay** — delivery slips one pump round, reordering the message
  past everything else sent in the same round.
* **partition** — while a partition is installed, messages between
  different groups are silently dropped (counted separately).
* **site down** — messages from or to a crashed site are dropped, and
  its queued inbox is discarded at crash time (those bytes were in its
  kernel buffers).

The per-message verdicts come from the fault injector the fabric is
given, which numbers each send as a step; partitions and power cuts are
link state, set through :meth:`NetworkFabric.partition` and
:meth:`NetworkFabric.mark_down` by whoever holds the fabric.  A fabric
built without an injector numbers no steps and delivers every message
its links allow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count


@dataclass(slots=True)
class Message:
    """One typed message on the fabric.

    ``payload`` is a plain dict (the simulation shares one process, so
    values need not be serializable — callables ride along in tests).
    ``reply_to`` carries the ``msg_id`` of the request a response
    answers, which is how the RPC layer matches replies.
    """

    msg_id: int
    src: str
    dst: str
    kind: str
    payload: dict = field(default_factory=dict)
    reply_to: int = None

    def __repr__(self):
        ref = f", reply_to={self.reply_to}" if self.reply_to is not None else ""
        return f"Message(#{self.msg_id} {self.src}->{self.dst} {self.kind}{ref})"


class NetworkFabric:
    """N named endpoints, unreliable links, deterministic delivery."""

    def __init__(self, injector=None):
        self.injector = injector
        self.handlers = {}
        self.inboxes = {}
        self._delivery_order = ()  # endpoint names, sorted at register
        self.delayed = []
        self.down = set()
        self.partitions = ()
        self._msg_ids = count(1)
        self.delivery_log = []  # (step, src, dst, kind, action)
        # Observability hook (repro.obs): a MetricsRegistry installed by
        # ObservabilityKit.attach_fabric, or None.
        self.metrics = None
        self.stats = {
            "sent": 0,
            "delivered": 0,
            "dropped": 0,
            "duplicated": 0,
            "delayed": 0,
            "partition_drops": 0,
            "rounds": 0,
        }

    # -- membership --------------------------------------------------------

    def register(self, name, handler):
        """Attach an endpoint: ``handler(message)`` receives deliveries."""
        self.handlers[name] = handler
        if name not in self.inboxes:
            self.inboxes[name] = deque()
            self._delivery_order = sorted(self.inboxes)

    def mark_down(self, name):
        """The endpoint lost power: drop its inbox, refuse its traffic."""
        self.down.add(name)
        inbox = self.inboxes.get(name)
        if inbox:
            self.stats["dropped"] += len(inbox)
            inbox.clear()

    def mark_up(self, name):
        """The endpoint restarted (re-register its handler separately)."""
        self.down.discard(name)

    # -- partitions --------------------------------------------------------

    def partition(self, groups):
        """Sever links between the given groups of endpoint names.

        Endpoints named in no group are unaffected (they can reach
        everyone) — that models the test driver's console, which is not
        a network participant.
        """
        self.partitions = tuple(frozenset(group) for group in groups)

    def heal(self):
        """Remove any installed partition."""
        self.partitions = ()

    def severed(self, src, dst):
        """Whether an active partition cuts the ``src -> dst`` link."""
        if not self.partitions:
            return False
        src_group = dst_group = None
        for index, group in enumerate(self.partitions):
            if src in group:
                src_group = index
            if dst in group:
                dst_group = index
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    # -- sending -----------------------------------------------------------

    def send(self, src, dst, kind, payload=None, reply_to=None):
        """Enqueue a message; returns it (delivery is not implied).

        With an injector: its verdict for the numbered step, then the
        link checks.  Without one, only the link checks.
        """
        message = Message(
            next(self._msg_ids), src, dst, kind,
            dict(payload) if payload else {}, reply_to,
        )
        self.stats["sent"] += 1
        injector = self.injector
        action = "deliver"
        number = None
        if injector is not None:
            action, step = injector.message(src, dst, kind)
            if step is not None:
                number = step.number
        action = self._link_verdict(message, action)
        self.delivery_log.append((number, src, dst, kind, action))
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("fabric.sent", site=src)
            metrics.inc("fabric.msg", kind=kind)
            metrics.inc("fabric.action", action=action or "deliver")
        if action == "drop":
            self.stats["dropped"] += 1
        elif action == "partition_drop":
            self.stats["partition_drops"] += 1
        elif action == "duplicate":
            self.stats["duplicated"] += 1
            self.inboxes[dst].append(message)
            self.inboxes[dst].append(message)
        elif action == "delay":
            self.stats["delayed"] += 1
            self.delayed.append(message)
        else:
            self.inboxes[dst].append(message)
        return message

    def _link_verdict(self, message, action):
        """Downgrade the injector's verdict with link-state realities."""
        if message.src in self.down or message.dst in self.down:
            return "drop"
        if message.dst not in self.inboxes:
            return "drop"
        if self.severed(message.src, message.dst):
            return "partition_drop"
        return action

    # -- delivery ----------------------------------------------------------

    def pending(self):
        """How many messages are queued (inboxes plus delayed)."""
        return sum(len(q) for q in self.inboxes.values()) + len(self.delayed)

    def pump_round(self):
        """Deliver everything queued right now; returns the count.

        Snapshot-then-deliver: messages sent by handlers during this
        round land in the next round, and delayed messages promoted at
        the end of the round also arrive next round — one round late,
        as promised.
        """
        self.stats["rounds"] += 1
        batch = []
        for name in self._delivery_order:
            inbox = self.inboxes[name]
            if inbox:
                batch.extend(inbox)
                inbox.clear()
        delivered = 0
        for message in batch:
            if message.dst in self.down:
                self.stats["dropped"] += 1
                continue
            handler = self.handlers.get(message.dst)
            if handler is None:
                self.stats["dropped"] += 1
                continue
            handler(message)
            delivered += 1
            self.stats["delivered"] += 1
            if self.metrics is not None:
                self.metrics.inc("fabric.delivered", site=message.dst)
        if self.delayed:
            for message in self.delayed:
                if message.dst in self.inboxes:
                    self.inboxes[message.dst].append(message)
            self.delayed.clear()
        return delivered

    def pump(self, max_rounds=64):
        """Pump until quiescent (or the round bound); returns deliveries.

        The bound is a backstop against ping-pong protocols, not a
        correctness knob: a healthy exchange quiesces in a handful of
        rounds.
        """
        total = 0
        for __ in range(max_rounds):
            if not self.pending():
                break
            total += self.pump_round()
        return total
