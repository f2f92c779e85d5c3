"""Transaction-lifetime spans folded from the event stream.

ASSET's behaviour is emergent: a transaction's fate is decided by
delegations, permits, and dependency edges scattered across the event
stream (and, in a cluster, across sites).  The :class:`SpanBuilder`
folds that stream back into one record per transaction — a **span** from
``INITIATE`` to the terminal event — with the cross-transaction
primitives attached as **links**, so a trace viewer (or a test oracle)
sees the paper's history structure directly.

Correlation works on three axes:

* **ticks** — every event carries the shared logical clock's tick, so
  spans from different sites of one cluster interleave on a single
  total order (the same order the ACTA history recorder sees);
* **correlation ids** — a span's ``correlation`` is ``site:tid`` of the
  transaction it *stands for*: a proxy's span carries its remote owner's
  identity, so all spans of one logical transaction share an id;
* **fabric message ids** — a span created while a site handles a fabric
  message records that message's ``msg_id`` as ``origin_msg``, tying
  remote-driven spans to the exact message that caused them.

Spans export as JSONL (one JSON object per line, start-tick order),
the shape ``--trace-out`` on :mod:`repro.chaos.replay` writes.
"""

from __future__ import annotations

import json

from repro.common.events import EventKind

__all__ = ["SPAN_KINDS", "SpanBuilder"]

# The narrow subscription: everything a span needs, nothing the manager's
# per-operation hot path emits (READ/WRITE stay unwatched).
SPAN_KINDS = (
    EventKind.INITIATE,
    EventKind.BEGIN,
    EventKind.COMPLETE,
    EventKind.DELEGATE,
    EventKind.PERMIT,
    EventKind.FORM_DEPENDENCY,
    EventKind.PREPARED,
    EventKind.COMMITTED,
    EventKind.ABORTED,
)

_TERMINAL = {EventKind.COMMITTED: "committed", EventKind.ABORTED: "aborted"}


class _SpanView:
    """One trace's subscriber: stamps a site name on every event."""

    __slots__ = ("builder", "trace", "correlate")

    def __init__(self, builder, trace, correlate):
        self.builder = builder
        self.trace = trace
        self.correlate = correlate

    def __call__(self, event):
        """Deliver one bus event into the shared builder."""
        self.builder._fold(self, event)


class SpanBuilder:
    """Folds one or many event buses into transaction spans.

    One builder serves a whole cluster: each site subscribes a *view*
    (:meth:`subscribe_to`) carrying its trace name, and all views feed
    one span table keyed ``(trace, tid)``.  ``current_message`` is the
    fabric-message context a :class:`~repro.obs.wiring.ObservabilityKit`
    maintains while a site handler runs.
    """

    def __init__(self):
        self.spans = {}  # (trace, tid value) -> span dict
        self._tids = {}  # (trace, tid value) -> tid object (for correlate)
        self._correlates = {}  # trace -> correlate callable | None
        self.current_message = None  # (site, msg_id, src, kind) | None

    # -- subscription ------------------------------------------------------

    def subscribe_to(self, bus, trace="local", correlate=None):
        """Attach a narrow-kind view of this builder to ``bus``.

        ``correlate(tid) -> str`` resolves a transaction's logical
        identity at *export* time (proxies learn their owner only after
        their INITIATE event fired).  Returns the subscriber callable so
        the caller can ``unsubscribe`` it later.
        """
        view = _SpanView(self, trace, correlate)
        self._correlates[trace] = correlate
        bus.subscribe(view, kinds=SPAN_KINDS)
        return view

    # -- folding -----------------------------------------------------------

    def _span(self, view, event):
        key = (view.trace, int(event.tid))
        span = self.spans.get(key)
        if span is None:
            span = {
                "trace": view.trace,
                "tid": int(event.tid),
                "start": event.tick,
                "end": None,
                "status": "open",
                "reason": None,
                "gid": None,
                "prepared": None,
                "origin_msg": None,
                "links": [],
            }
            current = self.current_message
            if current is not None and current[0] == view.trace:
                span["origin_msg"] = current[1]
            self.spans[key] = span
            self._tids[key] = event.tid
        return span

    def _fold(self, view, event):
        span = self._span(view, event)
        kind = event.kind
        detail = event.detail
        if kind is EventKind.INITIATE:
            span["start"] = min(span["start"], event.tick)
        elif kind is EventKind.BEGIN:
            span["links"].append({"type": "begin", "tick": event.tick})
        elif kind is EventKind.COMPLETE:
            span["links"].append({"type": "complete", "tick": event.tick})
        elif kind is EventKind.DELEGATE:
            span["links"].append(
                {
                    "type": "delegate",
                    "tick": event.tick,
                    "peer": int(detail["to"]),
                    "oids": list(map(int, detail.get("oids", ()))),
                }
            )
        elif kind is EventKind.PERMIT:
            receiver = detail.get("receiver")
            span["links"].append(
                {
                    "type": "permit",
                    "tick": event.tick,
                    "peer": int(receiver) if receiver is not None else None,
                    "oid": int(detail["oid"]),
                }
            )
        elif kind is EventKind.FORM_DEPENDENCY:
            span["links"].append(
                {
                    "type": "dependency",
                    "tick": event.tick,
                    "peer": int(detail["other"]),
                    "dep_type": detail["dep_type"],
                }
            )
        elif kind is EventKind.PREPARED:
            span["prepared"] = event.tick
            span["gid"] = detail.get("gid")
        elif kind in _TERMINAL:
            span["end"] = event.tick
            span["status"] = _TERMINAL[kind]
            reason = detail.get("reason")
            if reason:
                span["reason"] = reason

    # -- export ------------------------------------------------------------

    def export(self):
        """All spans as plain dicts, in start-tick order.

        Correlation ids are resolved here, not at fold time: a proxy's
        owner is registered just *after* the proxy's INITIATE event, so
        only a late resolution sees it.
        """
        out = []
        for key in sorted(self.spans, key=lambda k: self.spans[k]["start"]):
            span = dict(self.spans[key])
            span["links"] = list(span["links"])
            span["correlation"] = self._correlation(key)
            out.append(span)
        return out

    def _correlation(self, key):
        correlate = self._correlates.get(key[0])
        tid = self._tids.get(key)
        if correlate is not None and tid is not None:
            resolved = correlate(tid)
            if resolved:
                return resolved
        return f"{key[0]}:{key[1]}"

    def export_jsonl(self, handle):
        """Write :meth:`export` as JSONL to an open text ``handle``."""
        for span in self.export():
            handle.write(json.dumps(span, sort_keys=True))
            handle.write("\n")
        return len(self.spans)
