"""Textual history timelines.

Turns a recorded history into a readable per-transaction timeline —
handy in test failures and when exploring interleavings::

    t=12 T3  write           oid=ObjectId(2:acct)
    t=13 T4  lock_blocked    oid=ObjectId(2:acct) by T3
    t=15 T3  committed

and a compact per-object access summary.  Pure formatting: no state is
touched.
"""

from __future__ import annotations

from repro.common.ids import Tid

_SHOW_DETAIL = {
    "oid": "",
    "operation": "op=",
    "to": "to ",
    "other": "with ",
    "dep_type": "",
    "receiver": "-> ",
    "blockers": "by ",
    "waiting": "on ",
    "reason": "",
    "parent": "parent ",
    "for_tid": "for ",
}


def _tid_label(tid):
    if not isinstance(tid, Tid):
        return str(tid)
    return f"T{int(tid)}" if tid else "T-"


def _format_detail(detail):
    parts = []
    for key, prefix in _SHOW_DETAIL.items():
        if key not in detail:
            continue
        value = detail[key]
        if value in (None, "", ()):
            continue
        if isinstance(value, tuple):
            value = ",".join(_tid_label(v) for v in value)
        elif isinstance(value, Tid) and key in (
            "to", "other", "receiver", "for_tid", "parent",
        ):
            value = _tid_label(value)
        parts.append(f"{prefix}{value}")
    return "  ".join(parts)


def format_history(recorder, tids=None, kinds=None):
    """Render events as one line each, in tick order.

    ``tids``/``kinds`` filter to specific transactions or event kinds.
    """
    wanted_tids = set(tids) if tids is not None else None
    wanted_kinds = set(kinds) if kinds is not None else None
    lines = []
    for event in recorder.events:
        if wanted_tids is not None and event.tid not in wanted_tids:
            continue
        if wanted_kinds is not None and event.kind not in wanted_kinds:
            continue
        detail = _format_detail(event.detail)
        lines.append(
            f"t={event.tick:<4} {_tid_label(event.tid):<5}"
            f" {event.kind.value:<16} {detail}".rstrip()
        )
    return "\n".join(lines)


def format_object_timeline(recorder, oid):
    """The access history of one object, one line per operation."""
    lines = []
    for op in recorder.operations():
        if op.oid != oid:
            continue
        lines.append(
            f"t={op.tick:<4} {_tid_label(op.tid):<5} {op.operation}"
        )
    return "\n".join(lines)


def summarize(recorder):
    """A one-paragraph summary: transactions, outcomes, conflicts."""
    committed = recorder.committed()
    aborted = recorder.aborted()
    operations = recorder.operations()
    objects = {op.oid for op in operations}
    permits = recorder.permits()
    delegations = recorder.delegations()
    return (
        f"{len(committed)} committed, {len(aborted)} aborted;"
        f" {len(operations)} operations on {len(objects)} objects;"
        f" {len(permits)} permits, {len(delegations)} delegations"
    )
