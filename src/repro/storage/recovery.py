"""Restart recovery.

The strategy is repeat-history's-outcome + undo-losers over physical
images, in one pass over a log that was decoded once (at open, or by
the crash simulation's ``resync``):

1. **Analysis** — read off the log's index, which folded every record
   as it was decoded: winners are transactions named by commit records,
   the already-aborted those with abort records, and everything else
   that wrote is a loser.  Delegation records re-attribute each update
   to the transaction responsible for it at the end of the log (a
   loser's updates delegated to a winner survive — section 2.2).
2. **Redo** — for every object with an update or compensation record
   above the last durable checkpoint's ``redo_lsn`` (those at or below
   it are in the page file: the marker is written after the pool
   flush, the mark read before it), install the ``after`` image of the
   *newest* one, in LSN order.  An image is the whole object, so that
   leaves what replaying every image in order would (the test oracle,
   ``tests/storage/scan_oracle.replay_every_image``); the older images
   are ``RecoveryReport.superseded``.  Undo performed before the crash
   was logged, as compensation records, so history's outcome includes
   aborts too.  Quarantining a torn page first voids the mark (a marker
   with ``redo_lsn`` 0, durable before the page is reset); under it redo
   reads the whole log, prefix included, until a checkpoint has flushed
   the rebuilt pages.  The point stays: analysis needs only the tail.
3. **Undo** — restore the before images of loser updates in reverse LSN
   order, each logged as a compensation record and then installed, and
   finish each loser with an abort record, which makes recovery
   idempotent across repeated crashes.

Forward, undo and restart obey one rule — *append the record, then
install* (:func:`undo_updates` is the only backward site) — so a page
can reach disk only behind every record that describes it, and the
mark holds for every transaction, in doubt or not.

One class of transaction is exempt from undo-losers: a transaction
covered by a durable prepare record with no durable outcome is **in
doubt** — it voted commit in a distributed group commit, so this site no
longer owns the decision.  Its updates are kept (redo reinstalls them)
and it is reported in ``RecoveryReport.in_doubt``; the cluster layer
resolves it against the coordinator (or by presumed abort) after
restart.

Physical before/after images make redo and undo idempotent, which is why a
crash *during* recovery is harmless: the next restart installs the same
newest images (or newer ones: undo's own compensation records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter


@dataclass
class RecoveryReport:
    """What a restart recovery pass did (for tests and operators)."""

    winners: set = field(default_factory=set)
    losers: set = field(default_factory=set)
    already_aborted: set = field(default_factory=set)
    redone: int = 0  # objects redo installed: the newest image of each
    # Older images above the mark, which those stand for: the tail held
    # ``redone + superseded`` updates and compensations to redo.
    superseded: int = 0
    undone: int = 0
    scanned: int = 0  # records decoded for this restart
    # The LSN the log's decoded tail starts at — its restart point — or
    # 0: the whole log.
    restart_from: int = 0
    # The LSN redo started above: 0 = the whole log, never checkpointed
    # or under a void mark (a torn page was reset).
    redo_from: int = 0
    # Prepared-but-undecided transactions: kept, not undone.  ``in_doubt``
    # holds their tids; ``in_doubt_votes`` maps each unresolved global id
    # to its (last) durable PrepareRecord so the cluster layer knows the
    # group, the coordinator to ask, and hence how to finish them.
    in_doubt: set = field(default_factory=set)
    in_doubt_votes: dict = field(default_factory=dict)

    def __repr__(self):
        doubt = older = ""
        if self.in_doubt:
            doubt = f", in_doubt={sorted(map(int, self.in_doubt))}"
        if self.superseded:
            older = f" ({self.superseded} superseded)"
        return (
            f"RecoveryReport(winners={sorted(map(int, self.winners))},"
            f" losers={sorted(map(int, self.losers))},"
            f" restart_from={self.restart_from}, scanned={self.scanned},"
            f" redo_from={self.redo_from},"
            f" redone={self.redone}{older}, undone={self.undone}{doubt})"
        )


def undo_updates(log, install, tids, above=0):
    """Undo every update above LSN ``above`` that ``log`` attributes to
    ``tids``, in one pass: before images restored in global reverse-LSN
    order, each logged as a compensation record and *then* installed —
    the page holding a restored image is stamped past its record, so
    the write-ahead gate lets it reach disk only behind it.  Live
    aborts, savepoint rollbacks and restart's undo-losers all run this.
    Returns how many updates were undone."""
    updates = [
        record
        for tid in set(tids)
        for record in log.updates_by(tid)
        if record.lsn > above
    ]
    updates.sort(key=attrgetter("lsn"), reverse=True)
    for record in updates:
        log.log_compensation(record.tid, record.oid, record.before)
        install(record.oid, record.before)
    return len(updates)


class RecoveryManager:
    """Runs restart recovery over a log and an object store."""

    def __init__(self, log, object_store):
        self.log = log
        self.store = object_store

    def run(self):
        """Run analysis, redo, and undo; return a :class:`RecoveryReport`.

        Analysis reads the log's index and decodes nothing: the decoded
        tail is the durable view from the restart point on
        (``drop_volatile`` makes it so if the caller skipped the crash),
        and every transaction with a record there has its whole future
        there too.  Redo and undo are separate methods
        so the chaos harness can crash recovery between (and inside)
        them and so mutation tests can knock one phase out to prove the
        oracles notice.
        """
        self.log.drop_volatile()
        winners, finished, prepares, writers = self.log.analysis()
        in_doubt = set()
        in_doubt_votes = {}
        for record in prepares:
            undecided = record.prepared_tids() - winners - finished
            if undecided:
                in_doubt |= undecided
                in_doubt_votes[record.gid] = record
        report = RecoveryReport(
            winners=winners,
            losers=writers - winners - finished - in_doubt,
            already_aborted=finished,
            in_doubt=in_doubt,
            in_doubt_votes=in_doubt_votes,
            scanned=len(self.log),
            restart_from=self.log.restart_from,
        )
        self._redo(report)
        self._undo(report)
        metrics = self.log.metrics
        if metrics is not None:
            for name in (
                "scanned", "redone", "superseded", "undone", "redo_from",
                "restart_from",
            ):
                metrics.set_gauge(f"recovery.{name}", getattr(report, name))
        return report

    def _redo(self, report):
        """Repeat history's outcome above the last durable checkpoint's
        mark (over the whole log under a void one): each object touched
        there is installed once, at its newest image.

        Forces no log: nothing is appended here, so every frame redo
        dirties is stamped with an LSN that was read from the durable
        log, and the pool's write-ahead gate lets its eviction through.
        """
        report.redo_from = self.log.redo_lsn
        records, report.superseded = self.log.redo_records()
        for record in records:
            self.store.install(record.oid, record.after)
            report.redone += 1

    def _undo(self, report):
        """Restore losers' before images, newest first: each logged as
        a compensation record, then installed (:func:`undo_updates`)."""
        report.undone = undo_updates(
            self.log, self.store.install, report.losers
        )
        for loser in sorted(report.losers):
            self.log.log_abort(loser)
        if report.losers:
            self.log.flush()
