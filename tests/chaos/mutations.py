"""Self-validation mutations: break the system on purpose.

A chaos harness that never fails is indistinguishable from one that
checks nothing.  These context managers knock out exactly one known
correctness mechanism, in process and reversibly; the sensitivity tests
run a sweep (or a schedule exploration) under each mutation and assert
the oracles *do* fire — proving the harness can see the class of bug the
mechanism exists to prevent.

They live with the tests, not in ``src/``: each patches a class with
:func:`unittest.mock.patch.object`, which restores it on exit, even on
error.  Every public mutation here must be used by some test module
(``tests/chaos/test_mutation_coverage.py``).
"""

from __future__ import annotations

import sys
import zlib
from contextlib import contextmanager
from dataclasses import replace
from unittest.mock import patch

from repro.cluster.group import Group
from repro.cluster.site import Site
from repro.core.dependency import DependencyGraph
from repro.core.manager import TransactionManager
from repro.storage import page
from repro.storage.buffer import BufferPool
from repro.storage.log import (
    CheckpointRecord,
    CompensationRecord,
    UpdateRecord,
    WriteAheadLog,
)
from repro.storage.objects import ObjectStore
from repro.storage.page import _CRC
from repro.storage.recovery import RecoveryManager
from repro.storage.store import ShardStack, StorageManager
from tests.storage.scan_oracle import redo_span


def undo_disabled():
    """Recovery skips its undo phase: losers keep their effects.

    The crash sweep must report exact-state violations for any crash
    that leaves a loser's after image in the durable log.
    """
    return patch.object(RecoveryManager, "_undo", lambda self, report: None)


def redo_lwm_too_high():
    """Redo starts above the last durable checkpoint's mark — at the
    log's last record, as if a marker were written after every append.

    Every update whose page had not reached disk by the crash is
    then never reinstalled: a crash sweep over any scenario that leaves
    committed work in the cache must report exact-state violations.
    """
    redo_records = WriteAheadLog.redo_records

    def from_the_end(self):
        self.redo_lsn = self.last_lsn
        return redo_records(self)

    return patch.object(WriteAheadLog, "redo_records", from_the_end)


def redo_keeps_oldest_image():
    """Redo installs, for each object with an image above the mark, the
    *oldest* one instead of the newest — the one way installing once
    per object can be wrong.  Any crash after an object was written
    twice above the mark with the later image still off its page must
    show: the ``checkpoint_mark`` and ``steal_window`` sweeps and the
    restart property go red."""

    def oldest(self):
        first, images = {}, 0
        for record in redo_span(self):  # the scan oracle's, wrong end
            if isinstance(record, (UpdateRecord, CompensationRecord)):
                images += 1
                first.setdefault(record.oid, record)
        return list(first.values()), images - len(first)

    return patch.object(WriteAheadLog, "redo_records", oldest)


def redo_index_skips_compensations():
    """The log's index ignores compensation records: redo's newest image
    of an object whose last update was undone is that update, and
    restart reinstalls the after image the undo took away.  The
    ``checkpoint_mark`` sweeps, the restart property and the redo
    index property must catch it."""
    return patch.dict(
        WriteAheadLog._HANDLERS, {CompensationRecord: lambda self, record: None}
    )


def redo_mark_read_after_flush():
    """A checkpoint marker carries the log's last LSN as of *after* the
    pool flush, not before: a commit landing in between is covered by
    the mark although its page is dirty again.  ``checkpoint_mark`` must
    catch it."""
    log_checkpoint = WriteAheadLog.log_checkpoint

    def mark_late(self, active, redo_lsn=0):
        return log_checkpoint(self, active, self.last_lsn if redo_lsn else 0)

    return patch.object(WriteAheadLog, "log_checkpoint", mark_late)


def torn_page_keeps_mark():
    """Quarantining a torn page no longer voids the checkpoint mark: an
    object on it last written below the mark is never rebuilt.  The
    ``checkpoint_mark`` sweeps' torn-page dimension must catch it."""
    log_checkpoint = WriteAheadLog.log_checkpoint

    def never_void(self, active, redo_lsn=0):
        if redo_lsn or not self.redo_lsn:
            return log_checkpoint(self, active, redo_lsn)

    return patch.object(WriteAheadLog, "log_checkpoint", never_void)


def void_mark_skips_prefix():
    """Redo under a void mark reads only the tail, as if the restart
    point held every image redo needs: an object on the torn page last
    written below the point is never rebuilt.  The ``checkpoint_mark``
    sweeps' torn-page dimension must catch it."""
    redo_records = WriteAheadLog.redo_records

    def tail_only(self):
        base, self.base = self.base, 0  # as if the tail were the log
        try:
            return redo_records(self)
        finally:
            self.base = base

    return patch.object(WriteAheadLog, "redo_records", tail_only)



def base_images_skipped():
    """A sharp checkpoint truncates the log and keeps no image of any
    object, as it once did: a page torn after it has nothing to rebuild
    it from, so an object on it is lost, or a large one keeps a header
    over a missing chunk.  ``tests/storage/test_checkpoint.py`` and the
    free-space-map property's torn-after-truncation examples go red."""

    def none_kept(stack):
        return stack.log.last_lsn

    return patch.object(
        StorageManager, "_log_base_images", staticmethod(none_kept)
    )

def page_checksum_ignored():
    """``check_image`` skips the checksum compare (every image is stamped
    with its own bytes' checksum first) for both of its callers,
    ``Page.from_bytes`` and the table rebuild's ``live_slots``: a torn
    page decodes as its new header and old directory say, and the table
    serves the neighbours' bytes under their ids.  A tear of a
    compacted page must show."""
    check_image = page.check_image

    def unchecked(raw, *args, **kwargs):
        raw = bytearray(raw)
        _CRC.pack_into(raw, 0, zlib.crc32(memoryview(raw)[_CRC.size :]))
        return check_image(bytes(raw), *args, **kwargs)

    return patch.object(page, "check_image", unchecked)


class _Everyone:
    """A set that holds every transaction."""

    def __contains__(self, tid):
        return True


def restart_point_ignores_active():
    """The restart point is the redo mark alone, as if every transaction
    had finished: one still active at the checkpoint no longer holds it
    down, so its before images below the mark are gone from every later
    open and restart cannot undo it.  The ``checkpoint_mark`` sweeps
    must catch it."""
    restart_point = WriteAheadLog.restart_point

    def mark_only(self, marker, finished=frozenset()):
        return restart_point(self, marker, _Everyone())

    return patch.object(WriteAheadLog, "restart_point", mark_only)


def restart_point_forgets_max_tid():
    """What a marker says about the highest tid below it is ignored: a
    log opened at its restart point knows only its tail's tids, and a
    restarted manager hands out one that the prefix already holds."""
    on_checkpoint = WriteAheadLog._HANDLERS[CheckpointRecord]

    def tail_only(self, record):
        on_checkpoint(self, replace(record, max_tid=0))

    return patch.dict(WriteAheadLog._HANDLERS, {CheckpointRecord: tail_only})


def wal_ordering_broken():
    """Dirty pages reach disk without forcing the log first.

    Breaks the write-ahead rule everywhere at once by making the pool's
    ``wal`` reference unsettable (the storage manager *thinks* it handed
    the pool its log, but the pool discards it): a crash after a page
    write-back but before the next log flush leaves an effect on disk
    that the durable log cannot attribute or undo.  The sweep must catch
    the window.
    """
    # The pool's ``wal`` is an instance attribute: the patch creates the
    # class property and deletes it on exit.
    return patch.object(
        BufferPool, "wal", property(lambda self: None, lambda self, v: None),
        create=True,
    )


def wal_gate_stuck():
    """The write-ahead gate always answers "already durable".

    The pool still holds its log and still asks before every write-back,
    but :meth:`WriteAheadLog.force` never syncs — the failure a wrong
    watermark or a stale page stamp would cause.  Commit flushes still
    happen, so only a *stolen* page (evicted while its writer is still
    uncommitted) reaches disk ahead of its undo record; the
    ``steal_window`` sweep must catch it.
    """
    return patch.object(WriteAheadLog, "force", lambda self, lsn: False)


@contextmanager
def _logged_after_install(writer, installs):
    """``WriteAheadLog.<writer>`` holds its record back until the next
    of ``ObjectStore.<installs>`` has run: install, *then* log — the one
    rule, turned around."""
    log_it = getattr(WriteAheadLog, writer)
    held = []

    def hold_back(self, *record):
        held[:] = [(self, record)]

    def then_log(install):
        def wrapper(self, *args, **kwargs):
            result = install(self, *args, **kwargs)
            while held:
                log, record = held.pop()
                log_it(log, *record)
            return result

        return wrapper

    with patch.object(WriteAheadLog, writer, hold_back), patch.multiple(
        ObjectStore,
        **{name: then_log(getattr(ObjectStore, name)) for name in installs},
    ):
        yield


def update_logged_after_install():
    """The forward sites install first and log after.  A page stolen
    while its transaction is still installing (or before it logs) is
    stamped below a record that does not exist yet, so the gate lets it
    through ahead of it: an object on disk that the durable log knows
    nothing of.  The ``steal_window`` crash sweeps must catch it."""
    return _logged_after_install("log_update", ("create", "write", "delete"))


def compensation_logged_after_install():
    """Undo installs each before image first and logs its compensation
    record after — the order that once made restart redo the whole log
    whenever a transaction was in doubt, with that exception gone.  A
    page holding a restored image can reach disk with its record lost;
    restart keeps (does not undo) an in-doubt transaction, and the redo
    it bounds by the mark no longer puts the after image back."""
    return _logged_after_install("log_compensation", ("install",))


def write_unpinned_clean():
    """``ShardStack.write_object``'s one unpin passes ``dirty=False``.

    That unpin is the only thing that marks a rewritten frame dirty and
    stamps its ``page_lsn``: without it the checkpoint's flush skips the
    frame, the redo mark passes the record, and a restart from the mark
    loses a committed image.  A crash sweep over a scenario that
    rewrites a clean page and then checkpoints must go red (the
    registered scenarios rewrite pages their creates already dirtied;
    ``tests/chaos/test_checkpoint_mark.py`` carries one that does not).
    """
    pool_unpin = BufferPool.unpin
    forward_write = ShardStack.write_object.__code__

    def unpin(self, page_id, dirty=False):
        if sys._getframe(1).f_code is forward_write:
            dirty = False
        return pool_unpin(self, page_id, dirty)

    return patch.object(BufferPool, "unpin", unpin)


def free_map_skips_deletes():
    """A delete leaves its page's free-space map entry where it was.

    ``ObjectStore._note`` is how a page's entry follows its live bytes;
    skipped after a delete (of an object or of a chunk), the map
    undercounts the page's room and placement passes over the room the
    delete left — a create goes to a new page instead.  The map property
    (``tests/properties/test_prop_free_space_map.py``) and the pinned
    placement test
    ``tests/storage/test_pin_counts.py::TestPlacementAsksTheFreeSpaceMap::test_a_create_fills_the_room_a_delete_left``
    go red.
    """
    note = ObjectStore._note
    deletes = {
        ObjectStore._drop_value.__code__, ObjectStore._delete_slot.__code__,
    }

    def note_unless_deleting(self, page):
        if sys._getframe(1).f_code not in deletes:
            note(self, page)

    return patch.object(ObjectStore, "_note", note_unless_deleting)


def dependency_dropped(dep_type):
    """``form_dependency`` silently ignores edges of ``dep_type``.

    The caller believes the edge exists; the scenario's *intent* list
    still records it; the ACTA oracles must notice the fate mismatch.
    """
    form_dependency = TransactionManager.form_dependency
    dropped_name = getattr(dep_type, "name", dep_type)

    def dropping(self, dt, ti, tj):
        if getattr(dt, "name", dt) == dropped_name:
            return None  # claim success, form nothing
        return form_dependency(self, dt, ti, tj)

    return patch.object(TransactionManager, "form_dependency", dropping)


def delegation_unlogged():
    """Delegations happen in memory but never reach the log.

    Restart recovery then mis-attributes delegated updates to the
    delegator: an update delegated from an aborting transaction to a
    committing one gets undone anyway.  The sweep's exact-state oracle
    must flag the divergence.
    """
    return patch.object(
        StorageManager, "log_delegate", lambda self, tid, delegatee, oids: None
    )


def commit_logged_before_witness():
    """The coordinator force-logs COMMIT before any witness acknowledged.

    Reverts witness-confirmed release: on unanimous votes the commit
    :class:`~repro.storage.log.DecisionRecord` is sealed right after the
    DECISION fan-out is *sent*, not after one is acknowledged.  A send
    is not a delivery — black out the release and kill the coordinator,
    and its log says commit while the survivors' takeover, finding no
    witness, presumes abort.  ``release_blackout_sweep`` must report the
    dual decision.
    """
    decide = Site._decide

    def log_first(self, g, verdict):
        decide(self, g, verdict)
        if self.up and g.state == "releasing":
            self._seal_commit(g)

    return patch.object(Site, "_decide", log_first)


def tick_skips_unsettled_site():
    """The tick's settled-site guard forgets ``prepared``: a site whose
    members are prepared and undecided is skipped like an idle one.

    Such a site never asks its coordinator for the verdict and never
    counts the coordinator overdue, so a lost DECISION strands it and a
    dead coordinator is never taken over.  The cluster message sweep and
    ``release_blackout_sweep`` must report the groups that never settle.
    """
    on_tick = Site.on_tick

    def forgetful(self):
        if self.up and any(
            self._group(gid).phase == "prepared" for gid in self.active
        ):
            self.ticks += 1
            self.runtime.round()
            return
        on_tick(self)

    return patch.object(Site, "on_tick", forgetful)


def restart_forgets_resolved_votes():
    """A restarted site derives no verdict for the votes it resolved.

    Reverts the restart's witness reconstruction: a gid this site voted
    in and later settled comes back with ``voted`` set and no verdict,
    so a restarted commit witness answers a takeover poll
    ``resolved_unknown`` where it durably holds ``committed``.  The
    restarted ledger is no longer the durable projection of the live
    one, and a takeover that polls such a witness can never conclude:
    ``stranded_witness_sweep`` must report the members left waiting.
    """
    return patch.object(
        Site, "_resolved_verdict", lambda self, vote, winners: None
    )


def stale_record_served():
    """The ledger's accessor serves a record as it finds it.

    ``Site._group`` stops re-deriving a record an earlier incarnation
    left: a restarted site answers from what it knew before the power
    cut — a vote collection, a release or a pending prepare it lost
    reads as if it survived — and the restart's own folds of its open
    votes find nothing to fold, so an in-doubt member never rejoins
    ``active`` and never asks for its verdict.  The lazy-fold property
    (``test_prop_group_fold.py``) and ``stranded_witness_sweep`` must
    see it.
    """

    def as_found(self, gid):
        g = self.groups.get(gid)
        if g is None:
            g = self.groups[gid] = Group(gid, self.incarnation)
        return g

    return patch.object(Site, "_group", as_found)


def open_vote_closed_by_anchor():
    """A vote counts as open only while its anchor tid has no outcome.

    The log's index keeps a vote open while *any* tid it covers —
    the anchor or a local group member — has no outcome in the log.
    Keyed by the anchor alone, a prepared group whose anchor finished
    aborting before the crash, but whose member did not, loses its
    vote from ``analysis()``: restart undoes the member as a loser
    instead of keeping it in doubt, and a checkpoint may cut the vote
    off.  ``TestAVoteStaysOpenWhileAMemberIsUndecided`` must see the
    member undone.
    """

    def anchored(self, vote):
        anchor = vote.tid
        if anchor not in self._winners and anchor not in self._finished_aborts:
            self._open_votes[vote.lsn] = vote
            self._votes_of.setdefault(anchor, []).append(vote)
        else:
            self._open_votes.pop(vote.lsn, None)

    return patch.object(WriteAheadLog, "_open_vote", anchored)


def gc_component_outlives_abort():
    """An abort drops its members' edges but leaves their GC component.

    ``DependencyGraph.remove_involving`` takes a terminating tid out of
    the component it keeps for ``gc_group``; skipped on the abort path,
    the component map keeps every aborted group whole: it grows with
    each aborted group, and ``gc_group`` of an aborted tid still names
    the members it no longer has an edge to.  The component property
    (``tests/properties/test_prop_gc_components.py``) must see it.
    """
    remove_involving = DependencyGraph.remove_involving
    aborting = TransactionManager._finish_abort_group.__code__

    def edges_only(self, tid):
        if sys._getframe(1).f_code is not aborting:
            return remove_involving(self, tid)
        for edge in tuple(self.edges_involving(tid)):
            self._index.remove(edge.dependent, edge.dependee, edge)

    return patch.object(DependencyGraph, "remove_involving", edges_only)
