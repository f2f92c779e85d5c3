"""A takeover decision names no winner when its taker has no member.

A site that takes over an in-doubt group it holds no member of still
force-logs the decision, the audit trail any later taker reads, under
the null tid ``Tid(0)``.  That record commits nobody at this site:
restart analysis, live or from the device, must not count the null tid
as a winner.
"""

from repro.common.ids import NULL_TID, Tid
from repro.storage.log import DecisionRecord
from repro.storage.store import StorageManager


def test_the_record_decides_no_null_tid():
    record = DecisionRecord(None, NULL_TID, 7, "commit", (), ("s1",))
    assert record.decided_tids() == set()
    linked = DecisionRecord(None, Tid(3), 7, "commit", (Tid(4),))
    assert linked.decided_tids() == {Tid(3), Tid(4)}


def test_restart_counts_no_null_winner():
    storage = StorageManager()
    storage.log_decision(Tid(5), 5, "commit")
    storage.log_decision(NULL_TID, 7, "commit", participants=("s1", "s2"))
    assert storage.log.analysis()[0] == {Tid(5)}
    storage.crash()
    report = storage.recover()
    assert NULL_TID not in report.winners
    assert report.winners == {Tid(5)}
