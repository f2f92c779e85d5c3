"""Identifier types: null tid semantics, ordering, generators — and what
being ints means: hashing and equality are the number's, ``repr`` says
which kind of number, and the codec writes the bytes it always wrote."""

import struct

import pytest

from tests.cluster.test_round_cost import commit_groups
from tests.conftest import incrementer, make_counters

from repro.cluster import Cluster
from repro.common.ids import (
    NULL_TID,
    IdGenerator,
    Lsn,
    ObjectId,
    Tid,
    lsn_generator,
    tid_generator,
)
from repro.obs import install_observability
from repro.runtime.coop import CooperativeRuntime
from repro.storage.log import (
    CommitRecord,
    DelegateRecord,
    UpdateRecord,
    decode_record,
    encode_record,
)

KINDS = (Tid, ObjectId, Lsn)


class TestTid:
    def test_null_tid_is_falsy(self):
        assert not NULL_TID
        assert not Tid(0)

    def test_nonnull_tid_is_truthy(self):
        assert Tid(1)
        assert Tid(10**9)

    def test_equality_and_hash(self):
        assert Tid(3) == Tid(3)
        assert Tid(3) != Tid(4)
        assert len({Tid(3), Tid(3), Tid(4)}) == 2

    def test_ordering_follows_value(self):
        assert Tid(1) < Tid(2) < Tid(10)

    def test_repr_marks_null(self):
        assert "null" in repr(NULL_TID)
        assert "7" in repr(Tid(7))

    def test_paper_style_null_check(self):
        # if ((t = initiate(f)) != NULL) translates to `if t:`
        t = NULL_TID
        assert (t or "failed") == "failed"


class TestObjectId:
    def test_name_is_cosmetic(self):
        assert ObjectId(5, name="a") == ObjectId(5, name="b")
        assert hash(ObjectId(5, name="a")) == hash(ObjectId(5, name="b"))

    def test_name_shows_in_repr(self):
        assert "acct" in repr(ObjectId(1, name="acct"))

    def test_ordering(self):
        assert ObjectId(1) < ObjectId(2)


class TestLsn:
    def test_total_order(self):
        assert Lsn(0) < Lsn(1) < Lsn(100)

    def test_equality(self):
        assert Lsn(4) == Lsn(4)


class TestGenerators:
    def test_tid_generator_starts_at_one(self):
        gen = tid_generator()
        assert gen.next() == Tid(1)
        assert gen.next() == Tid(2)

    def test_lsn_generator_monotone(self):
        gen = lsn_generator()
        values = [gen.next() for __ in range(5)]
        assert values == sorted(values)
        assert values[0] == Lsn(1)

    def test_custom_start(self):
        gen = IdGenerator(Tid, start=100)
        assert gen.next() == Tid(100)

    def test_generators_are_independent(self):
        first, second = tid_generator(), tid_generator()
        first.next()
        first.next()
        assert second.next() == Tid(1)


class TestIdsAreInts:
    @pytest.mark.parametrize("kind", KINDS)
    def test_hash_equality_and_order_are_the_numbers(self, kind):
        for n in (0, 1, 7, 2**40):
            assert hash(kind(n)) == hash(n)
            assert kind(n) == n and isinstance(kind(n), int)
        assert sorted([kind(3), kind(1), kind(2)]) == [1, 2, 3]

    def test_the_null_tid_is_zero_and_falsy(self):
        assert NULL_TID == 0 and not NULL_TID and Tid(0) is not NULL_TID
        assert not Tid(0) and Tid(1)

    def test_repr_is_unchanged(self):
        assert repr(NULL_TID) == "Tid(null)"
        assert repr(Tid(7)) == "Tid(7)" == str(Tid(7)) == f"{Tid(7)}"
        assert repr(ObjectId(5)) == "ObjectId(5)"
        assert repr(ObjectId(1, name="acct")) == "ObjectId(1:acct)"
        assert repr(Lsn(4)) == "Lsn(4)"
        assert repr(ObjectId(2, name="acct") + 1) == "3"  # arithmetic is int

    def test_only_a_named_object_id_carries_a_dictionary(self):
        assert not hasattr(Tid(1), "__dict__")
        assert not hasattr(Lsn(1), "__dict__")
        assert ObjectId(1).name == "" and vars(ObjectId(1)) == {}
        assert vars(ObjectId(1, name="acct")) == {"name": "acct"}

    def test_value_is_the_plain_number(self):
        for kind in KINDS:
            assert type(kind(6).value) is int and kind(6).value == 6

    def test_the_stated_risk_ids_of_different_kinds_are_equal(self):
        """``Tid(3) == ObjectId(3)``: one table must never key two kinds
        of id, or a transaction and an object collide."""
        assert Tid(3) == ObjectId(3) == Lsn(3)
        assert {Tid(3): "tid"}[ObjectId(3)] == "tid"

    def test_ids_pack_as_their_numbers(self):
        for kind in KINDS:
            assert struct.pack("<Q", kind(9)) == struct.pack("<Q", 9)

    def test_the_codec_writes_the_parents_bytes(self):
        records = {
            "0b07000000000000000300000000000000090000000000000001000000620100"
            "000061": UpdateRecord(
                lsn=Lsn(7), tid=Tid(3), oid=ObjectId(9), before=b"b",
                after=b"a",
            ),
            "050800000000000000030000000000000004000000000000000200000009000000"
            "000000000a00000000000000": DelegateRecord(
                lsn=Lsn(8), tid=Tid(3), delegatee=Tid(4),
                oids=(ObjectId(9), ObjectId(10)),
            ),
            "0309000000000000000400000000000000010000000500000000000000": (
                CommitRecord(lsn=Lsn(9), tid=Tid(4), group=(Tid(5),))
            ),
        }
        for raw, record in records.items():
            assert encode_record(record).hex() == raw
            decoded = decode_record(bytes.fromhex(raw))
            assert decoded == record and repr(decoded) == repr(record)
            assert type(decoded.lsn) is Lsn and type(decoded.tid) is Tid


class TestNothingInTheProductReadsValue:
    def test_a_cluster_a_restart_and_the_spans_never_ask(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.value read")

        for kind in KINDS:
            monkeypatch.setattr(kind, "value", property(refuse))
        cluster = Cluster()
        install_observability(cluster=cluster)
        commit_groups(cluster, 2)
        cluster.crash_site("alpha")
        cluster.restart_site("alpha")
        assert cluster.converge()
        rt = CooperativeRuntime()
        kit = install_observability(manager=rt.manager)
        oids = make_counters(rt, 2)
        for index in range(6):
            assert rt.run(incrementer(oids[index % 2])).committed
        assert kit.spans.export()
        storage = rt.manager.storage
        storage.checkpoint()
        assert rt.run(incrementer(oids[0])).committed
        storage.crash()
        assert storage.recover().winners
