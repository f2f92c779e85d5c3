"""Threaded stress: consistency holds under real thread interleavings.

These are smaller-scale (threads are slow) but non-deterministic: every
run explores a different interleaving, and the invariants must hold in
all of them.
"""

import pytest

from repro.common.codec import decode_int, encode_int
from repro.core.dependency import DependencyType
from repro.runtime.threaded import ThreadedRuntime


@pytest.fixture
def rt():
    runtime = ThreadedRuntime(watchdog_interval=0.01, poll_timeout=0.002)
    yield runtime
    runtime.close()


def make_counters(runtime, count, initial=0):
    def setup(tx):
        oids = []
        for index in range(count):
            oids.append(
                (yield tx.create(encode_int(initial), name=f"s{index}"))
            )
        return oids

    result = runtime.run(setup)
    assert result.committed
    return result.value


def read_all(runtime, oids):
    def body(tx):
        values = []
        for oid in oids:
            values.append(decode_int((yield tx.read(oid))))
        return values

    result = runtime.run(body)
    assert result.committed
    return result.value


@pytest.mark.parametrize("round_number", range(3))
class TestThreadedStress:
    def test_transfer_storm_conserves_money(self, rt, round_number):
        oids = make_counters(rt, 3, initial=100)

        def mover(src, dst):
            def body(tx):
                a = decode_int((yield tx.read(src)))
                yield tx.write(src, encode_int(a - 5))
                b = decode_int((yield tx.read(dst)))
                yield tx.write(dst, encode_int(b + 5))

            return body

        tids = []
        for index in range(9):
            tid = rt.initiate(mover(oids[index % 3], oids[(index + 1) % 3]))
            tids.append(tid)
            rt.begin(tid)
        rt.commit_all(tids)
        assert sum(read_all(rt, oids)) == 300
        assert rt.manager.lock_manager.check_invariants() == []

    def test_group_atomicity_under_threads(self, rt, round_number):
        oids = make_counters(rt, 2)

        def bump(oid, fail):
            def body(tx):
                value = decode_int((yield tx.read(oid)))
                yield tx.write(oid, encode_int(value + 1))
                if fail:
                    yield tx.abort()

            return body

        fail = round_number % 2 == 0
        first = rt.initiate(bump(oids[0], False))
        second = rt.initiate(bump(oids[1], fail))
        rt.manager.form_dependency(DependencyType.GC, first, second)
        rt.begin(first)
        rt.begin(second)
        outcomes = rt.commit_all([first, second])
        values = read_all(rt, oids)
        if fail:
            assert list(outcomes.values()) == [0, 0]
            assert values == [0, 0]
        else:
            assert list(outcomes.values()) == [1, 1]
            assert values == [1, 1]
