"""The threaded runtime: same programs, real threads."""

import pytest

from repro.common.codec import decode_int, encode_int


def make_counters(runtime, count, initial=0):
    def setup(tx):
        oids = []
        for index in range(count):
            oid = yield tx.create(encode_int(initial), name=f"c{index}")
            oids.append(oid)
        return oids

    result = runtime.run(setup)
    assert result.committed
    return result.value


def read_counter(runtime, oid):
    def body(tx):
        return decode_int((yield tx.read(oid)))

    result = runtime.run(body)
    assert result.committed
    return result.value


def incrementer(oid, fail=False):
    def body(tx):
        value = decode_int((yield tx.read(oid)))
        yield tx.write(oid, encode_int(value + 1))
        if fail:
            yield tx.abort()
        return value + 1

    return body


class TestThreadedExecution:
    def test_run_round_trip(self, threaded_rt):
        [oid] = make_counters(threaded_rt, 1)
        result = threaded_rt.run(incrementer(oid))
        assert result.committed and result.value == 1
        assert read_counter(threaded_rt, oid) == 1

    def test_contended_increments_stay_consistent(self, threaded_rt):
        """Racing read-then-write incrementers may hit upgrade deadlocks
        (the watchdog aborts victims); whatever commits must be exactly
        what the counter shows."""
        [oid] = make_counters(threaded_rt, 1)
        tids = [
            threaded_rt.initiate(incrementer(oid)) for __ in range(8)
        ]
        for tid in tids:
            threaded_rt.begin(tid)
        outcomes = threaded_rt.commit_all(tids)
        commits = sum(outcomes.values())
        assert commits >= 1
        assert read_counter(threaded_rt, oid) == commits

    def test_abort_undoes(self, threaded_rt):
        [oid] = make_counters(threaded_rt, 1)
        assert not threaded_rt.run(incrementer(oid, fail=True)).committed
        assert read_counter(threaded_rt, oid) == 0

    def test_wait_primitive(self, threaded_rt):
        [oid] = make_counters(threaded_rt, 1)
        tid = threaded_rt.initiate(incrementer(oid))
        threaded_rt.begin(tid)
        assert threaded_rt.wait(tid) == 1
        assert threaded_rt.commit(tid) == 1

    def test_deadlock_watchdog_resolves(self, threaded_rt):
        oids = make_counters(threaded_rt, 2)

        def crosser(first, second):
            def body(tx):
                v = decode_int((yield tx.read(first)))
                yield tx.write(first, encode_int(v + 1))
                w = decode_int((yield tx.read(second)))
                yield tx.write(second, encode_int(w + 1))

            return body

        a = threaded_rt.initiate(crosser(oids[0], oids[1]))
        b = threaded_rt.initiate(crosser(oids[1], oids[0]))
        threaded_rt.begin(a)
        threaded_rt.begin(b)
        outcomes = threaded_rt.commit_all([a, b])
        commits = sum(outcomes.values())
        # Either the threads raced into a deadlock (watchdog aborted one)
        # or scheduling serialized them; both end consistent.
        assert commits in (1, 2)
        total = read_counter(threaded_rt, oids[0]) + read_counter(
            threaded_rt, oids[1]
        )
        assert total == 2 * commits

    def test_program_exception_aborts(self, threaded_rt):
        [oid] = make_counters(threaded_rt, 1)

        def body(tx):
            yield tx.write(oid, encode_int(9))
            raise RuntimeError("boom")

        tid = threaded_rt.initiate(body)
        threaded_rt.begin(tid)
        assert threaded_rt.commit(tid) == 0
        assert isinstance(threaded_rt.error_of(tid), RuntimeError)
        assert read_counter(threaded_rt, oid) == 0

    def test_group_commit_across_threads(self, threaded_rt):
        from repro.core.dependency import DependencyType

        oids = make_counters(threaded_rt, 2)
        first = threaded_rt.initiate(incrementer(oids[0]))
        second = threaded_rt.initiate(incrementer(oids[1]))
        threaded_rt.manager.form_dependency(
            DependencyType.GC, first, second
        )
        threaded_rt.begin(first)
        threaded_rt.begin(second)
        assert threaded_rt.commit(first) == 1
        assert threaded_rt.commit(second) == 1
        assert read_counter(threaded_rt, oids[0]) == 1
        assert read_counter(threaded_rt, oids[1]) == 1
