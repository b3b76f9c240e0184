"""Protocol tests for TreadMarks locks.

The paper's lock protocol invariants:

* a statically assigned manager forwards requests to the last requester;
* a release sends no messages (unless a request is already queued -- and
  then the traffic belongs to that request);
* re-acquiring a lock this processor last held is free;
* the grant piggybacks exactly the write notices the acquirer lacks.
"""

import numpy as np
import pytest

from repro.sim.trace import Trace


def lock_traffic(stats):
    return sum(stats.get("tmk", c).messages for c in
               ("lock_request", "lock_forward", "lock_grant"))


class TestLocalFastPath:
    def test_manager_reacquire_is_free(self, tmk_run):
        def main(proc):
            tmk = proc.tmk
            lock = tmk.pid  # lock managed by (and owned by) this processor
            for _ in range(10):
                yield from tmk.lock_acquire(lock)
                yield from tmk.lock_release(lock)
            return tmk.locks.local_acquires

        res = tmk_run(main, nprocs=2)
        assert res.results == [10, 10]
        assert lock_traffic(res.stats) == 0

    def test_recursive_acquire_rejected(self, tmk_run):
        def main(proc):
            yield from proc.tmk.lock_acquire(0)
            yield from proc.tmk.lock_acquire(0)

        with pytest.raises(RuntimeError, match="recursive"):
            tmk_run(main)

    def test_release_unheld_rejected(self, tmk_run):
        def main(proc):
            yield from proc.tmk.lock_release(0)

        with pytest.raises(RuntimeError, match="unheld"):
            tmk_run(main)


class TestRemoteAcquire:
    def test_first_remote_acquire_costs_two_messages(self, tmk_run):
        """P1 asks the manager (P0) which grants directly: request +
        grant, no forward."""
        def main(proc):
            tmk = proc.tmk
            if tmk.pid == 1:
                yield from tmk.lock_acquire(0)  # managed by P0
                yield from tmk.lock_release(0)
            yield from tmk.barrier(0)

        res = tmk_run(main, nprocs=2)
        assert res.stats.get("tmk", "lock_request").messages == 1
        assert res.stats.get("tmk", "lock_forward").messages == 0
        assert res.stats.get("tmk", "lock_grant").messages == 1

    def test_third_party_acquire_adds_forward(self, tmk_run):
        """P1 holds the lock (chain end); P2's request is forwarded."""
        def main(proc):
            tmk = proc.tmk
            if tmk.pid == 1:
                yield from tmk.lock_acquire(0)
                yield from tmk.lock_release(0)
            yield from tmk.barrier(0)
            if tmk.pid == 2:
                yield from tmk.lock_acquire(0)
                yield from tmk.lock_release(0)
            yield from tmk.barrier(1)

        res = tmk_run(main, nprocs=3)
        assert res.stats.get("tmk", "lock_request").messages == 2
        assert res.stats.get("tmk", "lock_forward").messages == 1
        assert res.stats.get("tmk", "lock_grant").messages == 2

    def test_release_is_silent(self, tmk_run):
        """With nobody waiting, a release sends nothing."""
        trace = Trace()

        def main(proc):
            tmk = proc.tmk
            delta = None
            if tmk.pid == 1:
                yield from tmk.lock_acquire(0)
                before = lock_traffic(proc.cluster.stats)
                yield from tmk.lock_release(0)
                after = lock_traffic(proc.cluster.stats)
                delta = after - before
            yield from tmk.barrier(0)
            return delta

        res = tmk_run(main, nprocs=2, trace=trace)
        assert res.results[1] == 0

    def test_mutual_exclusion_under_contention(self, tmk_run):
        def main(proc):
            tmk = proc.tmk
            counter = tmk.shared_array("c", (1,), np.int64)
            for _ in range(5):
                yield from tmk.lock_acquire(3)
                yield from counter.set(0, int((yield from counter.get(0))) + 1)
                yield from tmk.lock_release(3)
            yield from tmk.barrier(0)
            return int((yield from counter.get(0)))

        res = tmk_run(main, nprocs=4)
        assert res.results[0] == 20  # no lost updates

    def test_waiter_chain_under_heavy_contention(self, tmk_run):
        """Forwarded requests may land on processors still waiting."""
        def main(proc):
            tmk = proc.tmk
            order = tmk.shared_array("order", (64,), np.int32)
            slot = tmk.shared_array("slot", (1,), np.int32)
            for _ in range(4):
                yield from tmk.lock_acquire(1)
                i = int((yield from slot.get(0)))
                yield from order.set(i, tmk.pid + 1)
                yield from slot.set(0, i + 1)
                yield from tmk.lock_release(1)
            yield from tmk.barrier(0)
            return (yield from order.read(slice(0, 32))).tolist()

        res = tmk_run(main, nprocs=8)
        values = res.results[0]
        # All 32 critical sections happened, 4 per processor.
        assert sorted(values) == sorted([p + 1 for p in range(8)] * 4)


class TestNoticePiggybacking:
    def test_grant_carries_unseen_write_notices(self, tmk_run):
        """Data written before a release is invalidated at the acquirer."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (1024,), np.int64)
            if tmk.pid == 0:
                yield from tmk.lock_acquire(0)
                yield from data.write(slice(0, 1024), 7)
                yield from tmk.lock_release(0)
                yield from tmk.barrier(0)
                return None
            yield from tmk.barrier(0)
            yield from tmk.lock_acquire(0)
            value = int((yield from data.get(5)))
            yield from tmk.lock_release(0)
            return value

        res = tmk_run(main, nprocs=2)
        assert res.results[1] == 7

    def test_notices_not_resent_to_processors_that_saw_them(self, tmk_run):
        """Repeated acquisitions with no new writes move no diff data."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            if tmk.pid == 0:
                yield from data.write(slice(0, 512), 1)
            yield from tmk.barrier(0)
            yield from data.read()  # fault once
            yield from tmk.barrier(1)
            before = proc.cluster.stats.get("tmk", "diff_request").messages
            yield from tmk.lock_acquire(2)
            yield from data.read()
            yield from tmk.lock_release(2)
            yield from tmk.barrier(2)
            after = proc.cluster.stats.get("tmk", "diff_request").messages
            return after - before

        res = tmk_run(main, nprocs=2)
        # No new writes since the first fault: no further diff requests.
        assert res.results == [0, 0]
