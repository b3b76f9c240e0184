"""Protocol tests for the lazy-release-consistency core.

These exercise the mechanisms the paper's analysis is built on:
invalidate-on-acquire, demand diff fetching, the multiple-writer merge,
diff accumulation for migratory data, false sharing, and the laziness of
consistency (stale reads are legal until the next acquire).
"""

import numpy as np

from repro.tmk.api import TmkConfig


class TestInvalidateProtocol:
    def test_fault_fetches_diffs_on_demand(self, tmk_run):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (2048,), np.int64)  # 4 pages
            if tmk.pid == 0:
                yield from data.write(slice(0, 2048), 5)
            yield from tmk.barrier(0)
            if tmk.pid == 1:
                before = tmk.fault_count
                yield from data.read(slice(0, 512))   # one page
                one_page = tmk.fault_count - before
                yield from data.read(slice(0, 2048))  # the remaining three
                total = tmk.fault_count - before
                return one_page, total
            return None

        res = tmk_run(main, nprocs=2)
        assert res.results[1] == (1, 4)

    def test_unread_pages_never_fetched(self, tmk_run):
        """Data moves only on demand: pages nobody reads move nowhere."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (8192,), np.int64)  # 16 pages
            if tmk.pid == 0:
                yield from data.write(slice(0, 8192), 1)
            yield from tmk.barrier(0)
            yield from tmk.barrier(1)
            return None

        res = tmk_run(main, nprocs=2)
        assert res.stats.get("tmk", "diff_request").messages == 0

    def test_stale_read_before_acquire_is_legal(self, tmk_run):
        """Release consistency: without synchronization, a processor may
        keep reading its old copy ("data is moved only in response to
        synchronization calls")."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (64,), np.int64)
            flag = tmk.shared_array("f", (1,), np.int64)
            if tmk.pid == 0:
                yield from data.write(slice(0, 64), 1)
                yield from tmk.barrier(0)
                # Write again WITHOUT any synchronization afterwards.
                yield from tmk.lock_acquire(0)
                yield from data.write(slice(0, 64), 2)
                yield from tmk.lock_release(0)
                yield from tmk.barrier(1)
                return None
            yield from tmk.barrier(0)
            first = int((yield from data.get(0)))   # sees the barrier-published value
            yield from tmk.barrier(1)
            # P0's locked write happened before barrier 1, so it is now
            # visible; but between barrier 0 and 1 the old value was legal.
            second = int((yield from data.get(0)))
            return first, second

        res = tmk_run(main, nprocs=2)
        assert res.results[1] == (1, 2)


class TestMultipleWriter:
    def test_concurrent_writers_to_one_page_merge(self, tmk_run):
        """The multiple-writer protocol: disjoint parts of one page
        written concurrently merge at the next synchronization."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)  # exactly 1 page
            lo = tmk.pid * 128
            yield from data.write(slice(lo, lo + 128), tmk.pid + 1)
            yield from tmk.barrier(0)
            return (yield from data.read(slice(0, 512))).sum()

        res = tmk_run(main, nprocs=4)
        expected = sum((p + 1) * 128 for p in range(4))
        assert all(r == expected for r in res.results)

    def test_false_sharing_requests_every_writer(self, tmk_run):
        """Reading a page with k concurrent writers costs k diff
        request/response pairs (the paper's false-sharing cost)."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)  # 1 page
            if tmk.pid < 3:
                yield from data.write(slice(tmk.pid * 64, tmk.pid * 64 + 64), 1)
            yield from tmk.barrier(0)
            if tmk.pid == 3:
                before = proc.cluster.stats.get("tmk", "diff_request").messages
                yield from data.read(slice(0, 512))
                return proc.cluster.stats.get(
                    "tmk", "diff_request").messages - before
            return None

        res = tmk_run(main, nprocs=4)
        assert res.results[3] == 3

    def test_chained_writers_collapse_to_one_request(self, tmk_run):
        """If the writers are ordered by locks, the last one holds all
        preceding diffs and a single request suffices."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            for turn in range(3):
                yield from tmk.lock_acquire(1)
                if tmk.pid == turn:
                    yield from data.write(slice(turn * 64, turn * 64 + 64), turn + 1)
                yield from tmk.lock_release(1)
                yield from tmk.barrier(turn)
            if tmk.pid == 3:
                before = proc.cluster.stats.get("tmk", "diff_request").messages
                yield from data.read(slice(0, 512))
                return proc.cluster.stats.get(
                    "tmk", "diff_request").messages - before
            return None

        res = tmk_run(main, nprocs=4)
        assert res.results[3] == 1


class TestDiffAccumulation:
    def _migratory(self, tmk_run, nprocs, coalesce):
        """Each processor overwrites a 1-page array under a lock, the IS
        pattern; returns total diff-response bytes."""
        config = TmkConfig(coalesce_diffs=coalesce)

        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            yield from tmk.barrier(0)
            yield from tmk.lock_acquire(0)
            yield from data.write(slice(0, 512), tmk.pid + 1)
            yield from tmk.lock_release(0)
            yield from tmk.barrier(1)
            return None

        res = tmk_run(main, nprocs=nprocs, config=config)
        return res.stats.get("tmk", "diff_response").bytes

    def test_accumulated_diffs_grow_with_chain_length(self, tmk_run):
        """The k-th acquirer receives k-1 completely overlapping diffs."""
        b4 = self._migratory(tmk_run, 4, coalesce=False)
        b8 = self._migratory(tmk_run, 8, coalesce=False)
        # n(n-1)/2-ish growth: 8 procs >> 2x the 4-proc volume.
        assert b8 > 3 * b4

    def test_coalescing_removes_overlap(self, tmk_run):
        plain = self._migratory(tmk_run, 8, coalesce=False)
        merged = self._migratory(tmk_run, 8, coalesce=True)
        assert merged < 0.5 * plain

    def test_coalesced_result_still_correct(self, tmk_run):
        config = TmkConfig(coalesce_diffs=True)

        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            yield from tmk.lock_acquire(0)
            yield from data.add(slice(0, 512), 1)
            yield from tmk.lock_release(0)
            yield from tmk.barrier(0)
            return int((yield from data.get(0)))

        res = tmk_run(main, nprocs=8, config=config)
        assert all(r == 8 for r in res.results)


class TestEmptyDiffs:
    def test_rewriting_same_values_ships_empty_diffs(self, tmk_run):
        """The SOR-Zero effect: a write notice exists (the page was
        twinned) but the diff carries no data."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.float64)
            if tmk.pid == 0:
                yield from data.write(slice(0, 512), 0.0)  # writes zeros over zeros
            yield from tmk.barrier(0)
            if tmk.pid == 1:
                yield from data.read(slice(0, 512))
            yield from tmk.barrier(1)
            return None

        res = tmk_run(main, nprocs=2)
        # The request/response pair happened...
        assert res.stats.get("tmk", "diff_request").messages == 1
        # ...but the response carried only protocol framing (no runs).
        resp = res.stats.get("tmk", "diff_response")
        assert resp.bytes < 100


class TestDiagnostics:
    def test_fault_and_wait_counters(self, tmk_run):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            if tmk.pid == 0:
                yield from data.write(slice(0, 512), 1)
            yield from tmk.barrier(0)
            if tmk.pid == 1:
                yield from data.read(slice(0, 512))
            return (tmk.fault_count, tmk.barrier_wait_time,
                    tmk.lock_wait_time)

        res = tmk_run(main, nprocs=2)
        faults, bwait, lwait = res.results[1]
        assert faults == 1
        assert bwait >= 0.0
        assert lwait == 0.0
