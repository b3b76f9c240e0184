"""Protocol tests for the centralized TreadMarks barrier."""

import numpy as np
import pytest


class TestBarrierMessages:
    @pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
    def test_two_n_minus_one_messages_per_episode(self, tmk_run, nprocs):
        """"The number of messages sent in a barrier is 2*(n-1).""" """"""
        def main(proc):
            yield from proc.tmk.barrier(0)

        res = tmk_run(main, nprocs=nprocs)
        arrivals = res.stats.get("tmk", "barrier_arrival").messages
        departures = res.stats.get("tmk", "barrier_departure").messages
        assert arrivals == nprocs - 1
        assert departures == nprocs - 1

    def test_single_processor_barrier_free(self, tmk_run):
        def main(proc):
            for i in range(5):
                yield from proc.tmk.barrier(i)
            return proc.tmk.barriers.episodes_completed

        res = tmk_run(main, nprocs=1)
        assert res.results[0] == 5
        assert res.stats.total("tmk").messages == 0

    def test_many_episodes_same_id(self, tmk_run):
        """Barrier ids are reused across loop iterations."""
        def main(proc):
            for _ in range(10):
                yield from proc.tmk.barrier(7)
            return proc.tmk.barriers.episodes_completed

        res = tmk_run(main, nprocs=4)
        assert res.results == [10] * 4
        assert res.stats.get("tmk", "barrier_arrival").messages == 10 * 3


class TestBarrierSynchronization:
    def test_no_processor_departs_before_all_arrive(self, tmk_run):
        def main(proc):
            tmk = proc.tmk
            proc.compute(0.01 * (proc.pid + 1))
            t_before = proc.now
            yield from tmk.barrier(0)
            return t_before, proc.now

        res = tmk_run(main, nprocs=4)
        latest_arrival = max(before for before, _ in res.results)
        for _, after in res.results:
            assert after >= latest_arrival

    def test_writes_visible_after_barrier(self, tmk_run):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (8, 256), np.int64)
            yield from data.write((slice(tmk.pid, tmk.pid + 1), slice(None)), tmk.pid + 1)
            yield from tmk.barrier(0)
            return (yield from data.read((slice(None), slice(None)))).sum(axis=1).tolist()

        res = tmk_run(main, nprocs=8)
        expected = [(p + 1) * 256 for p in range(8)]
        for row_sums in res.results:
            assert row_sums == expected

    def test_sequentially_consistent_episodes(self, tmk_run):
        """A chain of barrier-separated increments is totally ordered."""
        def main(proc):
            tmk = proc.tmk
            cell = tmk.shared_array("c", (1,), np.int64)
            for step in range(6):
                if step % tmk.nprocs == tmk.pid:
                    yield from cell.set(0, int((yield from cell.get(0))) + 1)
                yield from tmk.barrier(step)
            return int((yield from cell.get(0)))

        res = tmk_run(main, nprocs=3)
        assert res.results == [6, 6, 6]

    def test_manager_last_vs_first_arrival(self, tmk_run):
        """The release path differs depending on whether the manager (P0)
        arrives before or after the clients; both must work."""
        def main_manager_late(proc):
            if proc.tmk.pid == 0:
                proc.compute(0.05)
            yield from proc.tmk.barrier(0)
            return proc.now

        def main_manager_early(proc):
            if proc.tmk.pid != 0:
                proc.compute(0.05)
            yield from proc.tmk.barrier(0)
            return proc.now

        for main in (main_manager_late, main_manager_early):
            res = tmk_run(main, nprocs=4)
            assert max(res.results) >= 0.05


class TestBarrierConsistencyPropagation:
    def test_third_party_visibility_through_manager(self, tmk_run):
        """P1's writes reach P2 via the manager's merged departure, even
        though P1 and P2 never exchange messages directly."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (64,), np.int64)
            if tmk.pid == 1:
                yield from data.write(slice(0, 64), 42)
            yield from tmk.barrier(0)
            if tmk.pid == 2:
                return int((yield from data.get(0)))
            return None

        res = tmk_run(main, nprocs=3)
        assert res.results[2] == 42

    def test_empty_intervals_carry_no_notices(self, tmk_run):
        """Barriers without intervening writes ship no write notices."""
        def main(proc):
            tmk = proc.tmk
            yield from tmk.barrier(0)
            before = proc.cluster.stats.get("tmk", "barrier_departure").bytes
            yield from tmk.barrier(1)
            after = proc.cluster.stats.get("tmk", "barrier_departure").bytes
            return after - before

        res = tmk_run(main, nprocs=4)
        cost = res.stats  # departures exist but carry only fixed payload
        # 3 departures of fixed size (sync + vector time), no notice bytes.
        fixed = 32 + 4 * 4
        assert res.results[0] <= 3 * (fixed + 40)  # incl. UDP headers
