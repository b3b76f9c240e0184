"""Tests for PVM 3.3 group operations."""

import numpy as np
import pytest

from repro.pvm.api import attach_pvm
from repro.pvm.groups import GroupError, attach_groups
from repro.sim.cluster import Cluster


def group_run(fn, nprocs=4):
    cluster = Cluster(nprocs)
    attach_pvm(cluster)
    attach_groups(cluster)
    return cluster.run(fn), cluster


class TestMembership:
    def test_instances_assigned_in_join_order(self):
        def main(proc):
            g = proc.groups
            # Deterministic join order via staggered compute.
            proc.compute(0.001 * proc.pid)
            return (yield from g.joingroup("workers"))

        res, _ = group_run(main)
        assert sorted(res.results) == [0, 1, 2, 3]

    def test_rejoin_returns_same_instance(self):
        def main(proc):
            g = proc.groups
            first = yield from g.joingroup("g")
            second = yield from g.joingroup("g")
            return first == second

        res, _ = group_run(main, nprocs=2)
        assert all(res.results)

    def test_gsize_and_members(self):
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            yield from g.barrier("g", proc.cluster.nprocs)
            return (yield from g.gsize("g")), len((yield from g.members("g")))

        res, _ = group_run(main, nprocs=3)
        assert all(r == (3, 3) for r in res.results)

    def test_leave_shrinks_group(self):
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            yield from g.barrier("g", proc.cluster.nprocs)
            if proc.pid == 1:
                yield from g.lvgroup("g")
            proc.compute(0.01)
            if proc.pid == 0:
                proc.compute(0.01)
                return (yield from g.gsize("g"))
            return None

        res, _ = group_run(main, nprocs=3)
        assert res.results[0] == 2

    def test_getinst_requires_membership(self):
        def main(proc):
            with pytest.raises(GroupError):
                proc.groups.getinst("nothing")

        group_run(main, nprocs=1)


class TestGroupBarrier:
    def test_barrier_synchronizes(self):
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            proc.compute(0.01 * (proc.pid + 1))
            before = proc.now
            yield from g.barrier("g", proc.cluster.nprocs)
            return before, proc.now

        res, _ = group_run(main)
        latest = max(b for b, _ in res.results)
        assert all(after >= latest for _, after in res.results)

    def test_barrier_without_join_rejected(self):
        def main(proc):
            with pytest.raises(GroupError):
                yield from proc.groups.barrier("g", 1)

        group_run(main, nprocs=1)

    def test_repeated_barriers(self):
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            for _ in range(5):
                yield from g.barrier("g", proc.cluster.nprocs)
            return True

        res, _ = group_run(main)
        assert all(res.results)

    def test_barrier_messages_like_centralized_scheme(self):
        """2*(members-1) control messages per episode through the server
        (the same shape as TreadMarks' barrier)."""
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            yield from g.barrier("g", proc.cluster.nprocs)

        _, cluster = group_run(main, nprocs=4)
        requests = cluster.stats.get("pvm", "pvm_grp_request").messages
        replies = cluster.stats.get("pvm", "pvm_grp_reply").messages
        # join (3 remote) + barrier (3 remote) requests; replies likewise.
        assert requests == 6
        assert replies == 6


class TestCollectives:
    def test_reduce_sum(self):
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            yield from g.barrier("g", proc.cluster.nprocs)
            out = yield from g.reduce("g", np.full(8, proc.pid + 1), op="sum")
            yield from g.barrier("g", proc.cluster.nprocs)
            return None if out is None else out.tolist()

        res, _ = group_run(main)
        root_results = [r for r in res.results if r is not None]
        assert root_results == [[10.0] * 8]

    @pytest.mark.parametrize("op,expected", [
        ("min", 1.0), ("max", 4.0), ("prod", 24.0)])
    def test_reduce_ops(self, op, expected):
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            yield from g.barrier("g", proc.cluster.nprocs)
            out = yield from g.reduce("g", np.array([float(proc.pid + 1)]), op=op)
            yield from g.barrier("g", proc.cluster.nprocs)
            return None if out is None else float(out[0])

        res, _ = group_run(main)
        assert [r for r in res.results if r is not None] == [expected]

    def test_reduce_unknown_op(self):
        def main(proc):
            g = proc.groups
            yield from g.joingroup("g")
            with pytest.raises(GroupError):
                yield from g.reduce("g", np.zeros(1), op="median")

        group_run(main, nprocs=1)

    def test_gather_ordered_by_instance(self):
        def main(proc):
            g = proc.groups
            proc.compute(0.001 * proc.pid)  # join in pid order
            yield from g.joingroup("g")
            yield from g.barrier("g", proc.cluster.nprocs)
            parts = yield from g.gather("g", np.full(2, proc.pid))
            yield from g.barrier("g", proc.cluster.nprocs)
            if parts is None:
                return None
            return [int(p[0]) for p in parts]

        res, _ = group_run(main)
        assert [r for r in res.results if r is not None] == [[0, 1, 2, 3]]

    def test_bcast_reaches_all_members(self):
        def main(proc):
            g = proc.groups
            proc.compute(0.001 * proc.pid)
            yield from g.joingroup("g")
            yield from g.barrier("g", proc.cluster.nprocs)
            if proc.pid == 2:
                return (yield from g.bcast("g", np.arange(4))).tolist()
            return (yield from g.recv_bcast()).tolist()

        res, _ = group_run(main)
        assert all(r == [0, 1, 2, 3] for r in res.results)
