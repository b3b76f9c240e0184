"""End-to-end release-consistency semantics.

These tests express the LRC contract itself -- what a data-race-free
program may rely on -- rather than individual protocol mechanisms:
happens-before visibility through arbitrary lock/barrier chains, and a
randomized (hypothesis-driven) data-race-free program generator whose
TreadMarks execution must match a sequentially-consistent interpretation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster
from repro.tmk.api import attach_tmk


class TestHappensBeforeChains:
    def test_transitive_visibility_through_lock_chain(self, tmk_run):
        """P0 writes, releases L0; P1 acquires L0 (sees it), writes,
        releases L1; P2 acquires L1 and must see BOTH writes, though it
        never synchronized with P0 directly."""
        def main(proc):
            tmk = proc.tmk
            a = tmk.shared_array("a", (64,), np.int64)
            b = tmk.shared_array("b", (64,), np.int64)
            if tmk.pid == 0:
                yield from tmk.lock_acquire(0)
                yield from a.write(slice(0, 64), 11)
                yield from tmk.lock_release(0)
                yield from tmk.barrier(9)
                return None
            if tmk.pid == 1:
                # Poll until P0's value is visible under the lock.
                while True:
                    yield from tmk.lock_acquire(0)
                    seen = int((yield from a.get(0)))
                    yield from tmk.lock_release(0)
                    if seen == 11:
                        break
                    proc.compute(1e-3)
                yield from tmk.lock_acquire(1)
                yield from b.write(slice(0, 64), 22)
                yield from tmk.lock_release(1)
                yield from tmk.barrier(9)
                return None
            # P2: wait for P1's release through lock 1.
            while True:
                yield from tmk.lock_acquire(1)
                seen_b = int((yield from b.get(0)))
                yield from tmk.lock_release(1)
                if seen_b == 22:
                    break
                proc.compute(1e-3)
            value_a = int((yield from a.get(0)))  # transitively guaranteed
            yield from tmk.barrier(9)
            return value_a

        res = tmk_run(main, nprocs=3)
        assert res.results[2] == 11

    def test_barrier_is_release_plus_acquire(self, tmk_run):
        """Every processor's pre-barrier writes are visible to every other
        processor after the barrier -- including pairwise combinations."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (8, 64), np.int64)
            yield from data.write((slice(tmk.pid, tmk.pid + 1), slice(None)), tmk.pid + 100)
            yield from tmk.barrier(0)
            column = yield from data.read((slice(None), 0))
            return [int(v) for v in column]

        res = tmk_run(main, nprocs=8)
        for row in res.results:
            assert row == [p + 100 for p in range(8)]


# ----------------------------------------------------------------------
# Randomized data-race-free programs.
#
# A program is a sequence of rounds.  In each round every processor is
# assigned a disjoint slice of a shared array and adds a known value to
# it; rounds are separated by barriers.  Some rounds instead funnel all
# updates through a lock (migratory pattern).  Any such program is
# data-race-free, so TreadMarks must produce exactly the sequentially
# computed result.
# ----------------------------------------------------------------------
@st.composite
def drf_program(draw):
    nprocs = draw(st.integers(2, 5))
    rounds = draw(st.lists(
        st.tuples(
            st.booleans(),                     # True: locked round
            st.integers(1, 9),                 # value added
            st.permutations(list(range(5)))),  # slice assignment seed
        min_size=1, max_size=5))
    return nprocs, rounds


@settings(max_examples=25, deadline=None)
@given(drf_program())
def test_drf_programs_match_sequential_interpretation(program):
    nprocs, rounds = program
    cells = 640  # 5 slices x 128 int64 = 1.25 pages: false sharing included

    def main(proc):
        tmk = proc.tmk
        data = tmk.shared_array("d", (cells,), np.int64)
        for rnd, (locked, value, perm) in enumerate(rounds):
            if locked:
                yield from tmk.lock_acquire(0)
                yield from data.add(slice(0, cells), value)
                yield from tmk.lock_release(0)
            else:
                part = perm[proc.pid % 5]
                lo = part * 128
                yield from data.add(slice(lo, lo + 128), value)
            yield from tmk.barrier(rnd)
        return np.asarray((yield from data.read(slice(0, cells)))).copy()

    cluster = Cluster(nprocs)
    attach_tmk(cluster)
    res = cluster.run(main)

    # Sequential interpretation.
    expected = np.zeros(cells, dtype=np.int64)
    for locked, value, perm in rounds:
        if locked:
            expected += value * nprocs
        else:
            for pid in range(nprocs):
                part = perm[pid % 5]
                expected[part * 128: part * 128 + 128] += value

    for got in res.results:
        assert np.array_equal(got, expected)
