"""Tests for the protocol extensions beyond the paper's TreadMarks.

* **piggyback_budget** -- the paper's own future-work proposal: "data
  movement can be piggybacked on the synchronization messages".
* **protocol="eager"** -- Munin-style eager release consistency, the
  design lazy RC superseded; its extra messages are the reason.
* **gc_every** -- diff/interval garbage collection (real TreadMarks
  collects when memory runs low; this version never needs to for the
  bench sizes, so it is opt-in).
"""

import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.tmk.api import TmkConfig, attach_tmk


def run(fn, nprocs=4, **config):
    cluster = Cluster(nprocs)
    attach_tmk(cluster, TmkConfig(**config))
    return cluster.run(fn), cluster


def migratory_counter(rounds=4):
    def main(proc):
        tmk = proc.tmk
        data = tmk.shared_array("d", (512,), np.int64)
        for it in range(rounds):
            yield from tmk.lock_acquire(0)
            yield from data.add(slice(0, 512), 1)
            yield from tmk.lock_release(0)
            yield from tmk.barrier(it)
        return int((yield from data.get(0)))
    return main


class TestConfigValidation:
    def test_bad_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            TmkConfig(protocol="optimistic")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            TmkConfig(piggyback_budget=-1)

    def test_negative_gc_rejected(self):
        with pytest.raises(ValueError):
            TmkConfig(gc_every=-2)


class TestPiggyback:
    def test_results_unchanged(self):
        res, _ = run(migratory_counter(), piggyback_budget=1 << 16)
        assert all(r == 16 for r in res.results)

    def test_fault_round_trips_saved(self):
        plain, cluster_plain = run(migratory_counter())
        boosted, cluster_boosted = run(migratory_counter(),
                                       piggyback_budget=1 << 16)
        reqs_plain = cluster_plain.stats.get("tmk", "diff_request").messages
        reqs_boosted = cluster_boosted.stats.get(
            "tmk", "diff_request").messages
        assert reqs_boosted < reqs_plain
        hits = sum(p.tmk.core.piggyback_hits for p in cluster_boosted.procs)
        assert hits > 0

    def test_budget_zero_is_off(self):
        _, cluster = run(migratory_counter(), piggyback_budget=0)
        assert all(p.tmk.core.piggyback_hits == 0 for p in cluster.procs)

    def test_tiny_budget_skips_large_diffs(self):
        """A budget smaller than one diff cannot piggyback anything."""
        _, cluster = run(migratory_counter(), piggyback_budget=64)
        assert all(p.tmk.core.piggyback_hits == 0 for p in cluster.procs)

    def test_partial_coverage_falls_back_to_fault(self):
        """A page whose pending set predates the granter's knowledge must
        still fault; piggybacking may never skip needed diffs."""
        def main(proc):
            tmk = proc.tmk
            a = tmk.shared_array("a", (512,), np.int64)
            b = tmk.shared_array("b", (512,), np.int64)
            if tmk.pid == 0:
                yield from a.write(slice(0, 512), 7)       # via barrier notices
            yield from tmk.barrier(0)
            if tmk.pid == 1:
                yield from tmk.lock_acquire(0)
                yield from b.write(slice(0, 512), 9)
                yield from tmk.lock_release(0)
            yield from tmk.barrier(1)
            if tmk.pid == 2:
                yield from tmk.lock_acquire(0)        # grant piggybacks b's diff
                value = int((yield from a.get(0))) + int((yield from b.get(0)))  # a still faults
                yield from tmk.lock_release(0)
                yield from tmk.barrier(2)
                return value
            yield from tmk.barrier(2)
            return None

        res, _ = run(main, nprocs=3, piggyback_budget=1 << 16)
        assert res.results[2] == 16


class TestEagerRC:
    def test_results_unchanged(self):
        res, _ = run(migratory_counter(), protocol="eager")
        assert all(r == 16 for r in res.results)

    def test_eager_sends_more_messages(self):
        """Why TreadMarks is lazy: releases broadcast notices to
        everyone, whether or not they will ever acquire."""
        _, lazy = run(migratory_counter())
        _, eager = run(migratory_counter(), protocol="eager")
        assert (eager.stats.total("tmk").messages
                > lazy.stats.total("tmk").messages)
        assert eager.stats.get("tmk", "erc_notice").messages > 0
        assert lazy.stats.get("tmk", "erc_notice").messages == 0

    def test_eager_invalidation_mid_interval_preserves_writes(self):
        """An eager notice may invalidate a page another processor is
        writing; the twin keeps the local modifications alive."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            if tmk.pid == 0:
                # Write the left half, release eagerly.
                yield from tmk.lock_acquire(0)
                yield from data.write(slice(0, 256), 1)
                yield from tmk.lock_release(0)
            else:
                # Concurrently write the right half of the SAME page; the
                # eager notice lands mid-interval.
                yield from data.write(slice(256, 512), 2)
                proc.compute(0.01)
            yield from tmk.barrier(0)
            return int(np.asarray((yield from data.read(slice(0, 512)))).sum())

        res, _ = run(main, nprocs=2, protocol="eager")
        assert all(r == 256 * 1 + 256 * 2 for r in res.results)

    def test_random_programs_still_drf_correct(self):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (640,), np.int64)
            for rnd in range(4):
                lo = ((proc.pid + rnd) % 5) * 128
                yield from data.add(slice(lo, lo + 128), rnd + 1)
                yield from tmk.barrier(rnd)
            return np.asarray((yield from data.read(slice(0, 640)))).copy()

        res, _ = run(main, nprocs=5, protocol="eager")
        expected = np.zeros(640, dtype=np.int64)
        for rnd in range(4):
            for pid in range(5):
                lo = ((pid + rnd) % 5) * 128
                expected[lo: lo + 128] += rnd + 1
        for got in res.results:
            assert np.array_equal(got, expected)


class TestGarbageCollection:
    def test_results_unchanged(self):
        res, _ = run(migratory_counter(rounds=8), gc_every=2)
        assert all(r == 32 for r in res.results)

    def test_cache_bounded(self):
        _, unbounded = run(migratory_counter(rounds=10))
        _, collected = run(migratory_counter(rounds=10), gc_every=2)
        size_unbounded = max(len(p.tmk.core.diff_cache)
                             for p in unbounded.procs)
        size_collected = max(len(p.tmk.core.diff_cache)
                             for p in collected.procs)
        assert size_collected < size_unbounded

    def test_gc_forces_validations(self):
        """Phase 1 faults in pages that would otherwise stay invalid."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (4096,), np.int64)  # 8 pages
            if tmk.pid == 0:
                yield from data.write(slice(0, 4096), 1)
            for it in range(4):
                yield from tmk.barrier(it)
            # Nobody ever reads data... except GC validated it.
            return tmk.core.pt.invalid_pages()

        res, cluster = run(main, nprocs=2, gc_every=2)
        assert res.results[1] == set()  # all validated by GC
        assert all(p.tmk.barriers.gc_runs > 0 for p in cluster.procs)

    def test_records_pruned(self):
        _, unbounded = run(migratory_counter(rounds=10))
        _, cluster = run(migratory_counter(rounds=10), gc_every=2)

        def known(c):
            return [sum(map(len, p.tmk.core.known)) for p in c.procs]

        # Pruned below full history, per node and in the shared index.
        assert max(known(unbounded)) == 10 * cluster.nprocs
        assert max(known(cluster)) < 10 * cluster.nprocs

        def indexed(c):
            return sum(len(seqs)
                       for by_creator in c.procs[0].tmk.system.notices._pages.values()
                       for seqs, _ in by_creator.values())

        assert indexed(cluster) < indexed(unbounded)

    def test_gc_interacts_with_eager(self):
        res, _ = run(migratory_counter(rounds=6), gc_every=2,
                     protocol="eager")
        assert all(r == 24 for r in res.results)
