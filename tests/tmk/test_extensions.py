"""Tests for the protocol extensions beyond the paper's TreadMarks.

* **piggyback_budget** -- the paper's own future-work proposal: "data
  movement can be piggybacked on the synchronization messages".
* **protocol="eager"** -- Munin-style eager release consistency, the
  design lazy RC superseded; its extra messages are the reason.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.tmk.api import TmkConfig, attach_tmk
from repro.tmk.pages import ADDRESS_SPACE


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

    # A NaN budget would mean "unlimited" (``spent + bytes > nan`` is
    # never true), and a truthy "no" would switch coalescing on; the
    # variants the paper does not have are not kinds.
    @pytest.mark.parametrize("kwargs, match", [
        (dict(piggyback_budget=float("nan")), "piggyback_budget"),
        (dict(piggyback_budget=float("inf")), "piggyback_budget"),
        (dict(piggyback_budget=1.5), "piggyback_budget"),
        (dict(piggyback_budget=True), "piggyback_budget"),
        (dict(coalesce_diffs="no"), "coalesce_diffs"),
        (dict(barrier_kind="dissemination"), "unknown barrier_kind"),
        (dict(segment_bytes=-5), "segment_bytes"),
        (dict(segment_bytes=0), "segment_bytes"),
        (dict(segment_bytes=float("nan")), "segment_bytes"),
        (dict(segment_bytes=True), "segment_bytes"),
        (dict(segment_bytes=1.5), "segment_bytes"),
        (dict(segment_bytes=ADDRESS_SPACE + 4096), "segment_bytes"),
    ], ids=["nan", "inf", "1.5", "True", "coalesce-str", "dissemination",
            "segment--5", "segment-0", "segment-nan", "segment-True",
            "segment-1.5", "segment-past-address-space"])
    def test_nonsense_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TmkConfig(**kwargs)

    @pytest.mark.parametrize("nodes", (8, 16, 32, 64, 128))
    def test_scaled_segments_accepted(self, nodes):
        # The e2e scale workload sizes SOR's segment to its two colour
        # arrays (rows = 4 * nodes, width 512) plus 64 KB.
        segment = 2 * (4 * nodes) * 512 * 8 + (1 << 16)
        assert TmkConfig(segment_bytes=segment).segment_bytes == segment
        assert TmkConfig(segment_bytes=ADDRESS_SPACE).segment_bytes \
            == ADDRESS_SPACE

    def test_fields(self):
        assert [f.name for f in fields(TmkConfig)] == [
            "segment_bytes", "coalesce_diffs", "piggyback_budget",
            "protocol", "barrier_kind"]


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
