"""Tests for the IVY sequentially-consistent DSM baseline."""

import numpy as np
import pytest

from repro.apps import base
from repro.apps.barnes_hut import BhParams
from repro.apps.ep import EpParams
from repro.apps.fft3d import FftParams
from repro.apps.ilink import IlinkParams
from repro.apps.qsort import QsortParams
from repro.apps.sor import SorParams
from repro.apps.tsp import TspParams
from repro.apps.water import WaterParams
from repro.ivy.api import attach_ivy
from repro.sim.cluster import Cluster
from tests.ivy.directory_cases import DirectoryProtocolCases, verified_run


def ivy_run(fn, nprocs=4):
    cluster = Cluster(nprocs)
    attach_ivy(cluster)
    return cluster.run(fn), cluster


class TestProtocolBasics(DirectoryProtocolCases):
    def run(self, fn, nprocs):
        res, cluster = ivy_run(fn, nprocs=nprocs)
        return res.results, cluster.procs

    def test_whole_pages_move(self):
        """IVY ships 4-KB pages where TreadMarks ships word diffs."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            if tmk.pid == 0:
                yield from data.set(0, 1)   # a single word changes...
            yield from tmk.barrier(0)
            if tmk.pid == 1:
                yield from data.get(0)      # ...but the reader pays a full page
            yield from tmk.barrier(1)

        _, cluster = ivy_run(main, nprocs=2)
        page_bytes = cluster.stats.get("ivy", "ivy_page").bytes
        assert page_bytes >= 4096

    def test_write_upgrade_in_place_ships_no_data(self):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            if tmk.pid == 0:
                yield from data.set(0, 1)           # P0 owns the page (WRITE)
                yield from tmk.barrier(0)
                return None
            yield from tmk.barrier(0)
            return None

        # Single processor: the manager upgrades its own page locally.
        res, cluster = ivy_run(main, nprocs=1)
        assert cluster.stats.total("ivy").messages == 0

    def test_false_sharing_ping_pong(self):
        """Two processors writing disjoint halves of one page: every
        write faults and moves the whole page -- the cost the
        multiple-writer protocol eliminates."""
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            half = slice(0, 256) if tmk.pid == 0 else slice(256, 512)
            for it in range(5):
                yield from data.add(half, 1)
                yield from tmk.barrier(it)
            return int(np.asarray((yield from data.read(slice(0, 512)))).sum())

        res, cluster = ivy_run(main, nprocs=2)
        assert all(r == 512 * 5 for r in res.results)
        transfers = sum(p.tmk.core.pages_sent for p in cluster.procs)
        assert transfers >= 5  # the page bounces round after round


class TestApplications:
    """The data-race-free applications run unmodified on IVY."""

    @pytest.mark.parametrize("name,params", [
        ("ep", EpParams.tiny()),
        ("sor", SorParams.tiny()),
        ("qsort", QsortParams.tiny()),
        ("tsp", TspParams.tiny()),
        ("water", WaterParams.tiny()),
        ("barnes_hut", BhParams.tiny()),
        ("fft3d", FftParams.tiny()),
        ("ilink", IlinkParams.tiny()),
    ])
    def test_apps_verify_on_ivy(self, name, params):
        for nprocs in (2, 5):
            verified_run(name, params, "ivy", nprocs)

    def test_fft_strided_writes_do_not_livelock(self):
        """The transpose's interlocking multi-page writes are served page
        piece by page piece (momentary ownership per store)."""
        verified_run("fft3d", FftParams.tiny(), "ivy", 8)


class TestConsistencyModelDifference:
    """The semantic gap the paper's programs sit on: TreadMarks programs
    may read shared data after a barrier while a faster processor has
    already started the next interval's writes.  Under lazy RC the read
    legally returns the pre-acquire values (faults fetch only *noticed*
    intervals); under sequential consistency it observes the newer write.
    """

    @staticmethod
    def _racy_program(proc):
        tmk = proc.tmk
        data = tmk.shared_array("d", (512,), np.int64)
        if tmk.pid == 0:
            yield from tmk.lock_acquire(0)
            yield from data.write(slice(0, 512), 1)
            yield from tmk.lock_release(0)
        yield from tmk.barrier(0)
        if tmk.pid == 0:
            # Race ahead into the "next iteration" and overwrite.
            yield from tmk.lock_acquire(0)
            yield from data.write(slice(0, 512), 2)
            yield from tmk.lock_release(0)
            yield from tmk.barrier(1)
            return None
        # The slow processor reads "iteration 0's" value after barrier 0,
        # with no synchronization ordering it before P0's second write.
        proc.compute(0.05)
        value = int((yield from data.get(0)))
        yield from tmk.barrier(1)
        return value

    def test_lazy_rc_reads_pre_acquire_value(self):
        from repro.tmk.api import attach_tmk
        cluster = Cluster(2)
        attach_tmk(cluster)
        res = cluster.run(self._racy_program)
        # LRC: P1 only has notices for the interval before barrier 0.
        assert res.results[1] == 1

    def test_sequential_consistency_observes_newer_write(self):
        res, _ = ivy_run(self._racy_program, nprocs=2)
        # SC: P0's second write invalidated P1's copy; the read fetches
        # the current (newer) value.
        assert res.results[1] == 2


class TestCostComparison:
    def test_ivy_moves_more_data_than_tmk_under_false_sharing(self):
        """Water-288's chunk-boundary pages: TreadMarks merges diffs,
        IVY ping-pongs whole pages."""
        p = WaterParams.tiny()
        tmk = base.run_parallel("water", "tmk", 8, p)
        ivy = base.run_parallel("water", "ivy", 8, p)
        assert ivy.total_kbytes() > tmk.total_kbytes()
