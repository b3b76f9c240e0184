"""Unit tests for the shared heap and SharedArray access detection."""

import numpy as np
import pytest

from repro.ivy.api import attach_ivy
from repro.scabd import ReplicationConfig, attach_scabd
from repro.sim.cluster import Cluster
from repro.tmk.api import attach_tmk
from repro.tmk.pages import ADDRESS_SPACE
from repro.tmk.sharedmem import DsmCore, DsmEndpoint, DsmSystem, SharedHeap


class TestSharedHeap:
    def test_page_aligned_by_default(self):
        heap = SharedHeap(1 << 20, 4096)
        a = heap.malloc(100)
        b = heap.malloc(100)
        assert a % 4096 == 0
        assert b % 4096 == 0
        assert b > a

    def test_custom_alignment_packs_allocations(self):
        heap = SharedHeap(1 << 20, 4096)
        a = heap.malloc(100, align=8)
        b = heap.malloc(100, align=8)
        assert b - a == 104  # rounded up to 8

    def test_exhaustion(self):
        heap = SharedHeap(8192, 4096)
        heap.malloc(8192)
        with pytest.raises(MemoryError):
            heap.malloc(1)

    def test_named_idempotent(self):
        heap = SharedHeap(1 << 20, 4096)
        a = heap.named("x", (10,), np.dtype(np.int32))
        b = heap.named("x", (10,), np.dtype(np.int32))
        assert a == b

    def test_named_shape_conflict(self):
        heap = SharedHeap(1 << 20, 4096)
        heap.named("x", (10,), np.dtype(np.int32))
        with pytest.raises(ValueError, match="redeclared"):
            heap.named("x", (11,), np.dtype(np.int32))

    def test_bad_alignment(self):
        heap = SharedHeap(1 << 20, 4096)
        with pytest.raises(ValueError):
            heap.malloc(8, align=0)


#: 8 MiB: an allocation past it must not need any sizing knob (fig11's
#: paper preset needs twice this).
EIGHT_MIB = 1 << 23


def attach(runtime, nclients=2):
    """A fresh cluster with ``runtime`` attached; its client endpoints."""
    if runtime == "tmk":
        return attach_tmk(Cluster(nclients))
    if runtime == "ivy":
        return attach_ivy(Cluster(nclients))
    return attach_scabd(Cluster(nclients + 3), ReplicationConfig(replicas=3))


def page_state_lengths(endpoint):
    """Length of every table the endpoint's core keeps per page."""
    core = endpoint.core
    lengths = {len(core.pt.valid), len(core.pt._views), core.pt.npages}
    if hasattr(core, "state"):  # IVY and SC-ABD
        lengths.add(len(core.state))
    return lengths


@pytest.mark.parametrize("runtime", ["tmk", "ivy", "scabd"])
class TestHeapSizesItself:
    """No runtime is told how big its heap is: per-page state follows the
    allocation watermark and the only bound is the address space."""

    def test_page_state_follows_the_watermark(self, runtime):
        endpoints = attach(runtime)
        heap = endpoints[0].system.heap
        assert all(page_state_lengths(ep) == {0} for ep in endpoints)
        endpoints[0].malloc(2 * EIGHT_MIB + 1)
        endpoints[1].malloc(100, align=8)
        pages = -(-heap.used // heap.page_size)
        assert pages == heap.pages == 2 * EIGHT_MIB // 4096 + 1
        assert all(page_state_lengths(ep) == {pages} for ep in endpoints)

    def test_data_past_eight_mib(self, runtime):
        n = EIGHT_MIB // 8 + 512  # ends a page past 8 MiB

        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("big", (n,), np.float64)
            if tmk.pid == 0:
                yield from arr.set(n - 1, 42.0)
            yield from tmk.barrier(0)
            return float((yield from arr.get(n - 1)))

        endpoints = attach(runtime)
        cluster = endpoints[0].system.cluster
        assert cluster.run(main).results[:2] == [42.0, 42.0]

    def test_malloc_past_the_bound_names_it(self, runtime):
        endpoints = attach(runtime)
        endpoints[0].malloc(4096)
        with pytest.raises(MemoryError) as exc:
            endpoints[1].malloc(ADDRESS_SPACE)
        assert str(exc.value) == (
            f"shared address space exhausted: need {ADDRESS_SPACE} bytes "
            f"at 4096, the bound is {ADDRESS_SPACE} bytes")
        assert all(page_state_lengths(ep) == {1} for ep in endpoints)


class TestSharedArrayAccess:
    def test_write_then_read_roundtrip(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("a", (100,), np.float64)
            yield from arr.write(slice(0, 100), np.arange(100.0))
            return float(np.sum((yield from arr.read())))

        res = tmk_run(main)
        assert res.results[0] == sum(range(100))

    def test_read_returns_readonly_view(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("a", (10,), np.int64)
            view = yield from arr.read()
            try:
                view[0] = 1
                return "writable"
            except ValueError:
                return "readonly"

        assert tmk_run(main).results[0] == "readonly"

    def test_element_get_set(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("a", (16,), np.int32)
            yield from arr.set(3, 99)
            return int((yield from arr.get(3)))

        assert tmk_run(main).results[0] == 99

    def test_add_is_read_modify_write(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("a", (4,), np.int64)
            yield from arr.write(slice(0, 4), [1, 2, 3, 4])
            yield from arr.add(slice(0, 4), 10)
            return (yield from arr.read()).tolist()

        assert tmk_run(main).results[0] == [11, 12, 13, 14]

    def test_2d_row_slices(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("m", (8, 16), np.float64)
            yield from arr.write((slice(2, 4), slice(None)), 5.0)
            return float((yield from arr.read((slice(None), slice(None)))).sum())

        assert tmk_run(main).results[0] == 5.0 * 2 * 16

    def test_fancy_index_write(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("m", (64, 3), np.float64)
            idx = np.array([3, 4, 10, 60])
            yield from arr.write((idx, slice(None)), 1.0)
            return float((yield from arr.read((slice(None), slice(None)))).sum())

        assert tmk_run(main).results[0] == 4 * 3

    def test_shared_between_processors(self, tmk_run):
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("shared", (2048,), np.int64)
            if tmk.pid == 0:
                yield from arr.write(slice(0, 2048), np.arange(2048))
            yield from tmk.barrier(0)
            return int((yield from arr.read(slice(1024, 2048))).sum())

        res = tmk_run(main, nprocs=3)
        expected = sum(range(1024, 2048))
        assert all(r == expected for r in res.results)


class TestTouchedRuns:
    """The page-touch computation drives fault/twin behaviour; verify the
    runs are exact for the access shapes the applications use."""

    def _runs(self, tmk_run, shape, dtype, key):
        def main(proc):
            arr = proc.tmk.shared_array("r", shape, dtype)
            return arr._touched_runs(arr._normalize(key)), arr.addr

        result = tmk_run(main).results[0]
        runs, addr = result
        return [(start - addr, nbytes) for start, nbytes in runs]

    def test_contiguous_slice_one_run(self, tmk_run):
        runs = self._runs(tmk_run, (1024,), np.float64, slice(10, 20))
        assert runs == [(80, 80)]

    def test_full_2d_is_one_run(self, tmk_run):
        runs = self._runs(tmk_run, (16, 16), np.float64,
                          (slice(None), slice(None)))
        assert runs == [(0, 16 * 16 * 8)]

    def test_row_range_is_one_run(self, tmk_run):
        runs = self._runs(tmk_run, (16, 16), np.float64,
                          (slice(2, 5), slice(None)))
        assert runs == [(2 * 128, 3 * 128)]

    def test_column_slice_one_run_per_row(self, tmk_run):
        runs = self._runs(tmk_run, (4, 16), np.float64,
                          (slice(None), slice(0, 2)))
        assert runs == [(i * 128, 16) for i in range(4)]

    def test_middle_axis_slice_3d(self, tmk_run):
        """The FFT transpose shape: B[:, ilo:ihi, :]."""
        runs = self._runs(tmk_run, (3, 8, 4), np.float64,
                          (slice(None), slice(2, 4), slice(None)))
        plane = 8 * 4 * 8
        assert runs == [(k * plane + 2 * 32, 2 * 32) for k in range(3)]

    def test_adjacent_inner_runs_merge(self, tmk_run):
        # Selecting all columns collapses the per-row runs into one.
        runs = self._runs(tmk_run, (4, 16), np.float64,
                          (slice(1, 3), slice(None)))
        assert len(runs) == 1

    def test_fancy_contiguous_groups(self, tmk_run):
        runs = self._runs(tmk_run, (100, 2), np.float64,
                          (np.array([1, 2, 3, 50, 51, 99]), slice(None)))
        assert runs == [(16, 48), (800, 32), (1584, 16)]

    def test_scalar_index_normalized(self, tmk_run):
        runs = self._runs(tmk_run, (100,), np.float64, 7)
        assert runs == [(56, 8)]

    def test_negative_index(self, tmk_run):
        runs = self._runs(tmk_run, (100,), np.float64, -1)
        assert runs == [(99 * 8, 8)]

    def test_empty_selection(self, tmk_run):
        runs = self._runs(tmk_run, (100,), np.float64, slice(5, 5))
        assert runs == []

    def test_strided_write_does_not_touch_other_pages(self, tmk_run):
        """The fix that brought 3-D FFT's traffic down: a middle-axis
        write must not twin pages belonging to other writers' slices."""
        def main(proc):
            # 4 "planes" of exactly one page each.
            arr = proc.tmk.shared_array("b", (4, 4096 // 8), np.float64)
            yield from arr.write((slice(None), slice(0, 8)), 1.0)
            return sorted(proc.tmk.core.pt.dirty_pages())

        dirty = tmk_run(main).results[0]
        assert dirty == [0, 1, 2, 3]  # one run per plane, 4 pages

    def test_single_page_write_twins_one_page(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("b", (4, 4096 // 8), np.float64)
            yield from arr.write((slice(1, 2), slice(None)), 1.0)
            return sorted(proc.tmk.core.pt.dirty_pages())

        assert tmk_run(main).results[0] == [1]


class TestReadOnlyViews:
    """Every path that hands out a view of shared memory must mark it
    read-only: stores that bypass SharedArray.write() would dodge the
    twin/diff machinery and silently never propagate."""

    def _assert_readonly(self, tmk_run, reader):
        def main(proc):
            arr = proc.tmk.shared_array("a", (8, 8), np.float64)
            view = yield from reader(arr)
            assert isinstance(view, np.ndarray)
            return bool(view.flags.writeable)

        assert tmk_run(main).results[0] is False

    def test_read_full(self, tmk_run):
        self._assert_readonly(tmk_run, lambda a: a.read())

    def test_read_slice(self, tmk_run):
        self._assert_readonly(tmk_run, lambda a: a.read(slice(1, 3)))

    def test_read_2d_key(self, tmk_run):
        self._assert_readonly(
            tmk_run, lambda a: a.read((slice(None), slice(0, 4))))

    def test_getitem(self, tmk_run):
        """Subscripting cannot block, so it is not an access path at all:
        it fails loudly instead of handing out an unchecked view."""
        def main(proc):
            arr = proc.tmk.shared_array("a", (8, 8), np.float64)
            with pytest.raises(TypeError):
                arr[slice(2, 5)]
            with pytest.raises(TypeError):
                arr[0] = 1.0

        tmk_run(main)

    def test_read_racy(self, tmk_run):
        self._assert_readonly(tmk_run, lambda a: a.read_racy())

    def test_fancy_index_copy_also_readonly(self, tmk_run):
        self._assert_readonly(
            tmk_run, lambda a: a.read((np.array([0, 3]), slice(None))))

    def test_get_scalar_is_a_value_not_a_view(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("a", (8,), np.float64)
            yield from arr.set(2, 5.0)
            value = yield from arr.get(2)
            return np.isscalar(value) or np.asarray(value).ndim == 0

        assert tmk_run(main).results[0]

    def test_view_does_not_leak_writability_via_base(self, tmk_run):
        def main(proc):
            arr = proc.tmk.shared_array("a", (8,), np.float64)
            view = (yield from arr.read())[1:3]  # derived view of the returned view
            return bool(view.flags.writeable)

        assert tmk_run(main).results[0] is False


class _RecordingCore(DsmCore):
    """The declared contract and nothing else: both ``ensure_*`` hooks,
    every optional capability left at its default."""

    def __init__(self, proc, system):
        super().__init__(proc, system)
        self.valid_calls = []
        self.writable_calls = []

    def ensure_valid_runs(self, runs):
        self.valid_calls.append(list(runs))
        yield from ()

    def ensure_writable_runs(self, runs):
        self.writable_calls.append(list(runs))
        yield from ()


class _RecordingEndpoint(DsmEndpoint):
    def __init__(self, proc, system):
        super().__init__(proc, system)
        self.core = _RecordingCore(proc, system)


class TestDeclaredCoreContract:
    def _run(self, main):
        cluster = Cluster(1)
        DsmSystem(cluster).attach(_RecordingEndpoint)
        return cluster.run(main).results[0]

    def test_defaults_send_every_access_through_ensure(self):
        def main(proc):
            core = proc.tmk.core
            arr = proc.tmk.shared_array("a", (1024,), np.float64)
            yield from arr.write(slice(500, 530), np.arange(30.0))
            yield from arr.add(slice(500, 502), 10.0)
            yield from arr.set(3, 4.0)
            got = (yield from arr.read(slice(498, 504))).copy()
            one = yield from arr.get(3)
            return got, one, core.valid_calls, core.writable_calls

        got, one, valid, writable = self._run(main)
        assert got.tolist() == [0.0, 0.0, 10.0, 11.0, 2.0, 3.0]
        assert one == 4.0
        # No fast path: each access asked the core once, with its byte runs.
        assert valid == [[(498 * 8, 48)], [(3 * 8, 8)]]
        assert writable == [[(4000, 240)], [(4000, 16)], [(24, 8)]]

    def test_piecewise_preference_is_read_at_every_write(self):
        def main(proc):
            core = proc.tmk.core
            arr = proc.tmk.shared_array("a", (1024,), np.float64)
            yield from arr.write(slice(500, 530), 1.0)      # crosses a page
            atomic = len(core.writable_calls)
            core.prefers_piecewise_writes = True   # after creation and use
            yield from arr.write(slice(500, 530), 2.0)
            image = (yield from arr.read()).copy()
            return atomic, core.writable_calls[atomic:], image

        atomic, pieces, image = self._run(main)
        assert atomic == 1
        assert pieces == [[(4000, 96)], [(4096, 144)]]
        assert image[500:530].tolist() == [2.0] * 30 and image.sum() == 60.0


class TestPiecewiseWrite:
    """Edge cases of the page-piece store path used by single-writer
    cores (IVY).  Forced on TreadMarks here via the core preference flag
    so the results can be compared against the atomic path's."""

    def _piecewise(self, tmk_run, shape, key, values, nprocs=1):
        def main(proc):
            proc.tmk.core.prefers_piecewise_writes = True
            arr = proc.tmk.shared_array("p", shape, np.float64)
            yield from arr.write(key, values)
            return (yield from arr.read()).copy()

        return tmk_run(main, nprocs=nprocs).results[0]

    def _atomic(self, shape, key, values):
        ref = np.zeros(shape)
        ref[key] = values
        return ref

    def test_contiguous_multi_page_span(self, tmk_run):
        # 1024 doubles = 2 pages; write crosses the page boundary.
        got = self._piecewise(tmk_run, (1024,), slice(500, 530),
                              np.arange(30.0))
        assert np.array_equal(got, self._atomic((1024,), slice(500, 530),
                                                np.arange(30.0)))

    def test_whole_array_spanning_pages(self, tmk_run):
        got = self._piecewise(tmk_run, (1536,), slice(None), 7.0)
        assert np.array_equal(got, np.full(1536, 7.0))

    def test_empty_slice_is_a_no_op(self, tmk_run):
        got = self._piecewise(tmk_run, (64,), slice(10, 10), [])
        assert np.array_equal(got, np.zeros(64))

    def test_negative_stride_falls_back(self, tmk_run):
        key = slice(20, 4, -2)
        values = np.arange(8.0)
        got = self._piecewise(tmk_run, (64,), key, values)
        assert np.array_equal(got, self._atomic((64,), key, values))

    def test_positive_stride(self, tmk_run):
        key = slice(4, 20, 2)
        values = np.arange(8.0)
        got = self._piecewise(tmk_run, (64,), key, values)
        assert np.array_equal(got, self._atomic((64,), key, values))

    def test_fancy_index_falls_back(self, tmk_run):
        key = np.array([3, 1, 40])  # caller-defined order
        values = np.array([1.0, 2.0, 3.0])
        got = self._piecewise(tmk_run, (64,), key, values)
        assert np.array_equal(got, self._atomic((64,), key, values))

    def test_multi_dim_fancy_indexing(self, tmk_run):
        key = (np.array([0, 2, 5]), slice(None))
        got = self._piecewise(tmk_run, (8, 16), key, 3.0)
        assert np.array_equal(got, self._atomic((8, 16), key, 3.0))

    def test_2d_column_slice_many_runs(self, tmk_run):
        # One run per row, rows separated by a full page.
        key = (slice(None), slice(0, 4))
        got = self._piecewise(tmk_run, (4, 512), key, 9.0)
        assert np.array_equal(got, self._atomic((4, 512), key, 9.0))

    def test_broadcast_scalar_across_page_boundary(self, tmk_run):
        got = self._piecewise(tmk_run, (1024,), slice(400, 700), 2.5)
        assert np.array_equal(got, self._atomic((1024,), slice(400, 700),
                                                2.5))

    def test_scalar_element(self, tmk_run):
        got = self._piecewise(tmk_run, (64,), 17, 4.0)
        assert got[17] == 4.0 and got.sum() == 4.0

    def test_piecewise_on_ivy_matches_atomic_on_tmk(self, tmk_run):
        """Integration: the same program through the real IVY piecewise
        path produces the same memory image."""
        from repro.ivy.api import attach_ivy
        from repro.sim.cluster import Cluster

        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("p", (1024,), np.float64)
            yield from tmk.barrier(0)
            lo = tmk.pid * 256
            yield from arr.write(slice(lo, lo + 256), float(tmk.pid + 1))
            yield from tmk.barrier(1)
            return (yield from arr.read()).copy()

        cluster = Cluster(4)
        attach_ivy(cluster)
        ivy_result = cluster.run(main)
        tmk_result = tmk_run(main, nprocs=4)
        expected = np.repeat(np.arange(1.0, 5.0), 256)
        for got in ivy_result.results + tmk_result.results:
            assert np.array_equal(got, expected)
