"""Unit tests for the per-processor page table."""

import numpy as np
import pytest

from repro.kernels import get_backend
from repro.tmk.pages import ADDRESS_SPACE, PageTable


def table(npages):
    pt = PageTable(4096)
    pt.grow(npages)
    return pt


@pytest.fixture
def pt():
    return table(8)


class TestLayout:
    def test_page_count(self, pt):
        assert pt.npages == 8
        assert pt.mem.size == ADDRESS_SPACE

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PageTable(4097)

    def test_page_view_is_a_view(self, pt):
        view = pt.page_view(2)
        view[0] = 42
        assert pt.mem[2 * 4096] == 42

    def test_pages_for_range(self, pt):
        assert list(pt.pages_for_range(0, 1)) == [0]
        assert list(pt.pages_for_range(4095, 2)) == [0, 1]
        assert list(pt.pages_for_range(4096, 4096)) == [1]
        assert list(pt.pages_for_range(0, 3 * 4096)) == [0, 1, 2]
        assert list(pt.pages_for_range(100, 0)) == []


class TestDemandZeroBacking:
    """``mem`` is an anonymous mapping, not a zero-filled heap block: it
    must behave like the ``np.zeros`` array it replaced."""

    def test_fresh_table_reads_all_zero(self):
        pt = table(64)
        assert pt.mem.dtype == np.uint8 and pt.mem.flags.writeable
        assert not pt.mem.any()
        assert not pt.page_view(63).any()

    def test_twin_and_view_on_the_backing(self, pt):
        pt.page_view(5)[10] = 3
        pt.make_twin(5)
        pt.page_view(5)[10] = 4
        assert pt.twin(5)[10] == 3 and pt.mem[5 * 4096 + 10] == 4
        assert pt.twin(5).base is None  # a real copy, not a view of mem

    @pytest.mark.parametrize("backend", ("pure", "numpy", "compiled"))
    def test_kernels_accept_the_backing(self, pt, backend):
        kernels = get_backend(backend)
        assert list(kernels.fault_scan(pt.valid, 0, pt.npages)) == []
        pt.invalidate(6)
        assert list(kernels.fault_scan(pt.valid, 0, pt.npages)) == [6]
        pt.make_twin(2)
        pt.page_view(2)[100:108] = 9
        runs = kernels.make_diff(pt.page_view(2), pt.twin(2))
        other = table(8)
        kernels.apply_diff(other.page_view(2), runs)
        assert np.array_equal(other.page_view(2), pt.page_view(2))

    def test_empty_segment(self):
        pt = PageTable(4096)
        assert pt.npages == 0 and pt.mem.size == ADDRESS_SPACE
        assert pt.invalid_pages() == set() and pt.dirty_pages() == []


class TestGrowth:
    def test_grow_extends_in_place_and_new_pages_are_readable(self, pt):
        valid = pt.valid
        pt.invalidate(3)
        pt.grow(12)
        assert pt.valid is valid and pt.npages == 12
        assert pt.invalid_pages() == {3}
        assert not pt.page_view(11).any()

    def test_grow_never_shrinks(self, pt):
        pt.grow(2)
        assert pt.npages == 8


class TestValidity:
    def test_initially_all_valid(self, pt):
        assert all(pt.is_valid(p) for p in range(pt.npages))
        assert pt.invalid_pages() == set()

    def test_invalidate_and_validate(self, pt):
        pt.invalidate(3)
        assert not pt.is_valid(3)
        assert pt.invalid_pages() == {3}
        pt.validate(3)
        assert pt.is_valid(3)

    def test_invalidating_dirty_page_asserts(self, pt):
        """Write notices are only processed after the interval closed."""
        pt.make_twin(1)
        with pytest.raises(AssertionError, match="dirty"):
            pt.invalidate(1)


    def test_invalidate_pages_is_invalidate_per_page(self, pt):
        pt.invalidate_pages((1, 4, 5))
        assert pt.invalid_pages() == {1, 4, 5}
        pt.make_twin(2)
        with pytest.raises(AssertionError, match="dirty"):
            pt.invalidate_pages((0, 2))
        pt.invalidate_pages((0, 2), allow_dirty=True)  # eager RC
        assert pt.invalid_pages() == {0, 1, 2, 4, 5} and pt.has_twin(2)


class TestTwins:
    def test_twin_snapshot(self, pt):
        pt.page_view(0)[:] = 7
        pt.make_twin(0)
        pt.page_view(0)[:] = 9
        assert pt.twin(0)[0] == 7
        assert pt.page_view(0)[0] == 9

    def test_double_twin_asserts(self, pt):
        pt.make_twin(0)
        with pytest.raises(AssertionError):
            pt.make_twin(0)

    def test_dirty_pages_sorted(self, pt):
        for page in (5, 1, 3):
            pt.make_twin(page)
        assert pt.dirty_pages() == [1, 3, 5]

    def test_drop_twin(self, pt):
        pt.make_twin(2)
        pt.drop_twin(2)
        assert not pt.has_twin(2)
        assert pt.dirty_pages() == []
