"""Per-processor paged view of the shared address space.

Each processor reserves the shared address space once
(:data:`ADDRESS_SPACE`, demand zero, so the host pays memory only for the
pages the processor actually touches) and keeps per-page state for the
pages the shared heap has handed out so far -- :meth:`PageTable.grow`
extends it as allocation crosses onto new pages:

* ``valid`` -- the local copy may be read (an invalidated page must fault
  and fetch diffs first);
* ``twin`` -- pristine copy made at the first write of the current
  interval; its presence marks the page *dirty* (write-noticed at the next
  interval close).

In real TreadMarks this state machine is driven by mprotect + SIGSEGV; here
the :mod:`repro.tmk.sharedmem` accessors consult it in software.  The state
transitions and their costs are identical.

Validity is a ``bytearray`` (one byte per page): indexing it is a plain
``list``-style C operation, several times cheaper than the numpy bool
array it replaced for the one-page lookups that dominate the fault-check
path, and it doubles as the buffer the kernel ``fault_scan`` reads.
Page views are materialized once and reused -- ``page_view`` is called
for every diff made and applied, and numpy slice construction was
measurable in profiles.
"""

from __future__ import annotations

import mmap
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

__all__ = ["ADDRESS_SPACE", "PageTable"]

#: Bytes of address space every processor reserves (the shared heap's
#: bound): 32x the largest paper-preset heap, fig11's 32 MiB.  Untouched it
#: costs nothing, but under Linux's heuristic overcommit one mapping larger
#: than RAM + swap is refused, so it stays well below host RAM.
ADDRESS_SPACE = 1 << 30


def _demand_zero(nbytes: int) -> np.ndarray:
    """``nbytes`` zero bytes the host backs page by page at first touch
    (an anonymous private mapping; the array keeps the mapping alive).
    ``np.zeros`` can memset the whole block when the allocator serves it
    from the heap -- 128 simulated nodes x the whole address space."""
    if not nbytes or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.zeros(nbytes, dtype=np.uint8)
    return np.frombuffer(
        mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
        dtype=np.uint8)


class PageTable:
    """Local memory plus page validity/twin bookkeeping for one processor."""

    def __init__(self, page_size: int, size_bytes: int = ADDRESS_SPACE) -> None:
        if size_bytes % page_size:
            raise ValueError(f"page size {page_size} does not divide the "
                             f"{size_bytes}-byte address space")
        self.page_size = page_size
        #: The processor's private copy of the shared address space.
        self.mem = _demand_zero(size_bytes)
        #: One byte per allocated page; truthy = readable.  Kernel
        #: ``fault_scan`` consumes this buffer directly.
        self.valid = bytearray()
        # Page views materialize lazily: big heaps touch a small working
        # set, and building thousands of slice views up front shows up in
        # the per-run setup cost.
        self._views: List[Optional[np.ndarray]] = []
        self._twins: Dict[int, np.ndarray] = {}

    @property
    def npages(self) -> int:
        """Pages the per-page state covers (the heap's, once attached)."""
        return len(self.valid)

    def grow(self, npages: int) -> None:
        """Cover pages up to ``npages``: a freshly allocated page is zero
        on every processor, so it starts readable."""
        more = npages - len(self.valid)
        if more > 0:
            self.valid.extend(b"\x01" * more)
            self._views.extend([None] * more)

    # ------------------------------------------------------------------
    def page_view(self, page: int) -> np.ndarray:
        view = self._views[page]
        if view is None:
            ps = self.page_size
            view = self._views[page] = self.mem[page * ps: (page + 1) * ps]
        return view

    def pages_for_range(self, start: int, nbytes: int) -> range:
        """Pages overlapped by the byte range [start, start+nbytes)."""
        if nbytes <= 0:
            return range(0, 0)
        first = start // self.page_size
        last = (start + nbytes - 1) // self.page_size
        return range(first, last + 1)

    # ------------------------------------------------------------------
    def is_valid(self, page: int) -> bool:
        return bool(self.valid[page])

    def invalidate(self, page: int, allow_dirty: bool = False) -> None:
        """Mark a page not-readable.

        Under lazy RC, notices are only processed at synchronization
        points, after the local interval closed -- a dirty page here is a
        protocol bug.  Under eager RC, notices arrive asynchronously and
        may hit a page mid-interval: the twin is kept, so local writes
        survive the refetch (``allow_dirty=True``).
        """
        if page in self._twins and not allow_dirty:
            raise AssertionError(
                f"invalidating dirty page {page}: interval must close before "
                "write notices are processed")
        self.valid[page] = 0

    def invalidate_pages(self, pages: Sequence[int],
                         allow_dirty: bool = False) -> None:
        """:meth:`invalidate` for one interval record's write notices."""
        if self._twins and not allow_dirty:
            for page in pages:
                if page in self._twins:
                    self.invalidate(page)  # raises: the page is dirty
        valid = self.valid
        for page in pages:
            valid[page] = 0

    def validate(self, page: int) -> None:
        self.valid[page] = 1

    # ------------------------------------------------------------------
    def has_twin(self, page: int) -> bool:
        return page in self._twins

    def make_twin(self, page: int) -> None:
        if page in self._twins:
            raise AssertionError(f"twin already exists for page {page}")
        self._twins[page] = self.page_view(page).copy()

    def twin(self, page: int) -> np.ndarray:
        return self._twins[page]

    def dirty_pages(self) -> List[int]:
        return sorted(self._twins)

    def drop_twin(self, page: int) -> None:
        del self._twins[page]

    # ------------------------------------------------------------------
    def invalid_pages(self) -> Set[int]:
        return {page for page, ok in enumerate(self.valid) if not ok}
