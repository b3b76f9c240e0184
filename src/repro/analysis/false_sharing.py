"""False-sharing analysis from the access/diff events of a TreadMarks run.

The paper attributes part of TreadMarks' extra traffic to *false sharing*
(mechanism (c)): two processors write disjoint bytes of the same page, so
page-granularity invalidation and whole-page diff exchange move bytes the
receiver never touches.  This module turns that prose into numbers:

* per page, the set of bytes each processor wrote and read (merged runs,
  straight from the ``SharedArray`` access stream);
* *page overlap* vs *byte overlap*: a page written by two processors whose
  written byte sets are disjoint is falsely shared; bytes written by more
  than one processor are true sharing;
* *diff-byte attribution*: every diff a processor applies during a fault
  (or from a piggybacked grant) carries replacement byte runs.  Diff bytes
  landing outside the set of bytes the applying processor ever touches on
  that page were moved only because of page granularity -- they are the
  falsely-shared diff bytes the report charges to the page.

The tracker subscribes to the cluster's event stream
(:mod:`repro.sim.trace`) beside the race sanitizer, which reads its
report; it holds host-side state only and never perturbs the simulation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.trace import Subscriber
from repro.tmk.diffs import Diff

__all__ = ["ByteSet", "FalseSharingTracker", "PageSharing"]


class ByteSet:
    """Sorted, merged, disjoint byte intervals ``[start, end)``."""

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: List[List[int]] = []  # [start, end], sorted, disjoint

    def add(self, start: int, end: int) -> None:
        if end <= start:
            return
        runs = self._runs
        i = bisect_right([r[0] for r in runs], start)
        if i > 0 and runs[i - 1][1] >= start:
            i -= 1
            runs[i][1] = max(runs[i][1], end)
            if runs[i][0] > start:  # pragma: no cover - bisect guarantees
                runs[i][0] = start
        else:
            runs.insert(i, [start, end])
        # Absorb following runs that now overlap or touch.
        j = i + 1
        while j < len(runs) and runs[j][0] <= runs[i][1]:
            runs[i][1] = max(runs[i][1], runs[j][1])
            j += 1
        del runs[i + 1: j]

    def total(self) -> int:
        return sum(e - s for s, e in self._runs)

    def runs(self) -> List[Tuple[int, int]]:
        return [(s, e) for s, e in self._runs]

    def intersection_size(self, other: "ByteSet") -> int:
        out = 0
        a, b = self._runs, other._runs
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if hi > lo:
                out += hi - lo
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return out

    def minus_size(self, other: "ByteSet") -> int:
        """Bytes in ``self`` but not in ``other``."""
        return self.total() - self.intersection_size(other)


class PageSharing:
    """Per-page accumulation: who wrote/read which bytes, what was fetched."""

    __slots__ = ("writes", "touched", "fetched", "fetched_bytes")

    def __init__(self) -> None:
        #: pid -> bytes written on this page.
        self.writes: Dict[int, ByteSet] = {}
        #: pid -> bytes read or written on this page.
        self.touched: Dict[int, ByteSet] = {}
        #: pid -> unique diff bytes applied by pid on this page.
        self.fetched: Dict[int, ByteSet] = {}
        #: pid -> diff bytes applied with multiplicity (re-fetches count).
        self.fetched_bytes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def writers(self) -> List[int]:
        return sorted(self.writes)

    def write_overlap(self) -> int:
        """Bytes written by more than one processor (true sharing)."""
        writers = self.writers()
        out = 0
        for i, p in enumerate(writers):
            merged_others = ByteSet()
            for q in writers[i + 1:]:
                for s, e in self.writes[q].runs():
                    merged_others.add(s, e)
            out += self.writes[p].intersection_size(merged_others)
        return out

    def false_bytes(self) -> Dict[int, int]:
        """Per-fetcher falsely-shared diff bytes: unique diff bytes the
        fetcher applied on this page but never read or wrote."""
        out = {}
        for pid, fetched in self.fetched.items():
            touched = self.touched.get(pid, ByteSet())
            false = fetched.minus_size(touched)
            if false:
                out[pid] = false
        return out


class FalseSharingTracker(Subscriber):
    """Aggregates the access/diff event stream into per-page sharing."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._pages: Dict[int, PageSharing] = {}

    def _page(self, page: int) -> PageSharing:
        sharing = self._pages.get(page)
        if sharing is None:
            sharing = self._pages[page] = PageSharing()
        return sharing

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------
    def on_access(self, pid: int, runs, write: bool, racy: bool,
                  time: float) -> None:
        size = self.page_size
        for start, nbytes in runs:
            end = start + nbytes
            pos = start
            while pos < end:
                page = pos // size
                piece_end = min(end, (page + 1) * size)
                sharing = self._page(page)
                touched = sharing.touched.get(pid)
                if touched is None:
                    touched = sharing.touched[pid] = ByteSet()
                touched.add(pos, piece_end)
                if write:
                    writes = sharing.writes.get(pid)
                    if writes is None:
                        writes = sharing.writes[pid] = ByteSet()
                    writes.add(pos, piece_end)
                pos = piece_end

    def on_diff_applied(self, pid: int, page: int, diff: Diff,
                        time: float) -> None:
        sharing = self._page(page)
        fetched = sharing.fetched.get(pid)
        if fetched is None:
            fetched = sharing.fetched[pid] = ByteSet()
        base = page * self.page_size
        for offset, data in diff.runs:
            fetched.add(base + offset, base + offset + len(data))
        sharing.fetched_bytes[pid] = (sharing.fetched_bytes.get(pid, 0)
                                      + diff.data_bytes)

    def on_measurement_start(self, time: float) -> None:
        """The app opened its measured window: restart accumulation so
        the report reflects steady-state sharing, not the master's
        initialization writes."""
        self._pages = {}

    # ------------------------------------------------------------------
    # Queries and report
    # ------------------------------------------------------------------
    def shared_pages(self) -> List[int]:
        """Pages written by at least two processors."""
        return sorted(p for p, s in self._pages.items() if len(s.writes) > 1)

    def falsely_shared_pages(self) -> List[int]:
        """Shared pages whose writers' byte sets are pairwise disjoint."""
        return [p for p in self.shared_pages()
                if self._pages[p].write_overlap() == 0]

    def false_bytes_by_page(self) -> Dict[int, int]:
        """page -> falsely-shared diff bytes (summed over fetchers)."""
        out = {}
        for page, sharing in self._pages.items():
            false = sum(sharing.false_bytes().values())
            if false:
                out[page] = false
        return out

    def total_false_bytes(self) -> int:
        return sum(self.false_bytes_by_page().values())

    def total_diff_bytes(self) -> int:
        return sum(sum(s.fetched_bytes.values()) for s in self._pages.values())

    def report(self, array_name: Optional[Callable[[int], str]] = None,
               limit: int = 20) -> str:
        """Human-readable per-page table plus totals.

        ``array_name(addr)`` maps a byte address to an allocation label
        (the sanitizer passes its heap lookup).  ``limit`` caps the table
        at the pages with the most falsely-shared diff bytes.
        """
        interesting: List[Tuple[int, int, PageSharing]] = []
        for page, sharing in self._pages.items():
            if len(sharing.writes) > 1 or sharing.false_bytes():
                false = sum(sharing.false_bytes().values())
                interesting.append((false, page, sharing))
        interesting.sort(key=lambda t: (-t[0], t[1]))
        lines = [
            "false-sharing report (pages with >1 writer or false diff bytes):",
            f"{'page':>6} {'writers':<12} {'wr-overlap':>10} "
            f"{'diff B':>10} {'false B':>10}  array",
        ]
        for false, page, sharing in interesting[:limit]:
            name = (array_name(page * self.page_size)
                    if array_name is not None else "")
            writers = ",".join(f"P{p}" for p in sharing.writers())
            lines.append(
                f"{page:>6} {writers:<12} {sharing.write_overlap():>10} "
                f"{sum(sharing.fetched_bytes.values()):>10} "
                f"{false:>10}  {name}")
        if len(interesting) > limit:
            lines.append(f"  ... {len(interesting) - limit} more pages")
        shared = self.shared_pages()
        lines += [
            "",
            f"  pages with multiple writers   {len(shared)}",
            f"  falsely shared (no overlap)   {len(self.falsely_shared_pages())}",
            f"  diff bytes applied            {self.total_diff_bytes()}",
            f"  falsely-shared diff bytes     {self.total_false_bytes()}",
        ]
        return "\n".join(lines)
