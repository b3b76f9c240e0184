"""False-sharing analyzer: byte sets, page accounting, end-to-end SOR."""


from repro.analysis import AnalysisConfig
from repro.analysis.false_sharing import (ByteSet, FalseSharingTracker,
                                          PageSharing)
from repro.apps.base import run_parallel
from repro.apps.sor import SorParams
from repro.tmk.diffs import Diff


# ----------------------------------------------------------------------
# ByteSet
# ----------------------------------------------------------------------
class TestByteSet:
    def test_add_and_total(self):
        bs = ByteSet()
        bs.add(0, 10)
        bs.add(20, 30)
        assert bs.total() == 20
        assert bs.runs() == [(0, 10), (20, 30)]

    def test_merge_overlapping(self):
        bs = ByteSet()
        bs.add(0, 10)
        bs.add(5, 15)
        assert bs.runs() == [(0, 15)]

    def test_merge_touching(self):
        bs = ByteSet()
        bs.add(0, 10)
        bs.add(10, 20)
        assert bs.runs() == [(0, 20)]

    def test_add_absorbs_multiple_runs(self):
        bs = ByteSet()
        bs.add(0, 2)
        bs.add(4, 6)
        bs.add(8, 10)
        bs.add(1, 9)
        assert bs.runs() == [(0, 10)]

    def test_empty_run_ignored(self):
        bs = ByteSet()
        bs.add(5, 5)
        bs.add(7, 3)
        assert bs.runs() == []

    def test_insert_before_existing(self):
        bs = ByteSet()
        bs.add(10, 20)
        bs.add(0, 5)
        assert bs.runs() == [(0, 5), (10, 20)]

    def test_intersection_and_minus(self):
        a, b = ByteSet(), ByteSet()
        a.add(0, 10)
        a.add(20, 30)
        b.add(5, 25)
        assert a.intersection_size(b) == 10  # [5,10) + [20,25)
        assert a.minus_size(b) == 10
        assert b.minus_size(a) == 10  # [10,20)

    def test_disjoint_intersection_zero(self):
        a, b = ByteSet(), ByteSet()
        a.add(0, 10)
        b.add(10, 20)
        assert a.intersection_size(b) == 0


# ----------------------------------------------------------------------
# Tracker event stream
# ----------------------------------------------------------------------
class TestTracker:
    def test_access_clipped_to_pages(self):
        tr = FalseSharingTracker(page_size=100)
        # One run spanning three pages.
        tr.on_access(0, [(50, 200)], True, False, 0.0)
        assert sorted(tr._pages) == [0, 1, 2]
        assert tr._pages[0].writes[0].runs() == [(50, 100)]
        assert tr._pages[1].writes[0].runs() == [(100, 200)]
        assert tr._pages[2].writes[0].runs() == [(200, 250)]

    def test_reads_touch_but_do_not_write(self):
        tr = FalseSharingTracker(page_size=100)
        tr.on_access(1, [(0, 10)], False, False, 0.0)
        assert 1 in tr._pages[0].touched
        assert 1 not in tr._pages[0].writes
        assert tr.shared_pages() == []

    def test_true_vs_false_sharing_classification(self):
        tr = FalseSharingTracker(page_size=100)
        tr.on_access(0, [(0, 50)], True, False, 0.0)
        tr.on_access(1, [(50, 50)], True, False, 0.0)   # disjoint: false sharing
        tr.on_access(0, [(100, 20)], True, False, 0.0)
        tr.on_access(1, [(110, 20)], True, False, 0.0)  # overlap: true sharing
        assert tr.shared_pages() == [0, 1]
        assert tr.falsely_shared_pages() == [0]
        assert tr._pages[1].write_overlap() == 10

    def test_diff_bytes_outside_touched_are_false(self):
        tr = FalseSharingTracker(page_size=100)
        # P1 only ever touches bytes [0,50) of page 0 ...
        tr.on_access(1, [(0, 50)], False, False, 0.0)
        # ... but applies a diff covering [40,80): 30 bytes are false.
        tr.on_diff_applied(1, 0, Diff(page=0, runs=[(40, b"\0" * 40)]), 0.0)
        assert tr.false_bytes_by_page() == {0: 30}
        assert tr.total_false_bytes() == 30
        assert tr.total_diff_bytes() == 40

    def test_refetch_counts_multiplicity_but_not_uniqueness(self):
        tr = FalseSharingTracker(page_size=100)
        diff = Diff(page=0, runs=[(0, b"\0" * 10)])
        tr.on_diff_applied(2, 0, diff, 0.0)
        tr.on_diff_applied(2, 0, diff, 0.0)
        assert tr.total_diff_bytes() == 20          # with multiplicity
        assert tr._pages[0].fetched[2].total() == 10  # unique bytes

    def test_report_lists_pages_and_totals(self):
        tr = FalseSharingTracker(page_size=100)
        tr.on_access(0, [(0, 50)], True, False, 0.0)
        tr.on_access(1, [(50, 50)], True, False, 0.0)
        tr.on_diff_applied(0, 0, Diff(page=0, runs=[(50, b"\0" * 50)]), 0.0)
        report = tr.report(array_name=lambda addr: f"a@{addr}")
        assert "falsely shared (no overlap)   1" in report
        assert "falsely-shared diff bytes     50" in report
        assert "a@0" in report

    def test_page_sharing_false_bytes_empty_when_all_touched(self):
        sharing = PageSharing()
        fetched = ByteSet()
        fetched.add(0, 10)
        sharing.fetched[0] = fetched
        touched = ByteSet()
        touched.add(0, 10)
        sharing.touched[0] = touched
        assert sharing.false_bytes() == {}


# ----------------------------------------------------------------------
# End to end: SOR-Zero boundary rows
# ----------------------------------------------------------------------
class TestSorFalseSharing:
    def test_sor_boundary_pages_attributed(self):
        """Neighbouring SOR band owners write disjoint halves of the pages
        holding the boundary rows; the analyzer must classify those pages
        as falsely shared and attribute diff bytes to them.

        ``rows=56`` gives 7 rows (10.5 pages) per band at 8 processors, so
        every band boundary falls mid-page: each boundary page is written
        by exactly two neighbours at disjoint byte ranges."""
        params = SorParams(rows=56, width=768, iterations=4)
        run = run_parallel("sor", "tmk", nprocs=8, params=params,
                           analysis=AnalysisConfig(false_sharing=True))
        san = run.sanitizer
        assert san is not None
        # Bands are 10.5 pages, so every second band boundary falls
        # mid-page: 4 straddled pages in each of red and black.
        falsely = san.fs.falsely_shared_pages()
        assert len(falsely) == 8
        # Disjoint writers: every shared page is falsely shared.
        assert falsely == san.fs.shared_pages()
        assert san.fs.total_false_bytes() > 0
        # Every falsely-shared page's false bytes show up in the report.
        report = san.false_sharing_report()
        assert "falsely-shared diff bytes" in report
        assert "sor_red" in report

    def test_accounting_identical_with_sanitizer_attached(self):
        """Observational-only invariant: attaching the sanitizer changes
        nothing about the simulated protocol traffic."""
        params = SorParams.tiny()
        base = run_parallel("sor", "tmk", nprocs=4, params=params)
        watched = run_parallel(
            "sor", "tmk", nprocs=4, params=params,
            analysis=AnalysisConfig(race_check="report", false_sharing=True))
        for system in ("tmk", "udp"):
            b = base.stats.total(system)
            w = watched.stats.total(system)
            assert (b.messages, b.bytes) == (w.messages, w.bytes)
        assert base.time == watched.time
