"""Dynamic race detector: detection, precision, attribution, modes."""

import numpy as np
import pytest

from repro.analysis import AnalysisConfig, RaceError
from repro.analysis.races import _ShadowMap


# ----------------------------------------------------------------------
# Shadow map unit tests
# ----------------------------------------------------------------------
class TestShadowMap:
    def test_cover_creates_gap_cell(self):
        sm = _ShadowMap()
        cells = sm.cover(10, 20)
        assert len(cells) == 1
        assert sm.segments() == [(10, 20, cells[0])]

    def test_exact_reuse(self):
        sm = _ShadowMap()
        first = sm.cover(10, 20)
        again = sm.cover(10, 20)
        assert first == again

    def test_split_left_and_right(self):
        sm = _ShadowMap()
        base = sm.cover(0, 100)[0]
        base.write = "W"
        mid = sm.cover(40, 60)
        assert [s[:2] for s in sm.segments()] == [(0, 40), (40, 60), (60, 100)]
        # The split inherits the original cell's state.
        assert mid[0].write == "W"
        assert sm.segments()[0][2].write == "W"

    def test_split_is_a_clone(self):
        sm = _ShadowMap()
        sm.cover(0, 100)
        mid = sm.cover(40, 60)[0]
        mid.write = "X"
        assert sm.segments()[0][2].write is None

    def test_cover_spanning_segments_and_gaps(self):
        sm = _ShadowMap()
        sm.cover(10, 20)
        sm.cover(30, 40)
        cells = sm.cover(0, 50)
        assert len(cells) == 5  # gap, seg, gap, seg, gap
        assert [s[:2] for s in sm.segments()] == [
            (0, 10), (10, 20), (20, 30), (30, 40), (40, 50)]

    def test_adjacent_covers_do_not_overlap(self):
        sm = _ShadowMap()
        sm.cover(0, 10)
        sm.cover(10, 20)
        starts_ends = [s[:2] for s in sm.segments()]
        assert starts_ends == [(0, 10), (10, 20)]


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------
def _racy_writers(proc):
    tmk = proc.tmk
    arr = tmk.shared_array("x", (16,), np.float64)
    yield from tmk.barrier(0)
    yield from arr.write(0, float(tmk.pid))  # everyone writes element 0: WW race
    yield from tmk.barrier(1)


class TestDetection:
    def test_write_write_race_reported(self, san_run):
        san, _ = san_run(_racy_writers)
        assert san.findings
        finding = san.findings[0]
        assert finding.kind == "write-write"
        assert finding.array == "array 'x'"
        # Both access sites name this test file and the racy line.
        assert "test_races.py" in finding.earlier.site
        assert "test_races.py" in finding.later.site
        assert "_racy_writers" in finding.later.site
        assert "barrier(0)" in finding.later.sync

    def test_strict_mode_raises_and_fails_the_run(self, san_run):
        with pytest.raises(RaceError, match="write-write race"):
            san_run(_racy_writers,
                    config=AnalysisConfig(race_check="strict"))

    def test_unsynchronized_read_of_write(self, san_run):
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("x", (16,), np.float64)
            yield from tmk.barrier(0)
            if tmk.pid == 0:
                yield from arr.write(0, 1.0)
            else:
                yield from arr.read(0)
            yield from tmk.barrier(1)

        san, _ = san_run(main, nprocs=2)
        assert len(san.findings) == 1
        kinds = {f.kind for f in san.findings}
        assert kinds <= {"write-read", "read-write"}

    def test_findings_deduplicated_per_site_pair(self, san_run):
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("x", (16,), np.float64)
            yield from tmk.barrier(0)
            for _ in range(5):  # same racy pair every iteration
                yield from arr.write(0, float(tmk.pid))
            yield from tmk.barrier(1)

        san, _ = san_run(main, nprocs=2)
        assert len(san.findings) == 1

    def test_disjoint_bytes_no_race(self, san_run):
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("x", (16,), np.float64)
            yield from tmk.barrier(0)
            yield from arr.write(tmk.pid, 1.0)  # disjoint elements of one page
            yield from tmk.barrier(1)

        san, _ = san_run(main, config=AnalysisConfig(race_check="strict"))
        assert not san.findings


# ----------------------------------------------------------------------
# Precision: synchronized patterns must stay silent under strict
# ----------------------------------------------------------------------
class TestPrecision:
    def test_barrier_ordered_writes_clean(self, san_run):
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("x", (16,), np.float64)
            yield from tmk.barrier(0)
            if tmk.pid == 0:
                yield from arr.write(0, 1.0)
            yield from tmk.barrier(1)
            if tmk.pid == 1:
                yield from arr.write(0, 2.0)
            yield from tmk.barrier(2)

        san, _ = san_run(main, nprocs=2,
                         config=AnalysisConfig(race_check="strict"))
        assert not san.findings

    def test_lock_ordered_counter_clean(self, san_run):
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("ctr", (1,), np.int64)
            yield from tmk.barrier(0)
            for _ in range(3):
                yield from tmk.lock_acquire(0)
                yield from arr.add(0, 1)
                yield from tmk.lock_release(0)
            yield from tmk.barrier(1)
            return int((yield from arr.get(0)))

        san, result = san_run(main, config=AnalysisConfig(race_check="strict"))
        assert not san.findings
        assert result.results == [12, 12, 12, 12]

    def test_readonly_interval_then_write_is_ordered(self, san_run):
        """Regression: a clean interval closes no protocol interval (the
        LRC clock only advances on writes), but a barrier still orders a
        read-only epoch before later writes.  The sanitizer's own sync
        clock must see that edge."""
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("x", (16,), np.float64)
            yield from tmk.barrier(0)
            yield from arr.get(0)                   # everyone reads, nobody writes
            yield from tmk.barrier(1)
            if tmk.pid == 0:
                yield from arr.write(0, 1.0)        # ordered by barrier 1
            yield from tmk.barrier(2)

        san, _ = san_run(main, config=AnalysisConfig(race_check="strict"))
        assert not san.findings

    def test_lock_chain_is_transitive(self, san_run):
        """P0 -> (lock 0) -> P1 -> (lock 1) -> P2 orders P0's write
        before P2's read even though P0 and P2 never share a lock."""
        def main(proc):
            tmk = proc.tmk
            arr = tmk.shared_array("x", (16,), np.float64)
            flag = tmk.shared_array("flag", (2,), np.int64)
            yield from tmk.barrier(0)
            if tmk.pid == 0:
                yield from arr.write(0, 42.0)
                yield from tmk.lock_acquire(0)
                yield from flag.set(0, 1)
                yield from tmk.lock_release(0)
            elif tmk.pid == 1:
                while True:
                    yield from tmk.lock_acquire(0)
                    ready = int((yield from flag.get(0)))
                    yield from tmk.lock_release(0)
                    if ready:
                        break
                yield from tmk.lock_acquire(1)
                yield from flag.set(1, 1)
                yield from tmk.lock_release(1)
            else:
                while True:
                    yield from tmk.lock_acquire(1)
                    ready = int((yield from flag.get(1)))
                    yield from tmk.lock_release(1)
                    if ready:
                        break
                return float((yield from arr.get(0)))

        san, result = san_run(main, nprocs=3,
                              config=AnalysisConfig(race_check="strict"))
        assert not san.findings
        assert result.results[2] == 42.0

    def test_annotated_racy_read_exempt(self, san_run):
        def main(proc):
            tmk = proc.tmk
            best = tmk.shared_array("best", (1,), np.int64)
            yield from tmk.barrier(0)
            if tmk.pid == 0:
                yield from tmk.lock_acquire(0)
                yield from best.set(0, 7)
                yield from tmk.lock_release(0)
            else:
                yield from best.get_racy(0)  # declared benign: no finding
            yield from tmk.barrier(1)

        san, _ = san_run(main, config=AnalysisConfig(race_check="strict"))
        assert not san.findings

    def test_unannotated_version_of_same_pattern_is_flagged(self, san_run):
        def main(proc):
            tmk = proc.tmk
            best = tmk.shared_array("best", (1,), np.int64)
            yield from tmk.barrier(0)
            if tmk.pid == 0:
                yield from tmk.lock_acquire(0)
                yield from best.set(0, 7)
                yield from tmk.lock_release(0)
            else:
                yield from best.get(0)
            yield from tmk.barrier(1)

        san, _ = san_run(main)
        assert san.findings


# ----------------------------------------------------------------------
# Modes and configuration
# ----------------------------------------------------------------------
class TestConfig:
    def test_off_config_not_enabled(self):
        cfg = AnalysisConfig()
        assert not cfg.enabled
        assert AnalysisConfig(race_check="report").enabled
        assert AnalysisConfig(false_sharing=True).enabled

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="race_check"):
            AnalysisConfig(race_check="warn")

    def test_off_mode_collects_nothing(self, san_run):
        san, _ = san_run(_racy_writers,
                         config=AnalysisConfig(race_check="off",
                                               false_sharing=True))
        assert not san.findings
        assert san.race_report() == "race check: no data races detected"

    def test_event_counters_recorded(self, san_run):
        san, result = san_run(_racy_writers)
        san.finish(result.stats)
        events = result.stats.events()
        assert events["san_accesses"] == san.accesses_checked > 0
        assert events["san_races"] == len(san.findings) > 0
        # The pseudo-system never leaks into real wire totals.
        assert result.stats.total("analysis").bytes == 0

    def test_report_describes_both_sites(self, san_run):
        san, _ = san_run(_racy_writers)
        report = san.race_report()
        assert "earlier:" in report and "later:" in report
        assert "page 0" in report
