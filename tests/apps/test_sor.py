"""Tests for Red-Black SOR."""

import numpy as np
import pytest

from repro.apps import base
from repro.apps.sor import (SorParams, band, initial_array, initial_rows,
                            phase_kernel, ELEM_CPU, ZERO_EXTRA_CPU)


class TestKernel:
    def test_band_partition_covers_rows(self):
        rows = 101
        covered = []
        for pid in range(7):
            lo, hi = band(pid, 7, rows)
            covered.extend(range(lo, hi))
        assert covered == list(range(rows))

    def test_zero_init_edges_one_interior_zero(self):
        grid = initial_array(SorParams.tiny())
        assert grid[0, 0] == 1.0
        assert grid[grid.shape[0] // 2, grid.shape[1] // 2] == 0.0

    def test_nonzero_init_everywhere_nonzero(self):
        grid = initial_array(SorParams.tiny(nonzero=True))
        assert np.count_nonzero(grid) == grid.size

    @pytest.mark.parametrize("nonzero", (False, True))
    def test_initial_rows_is_a_slice_of_initial_array(self, nonzero):
        """A PVM rank builds only its band: byte-identical to the slice."""
        params = SorParams(rows=13, width=10, iterations=1, nonzero=nonzero)
        full = initial_array(params)
        for lo in range(params.rows + 1):
            for hi in range(lo, params.rows + 1):
                rows = initial_rows(params, lo, hi)
                assert rows.tobytes() == full[lo:hi].tobytes()
                assert rows.shape == (hi - lo, params.width)

    def test_kernel_matches_manual_stencil(self):
        params = SorParams(rows=6, width=8, iterations=1)
        src = initial_array(params)
        new, _ = phase_kernel(src, 0, 6, 6)
        i, j = 2, 3
        manual = 0.25 * (src[i - 1, j] + src[i + 1, j]
                         + src[i, j - 1] + src[i, j + 1])
        assert new[i - 1, j - 1] == pytest.approx(manual)

    def test_zero_operands_cost_more(self):
        params = SorParams(rows=8, width=16, iterations=1)
        zeros = np.zeros((8, 16))
        ones = np.ones((8, 16))
        _, cost_zero = phase_kernel(zeros, 0, 8, 8)
        _, cost_ones = phase_kernel(ones, 0, 8, 8)
        assert cost_zero > cost_ones
        interior = 6 * 14
        assert cost_ones == pytest.approx(interior * ELEM_CPU)
        assert cost_zero == pytest.approx(
            interior * (ELEM_CPU + ZERO_EXTRA_CPU))

    def test_band_kernel_equals_full_kernel(self):
        """Per-band computation is bitwise identical to the full sweep."""
        params = SorParams.tiny()
        src = initial_array(params)
        full, _ = phase_kernel(src, 0, params.rows, params.rows)
        lo, hi = band(1, 3, params.rows)
        piece, _ = phase_kernel(src[lo - 1: hi + 1], lo, hi, params.rows)
        assert np.array_equal(piece, full[lo - 1: hi - 1])


class TestCorrectness:
    def test_zero_variant(self, check_app):
        check_app("sor", SorParams.tiny())

    def test_nonzero_variant(self, check_app):
        check_app("sor", SorParams.tiny(nonzero=True))

    def test_results_bitwise_equal_across_nprocs(self):
        p = SorParams.tiny(nonzero=True)
        seq = base.run_sequential("sor", p)
        for n in (2, 3, 8):
            par = base.run_parallel("sor", "pvm", n, p)
            assert np.array_equal(par.result[0], seq.result[0])


class TestPaperBehaviour:
    def test_message_formulas(self):
        """Per iteration: PVM sends 2(n-1) boundary-row messages;
        TreadMarks 2(n-1) barrier messages plus ~8(n-1) diff messages
        (each boundary row spans two pages)."""
        p = SorParams(rows=64, width=768, iterations=10)
        n = 4
        pvm = base.run_parallel("sor", "pvm", n, p)
        # Measured window excludes iteration 0: 9 iterations counted.
        per_iter = pvm.total_messages() / 9
        assert per_iter == pytest.approx(2 * (n - 1), abs=0.5)

        tmk = base.run_parallel("sor", "tmk", n, p)
        barrier = (tmk.stats.get("tmk", "barrier_arrival").messages
                   + tmk.stats.get("tmk", "barrier_departure").messages) / 9
        assert barrier == pytest.approx(2 * (n - 1), abs=1.0)
        diffs = (tmk.stats.get("tmk", "diff_request").messages
                 + tmk.stats.get("tmk", "diff_response").messages) / 9
        assert 0.5 * 8 * (n - 1) <= diffs <= 1.3 * 8 * (n - 1)

    def test_sor_zero_tmk_ships_less_data(self):
        """Most pages stay zero, so their diffs are (nearly) empty."""
        p = SorParams(rows=128, width=768, iterations=10)
        tmk = base.run_parallel("sor", "tmk", 4, p)
        pvm = base.run_parallel("sor", "pvm", 4, p)
        assert tmk.total_kbytes() < pvm.total_kbytes()

    def test_sor_nonzero_tmk_ships_more_data(self):
        p = SorParams(rows=128, width=768, iterations=10, nonzero=True)
        tmk = base.run_parallel("sor", "tmk", 4, p)
        pvm = base.run_parallel("sor", "pvm", 4, p)
        assert tmk.total_kbytes() > pvm.total_kbytes()

    def test_zero_case_load_imbalance(self):
        """Middle processors (still-zero bands) finish their compute
        later; the imbalance shows up as a wider finish-time spread under
        PVM relative to the nonzero case."""
        rows, n = 384, 8
        zero = base.run_parallel("sor", "pvm", n,
                                 SorParams(rows=rows, width=768, iterations=40))
        nonzero = base.run_parallel("sor", "pvm", n,
                                    SorParams(rows=rows, width=768,
                                              iterations=40, nonzero=True))
        seq_zero = base.run_sequential(
            "sor", SorParams(rows=rows, width=768, iterations=40))
        seq_nonzero = base.run_sequential(
            "sor", SorParams(rows=rows, width=768, iterations=40,
                             nonzero=True))
        speedup_zero = seq_zero.time / zero.time
        speedup_nonzero = seq_nonzero.time / nonzero.time
        assert speedup_zero < speedup_nonzero
