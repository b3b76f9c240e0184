"""Tests for Water (molecular dynamics)."""

import hashlib

import numpy as np
import pytest

from repro import api
from repro.apps import base
from repro.apps.water import (INTRA_CPU, PAIR_CPU, WaterParams, _SOFT, chunk,
                              initial_positions, owners_touched,
                              window_forces)


class TestDecomposition:
    def test_chunks_cover_molecules(self):
        covered = []
        for pid in range(5):
            lo, hi = chunk(pid, 5, 64)
            covered.extend(range(lo, hi))
        assert covered == list(range(64))

    def test_owners_touched_covers_window(self):
        spans = owners_touched(8, 16, 4, 64)  # chunk [8,16), window +32
        rows = sorted({r for _, lo, hi in spans for r in range(lo, hi)})
        expected = sorted(set(range(8, 48)))
        assert rows == expected

    def test_owners_touched_no_duplicates(self):
        for nprocs in (1, 2, 3, 8):
            for pid in range(nprocs):
                lo, hi = chunk(pid, nprocs, 64)
                spans = owners_touched(lo, hi, nprocs, 64)
                seen = []
                for _, olo, ohi in spans:
                    seen.extend(range(olo, ohi))
                assert len(seen) == len(set(seen)), \
                    f"duplicate rows at nprocs={nprocs} pid={pid}"

    def test_wraparound_spans(self):
        spans = owners_touched(56, 64, 8, 64)  # last chunk wraps
        rows = {r for _, lo, hi in spans for r in range(lo, hi)}
        assert 0 in rows and 63 in rows


class TestForces:
    def test_newton_third_law_total_force_zero(self):
        pos = initial_positions(WaterParams.tiny())
        forces, _ = window_forces(pos, 0, pos.shape[0])
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-9)

    def test_window_partition_sums_to_full(self):
        pos = initial_positions(WaterParams.tiny())
        n = pos.shape[0]
        full, _ = window_forces(pos, 0, n)
        partial = np.zeros_like(full)
        for pid in range(4):
            lo, hi = chunk(pid, 4, n)
            piece, _ = window_forces(pos, lo, hi)
            partial += piece
        assert np.allclose(partial, full, rtol=1e-12)

    def test_cost_proportional_to_pairs(self):
        pos = initial_positions(WaterParams.tiny())
        _, cost_half = window_forces(pos, 0, pos.shape[0] // 2)
        _, cost_full = window_forces(pos, 0, pos.shape[0])
        assert cost_full == pytest.approx(2 * cost_half)


def gathered_window_forces(pos, lo, hi):
    """``window_forces`` as it was before slices: the wrapped window
    gathered with ``% n`` fancy indexing, one row at a time."""
    n = pos.shape[0]
    half = n // 2
    forces = np.zeros_like(pos)
    for i in range(lo, hi):
        idx = np.arange(i + 1, i + 1 + half) % n
        delta = pos[i] - pos[idx]
        r2 = (delta ** 2).sum(axis=1) + _SOFT
        f = delta / (r2 ** 2)[:, None]
        forces[i] += f.sum(axis=0)
        forces[idx] -= f
    cost = (hi - lo) * half * PAIR_CPU + (hi - lo) * INTRA_CPU
    return forces, cost


@pytest.mark.parametrize("nmol", [1, 2, 3, 5, 64, 65, 288, 1728])
def test_sliced_window_is_bit_identical_to_the_gather(nmol):
    pos = initial_positions(WaterParams(nmol=nmol))
    for nprocs in (1, 2, 3, 8):
        for pid in range(nprocs):
            lo, hi = chunk(pid, nprocs, nmol)
            forces, cost = window_forces(pos, lo, hi)
            old_forces, old_cost = gathered_window_forces(pos, lo, hi)
            assert forces.tobytes() == old_forces.tobytes(), (nprocs, pid)
            assert cost == old_cost


class TestCorrectness:
    def test_positions_match_sequential(self, check_app):
        check_app("water", WaterParams.tiny())


class TestPaperBehaviour:
    def test_false_sharing_shrinks_with_problem_size(self):
        """At 288 molecules the shared arrays span ~2 pages and chunk
        boundaries cut pages everywhere; at 1728 the boundary fraction
        drops, so the TMK/PVM data ratio falls (paper section 3.6)."""
        small_t = base.run_parallel("water", "tmk", 8, WaterParams(nmol=288, steps=1))
        small_p = base.run_parallel("water", "pvm", 8, WaterParams(nmol=288, steps=1))
        big_t = base.run_parallel("water", "tmk", 8, WaterParams(nmol=1728, steps=1))
        big_p = base.run_parallel("water", "pvm", 8, WaterParams(nmol=1728, steps=1))
        small_ratio = small_t.total_kbytes() / small_p.total_kbytes()
        big_ratio = big_t.total_kbytes() / big_p.total_kbytes()
        assert big_ratio < small_ratio

    def test_per_owner_locks_used(self):
        par = base.run_parallel("water", "tmk", 4, WaterParams.tiny())
        assert par.stats.get("tmk", "lock_grant").messages > 0

    def test_pvm_two_messages_per_interacting_pair_per_step(self):
        """"Two user-level messages are sent for each pair of processors
        that interact": displacements one way, forces the other."""
        p = WaterParams(nmol=64, steps=3)
        n = 4
        par = base.run_parallel("water", "pvm", n, p)
        # Derive the interacting pairs from the wraparound window: each
        # contributor sends positions to / receives forces from exactly
        # the owners its window touches.
        expected_per_step = 0
        for pid in range(n):
            lo, hi = chunk(pid, n, p.nmol)
            targets = [o for o, _, _ in owners_touched(lo, hi, n, p.nmol)
                       if o != pid]
            expected_per_step += 2 * len(set(targets))
        per_step = par.total_messages() / p.steps
        assert per_step == pytest.approx(expected_per_step, rel=0.01)


#: sha256 of ``RunResult.to_json_bytes()`` for fig08 (288 molecules) and
#: fig09 (1728) at the tiny preset, recorded when the force window was
#: still gathered with fancy indexing.
WATER_PINS = {
    ("fig08", "tmk", 1): "91d4c7bab99394901ca6181d2c010e83ba1d1e0dd5410d12c277d70a93dfaacc",
    ("fig08", "tmk", 3): "42288c6a7bd43d0480fc7bcab7a64442c127a0f329c4f8ec8f459497e406a5f3",
    ("fig08", "tmk", 8): "82987c6d51b0a780eb99b21cf463784bef4ac701b7e0b2b8327e7192230f6d8b",
    ("fig08", "pvm", 1): "e2a993ef0956e122c041385a243f8aff1705a58a39e3780ea43dee28cf3483ab",
    ("fig08", "pvm", 3): "298cf8834f6626e99efd140c208e2a3833273ab4ae81d1a543353ab0cbe09fd0",
    ("fig08", "pvm", 8): "89f62c78c88dadd8eb9c362bba77be2b354cac95d348f9209ad5766a81453835",
    ("fig08", "ivy", 1): "4017f56736eb44002781bd0eb3f4ec834ed79a4eef9abc762a1f9f3071b0c2a3",
    ("fig08", "ivy", 3): "f55a071507f14873ef5838f88a3576b0ea9c3a5cc47c5bf60035591d3d44b8b8",
    ("fig08", "ivy", 8): "c85a18ed949f3fe064bc3f46be2f9e85d989a297157b198e6dcc807354d47a14",
    ("fig09", "tmk", 1): "08ab51e3a3cdb1fb8f426ec6b09eb469594f689d0a3bb2d364275e56c4a5cdf1",
    ("fig09", "tmk", 3): "a325c502352d443caa75d36cea955b637077a48824840b7818b3e1260649f7ea",
    ("fig09", "tmk", 8): "2710735f27ab3db92ba1002b9a6c71fde2b1a6ccb7124ad87842f75ee14952da",
    ("fig09", "pvm", 1): "2573ea3f106c2fbbe930c3a6bee9995a270917939e6c1fe2115202fe284ff7de",
    ("fig09", "pvm", 3): "5f0e2953e281e486173e6a5cee2622327351fb023c3e891741a70cac66a7b29e",
    ("fig09", "pvm", 8): "ef88fb8d42fe1a7d99325bf93b86410a1fb466efbe86a976caf4c5b04d020d13",
    ("fig09", "ivy", 1): "48c819d954ca5fe1f5f0b17ef0c16254849a7079dceae55b03b7783253979b9b",
    ("fig09", "ivy", 3): "e70757317400f4c314a8423a7a0e7c086478f04bbf97cc0f47023f2dbda54923",
    ("fig09", "ivy", 8): "ad9e5ca474247aec18c786a371f5f65347ee6b2973229915cda3fa6df36a4493",
}


@pytest.mark.parametrize("experiment, system, nprocs", sorted(WATER_PINS))
def test_water_result_bytes_are_pinned(experiment, system, nprocs):
    result = api.run(api.RunConfig(experiment, system, nprocs, "tiny"),
                     use_cache=False)
    assert hashlib.sha256(result.to_json_bytes()).hexdigest() == \
        WATER_PINS[experiment, system, nprocs]
