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
#: Values as recorded, less the retired ``"recovery": null`` member.
WATER_PINS = {
    ("fig08", "tmk", 1): "c83c72a20f95f48829f0b6e00b267cffd06426813d871f2f3a3d6adbcbde8d32",
    ("fig08", "tmk", 3): "b80f89b97f74bbf879af33a52fb999431c26cc62bbeeec946c30980dd0d65e61",
    ("fig08", "tmk", 8): "1e5ba6a9ef6eb301912c5f5a6ca38243f08830499228738ddf95a64ae1824d57",
    ("fig08", "pvm", 1): "1db3c08af86825b11f596d9f10f905759bb41b242c04d629da3775b151484b5a",
    ("fig08", "pvm", 3): "20d914188da119f4700f040e4158c6ff0f39d26a8bd51fccb3eda46d269f5fe9",
    ("fig08", "pvm", 8): "be9b1421d3efb9afbf7473eb36f6f7b944231230617eee01d8d2e09f78bc6ea4",
    ("fig08", "ivy", 1): "6edc0a608edee9d1a0b34fbefc9590dd7f6476a8c02fb01cc4c1bed2eefff107",
    ("fig08", "ivy", 3): "25b8e79437fb5f314ab850add3d88440b56e6761011ab840b0f32a7775576091",
    ("fig08", "ivy", 8): "59115e943a612046ae5962bd69ac56cd5f9bc79bf80b6e03323ad4ee659bac2c",
    ("fig09", "tmk", 1): "2f60f7a34f2097e5c5f555639dc468de577eeaa357765ddbdaffda1b1841e85b",
    ("fig09", "tmk", 3): "78196f331d4552627020147b0f03c81972b8e7f0877f2e25e9555ac143210b4b",
    ("fig09", "tmk", 8): "bbd77d301303cee904e3d6a3aaa4586b63e917c08e10eca15e88a963bd7c44a9",
    ("fig09", "pvm", 1): "f6a0462bca0927adae81a755e3e490f3bce64a674a2255b6f3d064ca7898edd3",
    ("fig09", "pvm", 3): "0d6b534339fc49212fd64eb30018db3dbc8ec2ad187d16956762313b6f15a143",
    ("fig09", "pvm", 8): "11249731b17f4bf4ed3beaf98ec6997f2c5048c7d9f06adc331d58ae5cf99574",
    ("fig09", "ivy", 1): "9906e39469ca5276b7967e98c412b368513e943e8049be2ca939f94c1642f3e4",
    ("fig09", "ivy", 3): "cee7407e8ef8f0bd7eeddb22894ea44390d1a0024ff2feb66dc2155939b11230",
    ("fig09", "ivy", 8): "1350e72134109fc14a1927e6fce9a1e0e91582741b1d809c224553bf4c30ae1e",
}


@pytest.mark.parametrize("experiment, system, nprocs", sorted(WATER_PINS))
def test_water_result_bytes_are_pinned(experiment, system, nprocs):
    result = api.run(api.RunConfig(experiment, system, nprocs, "tiny"),
                     use_cache=False)
    assert hashlib.sha256(result.to_json_bytes()).hexdigest() == \
        WATER_PINS[experiment, system, nprocs]
