"""Tests for IS (Integer Sort)."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.apps import base, is_sort
from repro.apps.is_sort import (IsParams, all_keys, block_keys, count_keys,
                                rank_checksum)
from repro.bench import harness


class TestKernel:
    def test_blocks_partition_the_keys(self):
        p = IsParams.tiny()
        full = all_keys(p)
        pieces = [block_keys(full, pid, 5) for pid in range(5)]
        assert np.array_equal(np.concatenate(pieces), full)

    def test_counts_sum_to_nkeys(self):
        p = IsParams.tiny()
        counts = count_keys(all_keys(p), p.bmax)
        assert counts.sum() == p.nkeys

    def test_rank_checksum_additive_over_blocks(self):
        """The verification value must decompose over key blocks."""
        p = IsParams.tiny()
        full = all_keys(p)
        buckets = count_keys(full, p.bmax)
        total = rank_checksum(buckets, full)
        partial = sum(rank_checksum(buckets, block_keys(full, pid, 4))
                      for pid in range(4))
        assert partial == total

    def test_ranks_are_exclusive_prefixes(self):
        buckets = np.array([2, 0, 3], dtype=np.int32)
        keys = np.array([0, 1, 2])
        # ranks: key0 -> 0, key1 -> 2, key2 -> 2
        assert rank_checksum(buckets, keys) == 0 + 2 + 2


class TestCorrectness:
    def test_small_buckets(self, check_app):
        check_app("is", IsParams.tiny())

    def test_large_buckets(self, check_app):
        check_app("is", IsParams.tiny(large=True))


class TestPaperBehaviour:
    def test_pvm_chain_messages(self):
        """(n-1) chain messages + (n-1) broadcast per iteration."""
        p = IsParams(log2_keys=12, log2_bmax=7, iterations=5)
        n = 4
        par = base.run_parallel("is", "pvm", n, p)
        assert par.total_messages() == 2 * (n - 1) * p.iterations

    def test_diff_accumulation_data_formula(self):
        """TreadMarks moves ~ n*(n-1)*b bytes per iteration against PVM's
        2*(n-1)*b -- a factor of n/2 at the same bucket size."""
        # Dense occupancy (keys >> buckets) so every merge changes every
        # bucket word and the diffs are full-size, as in the paper's runs.
        p = IsParams(log2_keys=15, log2_bmax=9, iterations=4)
        n = 8
        tmk = base.run_parallel("is", "tmk", n, p)
        pvm = base.run_parallel("is", "pvm", n, p)
        ratio = tmk.total_kbytes() / pvm.total_kbytes()
        assert 0.6 * (n / 2) <= ratio <= 1.4 * (n / 2)

    def test_large_buckets_need_per_page_requests(self):
        """The 2^15-bucket array spans 32 pages: each access costs many
        request/response pairs where PVM exchanges one message."""
        small = base.run_parallel("is", "tmk", 4, IsParams.tiny())
        large = base.run_parallel("is", "tmk", 4, IsParams.tiny(large=True))
        assert (large.stats.get("tmk", "diff_request").messages
                > 4 * small.stats.get("tmk", "diff_request").messages)

    def test_first_updater_overwrites(self):
        """The shared array is completely overwritten each iteration, so
        counts never leak between iterations (meta counter resets)."""
        p = IsParams(log2_keys=12, log2_bmax=7, iterations=3)
        seq = base.run_sequential("is", p)
        par = base.run_parallel("is", "tmk", 3, p)
        assert par.result[0] == seq.result[0]
        # Bucket totals equal nkeys exactly once (no accumulation).
        assert sum(par.result[0]) == p.nkeys


class TestOneDrawPerRun:
    @pytest.fixture
    def draws(self, monkeypatch):
        """The params of every full key-array draw, in order."""
        seen = []
        real = is_sort.all_keys

        def counting(params):
            seen.append(params)
            return real(params)

        monkeypatch.setattr(is_sort, "all_keys", counting)
        return seen

    @pytest.mark.parametrize("system", ["tmk", "pvm"])
    def test_a_run_draws_once_and_the_next_again(self, draws, system):
        config = api.RunConfig("fig04", system, 8, "tiny")
        for _ in range(2):
            draws.clear()
            api.simulate(config)
            assert len(draws) == 1
        draws.clear()
        params = harness.params_for(harness.EXPERIMENTS["fig04"], "tiny")
        base.run_sequential("is", params)
        assert len(draws) == 1  # the oracle draws its own

    def test_keyed_by_params_and_read_only(self):
        proc = SimpleNamespace(cluster=SimpleNamespace(memo={}))
        keys = is_sort.run_keys(proc, IsParams.tiny())
        assert keys is is_sort.run_keys(proc, IsParams.tiny())
        with pytest.raises(ValueError):
            block_keys(keys, 0, 2)[0] = 1  # one processor's block is shared
        large = IsParams.tiny(large=True)
        assert np.array_equal(is_sort.run_keys(proc, large), all_keys(large))


#: sha256 of ``RunResult.to_json_bytes()`` for fig04/fig05 at the tiny
#: preset, recorded when every processor still drew the keys itself.
IS_PINS = {
    ("fig04", "tmk", 1): "6ffb4c10817ccfdb6a9e0fca5ec28f9489e301a21179f27742e1db1605a4f0cf",
    ("fig04", "tmk", 3): "3de579e3cfcf53df52cf696fe76d61b321ca2d5de173a562a253ca0ca3524b7f",
    ("fig04", "tmk", 8): "a34e7ed3c8447cfe6c3326bfad1cfffa95f8e7d01f6855a53fa03855a3b651d9",
    ("fig04", "pvm", 1): "80b9dd3c5ea44a40bd272cba299d20d47db936a43415d18f3c289dd995d25183",
    ("fig04", "pvm", 3): "9ca80496afca7301b83ff4b8b81a2bf4f4659fc68ddf883111c7b64f14ec6164",
    ("fig04", "pvm", 8): "d3028858572402c6e20f4e765d834f238b2a9554501eb2ab3ff85dbb288234fc",
    ("fig05", "tmk", 1): "0a88c8f5d5b44ee87c4e9fea310cadad79920456f709588766da128f49ce2c7c",
    ("fig05", "tmk", 3): "c21e75f684b72554dee1c7fc8a11f50f71f86bbed627a4e6c66d2f53a4ab5106",
    ("fig05", "tmk", 8): "eef3c37ebf6a6727f5c8def408dee69a5b039359c2d64f1f98a3ccadfc781995",
    ("fig05", "pvm", 1): "5a9fd20b9318f5466746749c13cbd831d34c87161413cd429298636d7904bab6",
    ("fig05", "pvm", 3): "b1ccd58bc2df8c9761d22d382062ba5885d7d0e1c281b801d7d487cdacbe7bb0",
    ("fig05", "pvm", 8): "5dde2335045adfe2aa240a58dea481b98fd4274da1897359d4efc6128d05c541",
}


@pytest.mark.parametrize("experiment, system, nprocs", sorted(IS_PINS))
def test_result_bytes_are_pinned(experiment, system, nprocs):
    result = api.run(api.RunConfig(experiment, system, nprocs, "tiny"),
                     use_cache=False)
    assert hashlib.sha256(result.to_json_bytes()).hexdigest() == \
        IS_PINS[experiment, system, nprocs]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP 2(d): ranking reads the counts after the barrier without a "
    "lock; under sequential consistency a faster processor's next-"
    "iteration overwrite reaches that read"))
def test_sc_runtime_ranks_the_barrier_snapshot():
    params = harness.params_for(harness.EXPERIMENTS["fig05"], "tiny")
    seq = base.run_sequential("is", params)
    par = base.run_parallel("is", "ivy", 2, params)
    assert par.result[0] == seq.result[0]  # the final buckets agree
    assert par.result[1] == seq.result[1]  # 20 966 719 against 25 158 837
