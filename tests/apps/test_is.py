"""Tests for IS (Integer Sort)."""

import numpy as np
import pytest

from repro.apps import base
from repro.apps.is_sort import (IsParams, all_keys, block_keys, count_keys,
                                rank_checksum)
from repro.bench import harness


class TestKernel:
    def test_blocks_partition_the_keys(self):
        p = IsParams.tiny()
        full = all_keys(p)
        pieces = [block_keys(p, pid, 5) for pid in range(5)]
        assert np.array_equal(np.concatenate(pieces), full)

    def test_counts_sum_to_nkeys(self):
        p = IsParams.tiny()
        counts = count_keys(all_keys(p), p.bmax)
        assert counts.sum() == p.nkeys

    def test_rank_checksum_additive_over_blocks(self):
        """The verification value must decompose over key blocks."""
        p = IsParams.tiny()
        buckets = count_keys(all_keys(p), p.bmax)
        total = rank_checksum(buckets, all_keys(p))
        partial = sum(rank_checksum(buckets, block_keys(p, pid, 4))
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
