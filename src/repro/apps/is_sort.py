"""IS -- Integer Sort (NAS benchmark): bucket-sort key ranking.

"The parallel version of IS divides up the keys among the processors.
First each processor counts its keys and writes the result in a private
array of buckets.  Then the values in the private buckets are summed up.
Finally all processors read the sum and rank their keys."

* **TreadMarks**: a shared bucket array; each processor locks it, merges
  its private counts, releases, waits at a barrier, then reads the final
  sums.  Because every processor's merge *completely overwrites* the
  previous values, a lock acquirer receives every preceding processor's
  diff even though they overlap -- *diff accumulation*: per iteration
  TreadMarks moves ~ n*(n-1)*b bytes versus PVM's 2*(n-1)*b.
* **PVM**: processors form a chain (0 sends its buckets to 1, which adds
  its own and forwards, ...); the last processor computes the final sums
  and broadcasts them: 2*(n-1) messages per iteration.

Two bucket sizes (paper Figures 4 and 5): IS-Small's bucket array fits in
a page; IS-Large's spans 32 pages, so every TreadMarks access costs 32
diff request/response pairs where PVM uses a single message exchange --
the paper's worst case for TreadMarks (PVM twice as fast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppSpec, register

__all__ = ["IsParams", "APP"]

#: Virtual CPU seconds per key for the counting pass.
COUNT_CPU = 0.8e-6
#: Virtual CPU seconds per key for the ranking pass.
RANK_CPU = 0.8e-6
#: Virtual CPU seconds per bucket for array merges / prefix sums.
BUCKET_CPU = 0.02e-6


@dataclass(frozen=True)
class IsParams:
    """``2**log2_keys`` keys in ``[0, 2**log2_bmax)``, ranked for
    ``iterations`` repetitions."""

    log2_keys: int = 18
    log2_bmax: int = 10
    iterations: int = 10
    seed: int = 314159

    @classmethod
    def tiny(cls, large: bool = False) -> "IsParams":
        return cls(log2_keys=12, log2_bmax=15 if large else 7, iterations=3)

    @classmethod
    def bench_small(cls) -> "IsParams":
        return cls(log2_keys=20, log2_bmax=10, iterations=10)

    @classmethod
    def bench_large(cls) -> "IsParams":
        return cls(log2_keys=20, log2_bmax=15, iterations=10)

    @classmethod
    def paper_small(cls) -> "IsParams":
        """N = 2**20 keys, small bucket range."""
        return cls(log2_keys=20, log2_bmax=10, iterations=10)

    @classmethod
    def paper_large(cls) -> "IsParams":
        """N = 2**20 keys, 2**15-entry bucket array (32 pages)."""
        return cls(log2_keys=20, log2_bmax=15, iterations=10)

    @property
    def nkeys(self) -> int:
        return 1 << self.log2_keys

    @property
    def bmax(self) -> int:
        return 1 << self.log2_bmax


def all_keys(params: IsParams) -> np.ndarray:
    """The full key array (identical in every version)."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    return rng.integers(0, params.bmax, size=params.nkeys, dtype=np.int32)


def run_keys(proc, params: IsParams) -> np.ndarray:
    """The full key array, drawn once per run and shared read-only by
    every processor of ``proc``'s cluster (DESIGN section 5m).  The key
    is every parameter the draw depends on; the oracle draws its own."""
    key = (params.seed, params.log2_keys, params.log2_bmax)
    memo = proc.cluster.memo
    entry = memo.get(__name__)
    if entry is None or entry[0] != key:
        keys = all_keys(params)
        keys.flags.writeable = False
        entry = memo[__name__] = (key, keys)
    return entry[1]


def block_keys(keys: np.ndarray, pid: int, nprocs: int) -> np.ndarray:
    """The contiguous block of the full key array owned by ``pid``."""
    lo = pid * keys.size // nprocs
    hi = (pid + 1) * keys.size // nprocs
    return keys[lo:hi]


def count_keys(keys: np.ndarray, bmax: int) -> np.ndarray:
    return np.bincount(keys, minlength=bmax).astype(np.int32)


def count_cost(params: IsParams, nkeys_local: int) -> float:
    return nkeys_local * COUNT_CPU + params.bmax * BUCKET_CPU


def rank_cost(params: IsParams, nkeys_local: int) -> float:
    return nkeys_local * RANK_CPU + params.bmax * BUCKET_CPU


def rank_checksum(buckets: np.ndarray, keys: np.ndarray) -> int:
    """Sum of the exclusive-prefix ranks of ``keys`` (verification value;
    additive across disjoint key blocks, so parallel partials sum to the
    sequential total)."""
    buckets = np.asarray(buckets, dtype=np.int64)
    prefix = np.cumsum(buckets) - buckets
    return int(prefix[keys].sum())


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: IsParams):
    meter.mark()
    keys = all_keys(params)
    buckets = np.zeros(params.bmax, dtype=np.int32)
    checksum = 0
    for _ in range(params.iterations):
        buckets = count_keys(keys, params.bmax)
        meter.compute(count_cost(params, keys.size))
        checksum += rank_checksum(buckets, keys)
        meter.compute(rank_cost(params, keys.size))
    return buckets.tolist(), checksum


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
_LOCK_BUCKETS = 3


def tmk_main(proc, params: IsParams):
    tmk = proc.tmk
    shared = tmk.shared_array("is_buckets", (params.bmax,), np.int32)
    # Per-iteration updater counter, on its own page, same lock.
    meta = tmk.shared_array("is_meta", (1,), np.int32)
    keys = block_keys(run_keys(proc, params), tmk.pid, tmk.nprocs)
    yield from tmk.barrier(0)
    if tmk.pid == 0:
        proc.cluster.start_measurement(proc)
    checksum = 0
    for it in range(params.iterations):
        private = count_keys(keys, params.bmax)
        proc.compute(count_cost(params, keys.size))
        yield from tmk.lock_acquire(_LOCK_BUCKETS)
        updater = yield from meta.get(0)
        if int(updater) == 0:
            # First updater of this iteration overwrites the stale counts
            # (the "complete overwrite" the paper's diff-accumulation
            # analysis describes).
            yield from shared.write(slice(0, params.bmax), private)
        else:
            yield from shared.add(slice(0, params.bmax), private)
        updater = yield from meta.get(0)
        yield from meta.set(0, (int(updater) + 1) % tmk.nprocs)
        proc.compute(params.bmax * BUCKET_CPU)
        yield from tmk.lock_release(_LOCK_BUCKETS)
        yield from tmk.barrier(1 + it)
        # A race, benign only under lazy release consistency: ranking
        # reads the barrier-time counts while the next iteration's first
        # updater may already be overwriting them.  Under LRC those writes
        # cannot reach this copy before the next barrier, so every
        # processor ranks the same values.  Under sequential consistency
        # (ivy) they can: a fast processor's overwrite invalidates this
        # copy and a slow processor ranks the partial counts, so fig05's
        # checksum comes out low at 2-4 processors (ROADMAP item 2(d)).
        buckets = yield from shared.read_racy(slice(0, params.bmax))
        checksum += rank_checksum(buckets, keys)
        proc.compute(rank_cost(params, keys.size))
    final = yield from shared.read(slice(0, params.bmax))
    final = final.copy()
    return final.tolist(), checksum


# ----------------------------------------------------------------------
# PVM
# ----------------------------------------------------------------------
_TAG_CHAIN = 20
_TAG_FINAL = 21


def pvm_main(proc, params: IsParams):
    pvm = proc.pvm
    me, n = pvm.mytid, pvm.nprocs
    if me == 0:
        proc.cluster.start_measurement(proc)
    keys = block_keys(run_keys(proc, params), me, n)
    checksum = 0
    buckets = np.zeros(params.bmax, dtype=np.int32)
    for _ in range(params.iterations):
        private = count_keys(keys, params.bmax)
        proc.compute(count_cost(params, keys.size))
        if n == 1:
            buckets = private
        elif me == n - 1:
            got = yield from pvm.recv(me - 1, _TAG_CHAIN)
            buckets = got.upkint(params.bmax).astype(np.int32) + private
            proc.compute(params.bmax * BUCKET_CPU)
            buf = pvm.initsend()
            buf.pkint(buckets)
            yield from pvm.mcast(
                [p for p in range(n) if p != me], _TAG_FINAL, buf)
        else:
            if me == 0:
                partial = private
            else:
                got = yield from pvm.recv(me - 1, _TAG_CHAIN)
                partial = got.upkint(params.bmax).astype(np.int32) + private
                proc.compute(params.bmax * BUCKET_CPU)
            buf = pvm.initsend()
            buf.pkint(partial)
            yield from pvm.send(me + 1, _TAG_CHAIN, buf)
            got = yield from pvm.recv(n - 1, _TAG_FINAL)
            buckets = got.upkint(params.bmax).astype(np.int32)
        checksum += rank_checksum(buckets, keys)
        proc.compute(rank_cost(params, keys.size))
    return buckets.tolist(), checksum


def _collect(results):
    """Counts from processor 0; rank checksums summed across processors
    (each processor ranks only its own keys)."""
    return list(results[0][0]), sum(r[1] for r in results)


def _verify(par, seq) -> bool:
    return list(par[0]) == list(seq[0]) and par[1] == seq[1]


APP = register(AppSpec(
    name="is",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=_verify,
    collect=_collect,
))
