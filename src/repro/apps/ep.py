"""EP -- Embarrassingly Parallel (NAS benchmark).

"EP generates pairs of Gaussian random deviates and tabulates the number of
pairs in successive square annuli.  In the parallel version the only
communication is summing up a ten-integer list at the end of the program.
In TreadMarks, updates to the shared list are protected by a lock.  In PVM,
processor 0 receives the lists from each processor and sums them up."

Both versions achieve near-linear speedup because communication is
negligible relative to computation (paper Figure 1).

Determinism: pairs are generated in fixed-size blocks, each from its own
PCG64 stream, and blocks are assigned to processors -- so the sequential
and every parallel run tabulate exactly the same deviates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppSpec, register

__all__ = ["EpParams", "APP", "generate_block", "NUM_ANNULI"]

NUM_ANNULI = 10
#: Pairs generated per RNG block (the unit of work distribution).
BLOCK_PAIRS = 1 << 14
#: Virtual CPU seconds per generated pair (Gaussian transform + tabulate);
#: calibrated to a ~100 MHz workstation running the NAS EP inner loop.
PAIR_CPU = 1.0e-6


@dataclass(frozen=True)
class EpParams:
    """Problem size: ``2**log2_pairs`` pairs of deviates."""

    log2_pairs: int = 22
    seed: int = 271828

    @classmethod
    def tiny(cls) -> "EpParams":
        return cls(log2_pairs=16)

    @classmethod
    def bench(cls) -> "EpParams":
        return cls(log2_pairs=22)

    @classmethod
    def paper(cls) -> "EpParams":
        """NAS class A: 2**28 pairs."""
        return cls(log2_pairs=28)

    @property
    def npairs(self) -> int:
        return 1 << self.log2_pairs

    @property
    def nblocks(self) -> int:
        return max(1, self.npairs // BLOCK_PAIRS)

    @property
    def pairs_per_block(self) -> int:
        return min(self.npairs, BLOCK_PAIRS)


def generate_block(params: EpParams, block: int) -> np.ndarray:
    """Tabulate one block of pairs into a 10-annulus histogram.

    Marsaglia polar method, as in NAS EP: uniform (x, y) in (-1, 1)^2,
    accept t = x^2+y^2 <= 1, deviates X = x*sqrt(-2 ln t / t) (same for Y),
    tally annulus floor(max(|X|, |Y|)).
    """
    rng = np.random.Generator(np.random.PCG64(params.seed + block))
    n = params.pairs_per_block
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.uniform(-1.0, 1.0, n)
    t = x * x + y * y
    accept = (t <= 1.0) & (t > 0.0)
    t = t[accept]
    factor = np.sqrt(-2.0 * np.log(t) / t)
    gx = np.abs(x[accept] * factor)
    gy = np.abs(y[accept] * factor)
    annulus = np.floor(np.maximum(gx, gy)).astype(np.int64)
    annulus = annulus[annulus < NUM_ANNULI]
    return np.bincount(annulus, minlength=NUM_ANNULI)


def _block_cost(params: EpParams) -> float:
    return params.pairs_per_block * PAIR_CPU


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: EpParams) -> list:
    meter.mark()
    counts = np.zeros(NUM_ANNULI, dtype=np.int64)
    for block in range(params.nblocks):
        counts += generate_block(params, block)
        meter.compute(_block_cost(params))
    return counts.tolist()


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
_LOCK = 0
_B_START, _B_DONE = 0, 1


def tmk_main(proc, params: EpParams):
    tmk = proc.tmk
    shared = tmk.shared_array("ep_counts", (NUM_ANNULI,), np.int64)
    yield from tmk.barrier(_B_START)
    if tmk.pid == 0:
        proc.cluster.start_measurement(proc)
    local = np.zeros(NUM_ANNULI, dtype=np.int64)
    for block in range(tmk.pid, params.nblocks, tmk.nprocs):
        local += generate_block(params, block)
        proc.compute(_block_cost(params))
    yield from tmk.lock_acquire(_LOCK)
    yield from shared.add(slice(0, NUM_ANNULI), local)
    yield from tmk.lock_release(_LOCK)
    yield from tmk.barrier(_B_DONE)
    if tmk.pid == 0:
        counts = yield from shared.read()
        return counts.tolist()
    return None


# ----------------------------------------------------------------------
# PVM
# ----------------------------------------------------------------------
_TAG_COUNTS = 10


def pvm_main(proc, params: EpParams):
    pvm = proc.pvm
    if pvm.mytid == 0:
        proc.cluster.start_measurement(proc)
    counts = np.zeros(NUM_ANNULI, dtype=np.int64)
    for block in range(pvm.mytid, params.nblocks, pvm.nprocs):
        counts += generate_block(params, block)
        proc.compute(_block_cost(params))
    if pvm.mytid == 0:
        for _ in range(pvm.nprocs - 1):
            buf = yield from pvm.recv(-1, _TAG_COUNTS)
            counts += buf.upklong(NUM_ANNULI)
        return counts.tolist()
    buf = pvm.initsend()
    buf.pklong(counts)
    yield from pvm.send(0, _TAG_COUNTS, buf)
    return None


APP = register(AppSpec(
    name="ep",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=lambda par, seq: par == seq,
))
