"""ILINK -- genetic linkage analysis (the paper's "problem of practical size").

ILINK locates disease genes on chromosomes by maximizing the likelihood of
observed pedigrees.  The main data structure is a pool ("bank") of
*genarrays* -- per-person vectors holding the probability of each genotype.
Genarrays are sparse, so an index of nonzero entries accompanies each.
"A bank of genarrays large enough to accommodate the biggest nuclear
family is allocated at the beginning of the program, and the same bank is
reused for each nuclear family", being *re-initialized* per family -- the
source of the paper's third TreadMarks overhead, diff accumulation.

Parallelization (Dwarkadas et al.): updates to one person's genarray are
split by assigning the nonzero elements of the parent's genarray to
processors *round-robin*; every processor computes its share's
contribution, and the master sums the per-processor contributions.

* **TreadMarks** costs identified by the paper (Figure 12): (1) the
  genarray spans several pages, so reading it costs one diff
  request/response per page where PVM uses a single message; (2) the
  round-robin split means a processor faults in whole pages containing
  mostly *other* processors' elements -- false sharing; (3) bank
  re-initialization makes acquirers pull diffs from older families.
  Diffing automatically ships only nonzero (changed) elements.
* **PVM**: the master sends each slave exactly its assigned nonzero
  elements and receives sparse contributions back -- two messages per
  slave per family.

The genetics here are synthetic (a transmission kernel over a genotype
bit-string with recombination fraction theta, deterministic penetrance
masks per family) but the data layout, sparsity structure, work
distribution, and communication pattern follow the real parallel ILINK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.apps.base import AppSpec, register

__all__ = ["IlinkParams", "APP"]

#: Virtual CPU seconds per (nonzero element x output element) update.
ELEM_CPU = 80e-6
#: Virtual CPU seconds for the master's per-family bookkeeping per element.
INIT_CPU = 0.2e-6
#: Recombination fraction.
_THETA = 0.16


@dataclass(frozen=True)
class IlinkParams:
    """``genarray_len`` must be a power of two (genotypes are bit
    strings); ``nonzeros`` parent entries drive each family update."""

    genarray_len: int = 2048
    nonzeros: int = 96
    #: Support size of each family's penetrance mask (output sparsity).
    mask_size: int = 384
    families: int = 16
    seed: int = 602214

    @classmethod
    def tiny(cls) -> "IlinkParams":
        return cls(genarray_len=256, nonzeros=16, mask_size=48, families=4)

    @classmethod
    def bench(cls) -> "IlinkParams":
        return cls()

    @classmethod
    def paper(cls) -> "IlinkParams":
        """CLP data set scale: bigger pedigree, more families."""
        return cls(genarray_len=4096, nonzeros=128, mask_size=512,
                   families=32)


def _popcount_table(bits: int) -> np.ndarray:
    table = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        table[(np.arange(1 << bits) >> b) & 1 == 1] += 1
    return table


class Pedigree:
    """Deterministic synthetic pedigree shared by all versions."""

    def __init__(self, params: IlinkParams) -> None:
        self.params = params
        self.bits = int(np.log2(params.genarray_len))
        if (1 << self.bits) != params.genarray_len:
            raise ValueError("genarray_len must be a power of two")
        self._pop = _popcount_table(self.bits)
        rng = np.random.Generator(np.random.PCG64(params.seed))
        self.masks = [np.sort(rng.choice(params.genarray_len,
                                         size=params.mask_size,
                                         replace=False))
                      for _ in range(params.families)]
        self.penetrance = [rng.uniform(0.1, 1.0, size=params.mask_size)
                           for _ in range(params.families)]
        self.first_nonzeros = np.sort(rng.choice(
            params.genarray_len, size=params.nonzeros, replace=False))
        self.first_values = rng.uniform(0.1, 1.0, size=params.nonzeros)

    def transmission(self, i: int, mask: np.ndarray) -> np.ndarray:
        """P(child genotype j | parent genotype i) over ``mask`` columns:
        theta^popcount(i xor j) * (1-theta)^(bits - popcount)."""
        flips = self._pop[np.bitwise_xor(mask, i)]
        return (_THETA ** flips) * ((1.0 - _THETA) ** (self.bits - flips))

    def contribution(self, family: int, indices: np.ndarray,
                     values: np.ndarray) -> Tuple[np.ndarray, float]:
        """Contribution of parent nonzeros (indices, values) to the family
        posterior over the family's mask.  Returns (mask-length vector,
        virtual cost)."""
        mask = self.masks[family]
        pen = self.penetrance[family]
        out = np.zeros(mask.size)
        for i, v in zip(indices, values):
            out += v * self.transmission(int(i), mask)
        out *= pen
        cost = indices.size * mask.size * ELEM_CPU
        return out, cost

    def reduce_family(self, family: int, posterior: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Master step: normalize the posterior and select the next
        family's parent nonzeros (the largest entries)."""
        params = self.params
        mask = self.masks[family]
        total = float(posterior.sum())
        keep = np.sort(np.argsort(posterior)[::-1][: params.nonzeros])
        indices = mask[keep]
        values = posterior[keep] / total
        return indices, values, np.log(total)


def assigned(indices: np.ndarray, worker: int, nprocs: int) -> np.ndarray:
    """Round-robin share of the parent's nonzero positions."""
    return np.arange(indices.size) % nprocs == worker


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: IlinkParams):
    meter.mark()
    ped = Pedigree(params)
    indices, values = ped.first_nonzeros, ped.first_values
    loglik = 0.0
    for family in range(params.families):
        posterior, cost = ped.contribution(family, indices, values)
        meter.compute(cost + params.genarray_len * INIT_CPU)
        indices, values, ll = ped.reduce_family(family, posterior)
        loglik += ll
    return loglik


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
def tmk_main(proc, params: IlinkParams):
    tmk = proc.tmk
    ped = Pedigree(params)
    me, n = tmk.pid, tmk.nprocs
    L = params.genarray_len
    # The shared bank: the parent's genarray (dense, with a nonzero-index
    # header) plus one contribution row per processor.
    parent = tmk.shared_array("ilink_parent", (L,), np.float64)
    pidx = tmk.shared_array("ilink_parent_idx", (params.nonzeros,), np.int64)
    contrib = tmk.shared_array("ilink_contrib", (n, L), np.float64)
    if me == 0:
        dense = np.zeros(L)
        dense[ped.first_nonzeros] = ped.first_values
        yield from parent.write(slice(0, L), dense)
        yield from pidx.write(slice(0, params.nonzeros), ped.first_nonzeros)
    yield from tmk.barrier(0)
    if me == 0:
        proc.cluster.start_measurement(proc)
    loglik = 0.0
    bid = 1
    for family in range(params.families):
        # Everyone reads the parent's nonzeros; page-granular faults fetch
        # whole pages, i.e. also the elements assigned to other processors
        # (the paper's false-sharing observation).
        indices = yield from pidx.read(slice(0, params.nonzeros))
        indices = np.asarray(indices)
        share = assigned(indices, me, n)
        my_idx = indices[share]
        full = yield from parent.read(slice(0, L))
        my_vals = np.asarray(full)[my_idx]
        out, cost = ped.contribution(family, my_idx, my_vals)
        proc.compute(cost)
        # Write my (sparse) contribution into my bank row; diffing ships
        # only the nonzero elements automatically.
        mask = ped.masks[family]
        row = np.zeros(L)
        row[mask] = out
        yield from contrib.write((slice(me, me + 1), slice(None)),
                                 row[None, :])
        yield from tmk.barrier(bid); bid += 1
        if me == 0:
            # Master sums the contributions and re-initializes the bank
            # for the next family (the diff-accumulation source).
            posterior = np.zeros(mask.size)
            for w in range(n):
                wrow = yield from contrib.read((slice(w, w + 1),
                                                slice(None)))
                posterior += np.asarray(wrow).reshape(-1)[mask]
            proc.compute(params.genarray_len * INIT_CPU)
            indices, values, ll = ped.reduce_family(family, posterior)
            loglik += ll
            dense = np.zeros(L)
            dense[indices] = values
            yield from parent.write(slice(0, L), dense)
            yield from pidx.write(slice(0, params.nonzeros), indices)
        yield from tmk.barrier(bid); bid += 1
    return loglik if me == 0 else None


# ----------------------------------------------------------------------
# PVM (master/slave)
# ----------------------------------------------------------------------
_TAG_WORK = 80
_TAG_CONTRIB = 81


def pvm_main(proc, params: IlinkParams):
    pvm = proc.pvm
    me, n = pvm.mytid, pvm.nprocs
    ped = Pedigree(params)
    if me == 0:
        proc.cluster.start_measurement(proc)
        indices, values = ped.first_nonzeros, ped.first_values
        loglik = 0.0
        for family in range(params.families):
            # Send each slave exactly its assigned nonzeros (sparse).
            for w in range(1, n):
                share = assigned(indices, w, n)
                buf = pvm.initsend()
                buf.pkint([int(share.sum())])
                buf.pklong(indices[share])
                buf.pkdouble(values[share])
                yield from pvm.send(w, _TAG_WORK, buf)
            share = assigned(indices, 0, n)
            posterior, cost = ped.contribution(family, indices[share],
                                               values[share])
            proc.compute(cost)
            for _ in range(n - 1):
                got = yield from pvm.recv(-1, _TAG_CONTRIB)
                posterior = posterior + got.upkdouble(params.mask_size)
            proc.compute(params.genarray_len * INIT_CPU)
            indices, values, ll = ped.reduce_family(family, posterior)
            loglik += ll
        return loglik
    for family in range(params.families):
        got = yield from pvm.recv(0, _TAG_WORK)
        count = int(got.upkint(1)[0])
        my_idx = got.upklong(count)
        my_vals = got.upkdouble(count)
        out, cost = ped.contribution(family, my_idx, my_vals)
        proc.compute(cost)
        buf = pvm.initsend()
        buf.pkdouble(out)
        yield from pvm.send(0, _TAG_CONTRIB, buf)
    return None


def _verify(par, seq) -> bool:
    return abs(par - seq) <= 1e-9 * max(1.0, abs(seq))


APP = register(AppSpec(
    name="ilink",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=_verify,
))
