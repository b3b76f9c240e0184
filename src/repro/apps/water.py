"""Water -- molecular dynamics (SPLASH), simplified physics, same structure.

The main data structure is a one-dimensional array of molecule records.
"The parallel algorithm statically divides the array of molecules into
equal contiguous chunks.  Each processor computes and updates the
intermolecular force between each of its molecules and each of the n/2
molecules following it in the array, in wraparound fashion."

* **TreadMarks** (the paper's tuned SPLASH port): only the displacements
  and forces live in shared memory; a lock is associated with each
  processor; force contributions are accumulated in a *private* copy and
  added to the shared array once per (contributor, owner) pair under the
  owner's lock.  A processor may fault again when reading the final forces
  of its own molecules, and -- since a 4-KB page holds ~170 molecule
  force records -- *false sharing* on chunk-boundary pages plus *diff
  accumulation* (each force page is modified by ~n/2 processors per step)
  inflate TreadMarks traffic: at 288 molecules it ships ~2x the PVM data,
  at 1728 molecules the ratio and the false-sharing fraction drop and
  TreadMarks comes within ~10% of PVM (paper Figures 8 and 9).
* **PVM**: processors exchange displacements before the force phase and
  locally-accumulated force contributions after it -- two user messages
  per interacting processor pair per step.

Physics is deliberately simplified (soft inverse-square pair force, no
cutoff bookkeeping, leapfrog update) -- the communication structure, data
layout and work distribution are what the experiment measures.  Parallel
positions match the sequential run to floating-point accumulation order
(verified with allclose).  ``window_forces`` reads each molecule's window
as one contiguous slice, or two when it wraps, rather than a ``% n``
gather; every row receives the same contributions in the same order, so
the forces are bit-identical to the gathered form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.base import AppSpec, register

__all__ = ["WaterParams", "APP"]

#: Virtual CPU seconds per intermolecular pair interaction (the real Water
#: evaluates ~1000 flops per molecule pair: 9 atom pairs plus derivatives).
PAIR_CPU = 40e-6
#: Virtual CPU seconds of intramolecular work per molecule per step.
INTRA_CPU = 200e-6
_DT = 1e-3
_SOFT = 0.1


@dataclass(frozen=True)
class WaterParams:
    nmol: int = 288
    steps: int = 2
    seed: int = 141421

    @classmethod
    def tiny(cls) -> "WaterParams":
        return cls(nmol=64, steps=2)

    @classmethod
    def bench_288(cls) -> "WaterParams":
        return cls(nmol=288, steps=2)

    @classmethod
    def bench_1728(cls) -> "WaterParams":
        return cls(nmol=1728, steps=2)

    @classmethod
    def paper_288(cls) -> "WaterParams":
        """288 molecules, 5 time steps."""
        return cls(nmol=288, steps=5)

    @classmethod
    def paper_1728(cls) -> "WaterParams":
        """1728 molecules, 5 time steps."""
        return cls(nmol=1728, steps=5)


def initial_positions(params: WaterParams) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(params.seed))
    side = int(np.ceil(params.nmol ** (1 / 3)))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)[: params.nmol]
    return grid * 2.0 + rng.uniform(-0.2, 0.2, size=(params.nmol, 3))


def chunk(pid: int, nprocs: int, nmol: int) -> Tuple[int, int]:
    lo = pid * nmol // nprocs
    hi = (pid + 1) * nmol // nprocs
    return lo, hi


def window_forces(pos: np.ndarray, lo: int, hi: int) -> Tuple[np.ndarray, float]:
    """Force contributions of molecules [lo, hi) interacting with the n/2
    molecules following each (wraparound).  Returns (full-length private
    force array, virtual cost)."""
    # Molecule i's window, rows [i+1, i+1+half) mod n, is one slice of a
    # row-contiguous copy, or two when it wraps: each force row gets the
    # arithmetic a `% n` gather gave it, in the same i order, and f keeps
    # the gathered copy's layout, so f.sum(axis=0) reduces in the same
    # order and the forces are bit-identical.
    pos = np.ascontiguousarray(pos)
    n = pos.shape[0]
    half = n // 2
    forces = np.zeros_like(pos)
    for i in range(lo, hi):
        start, end = i + 1, i + 1 + half
        if end <= n:
            delta = pos[i] - pos[start:end]
        else:
            delta = pos[i] - np.concatenate((pos[start:], pos[:end - n]))
        r2 = (delta ** 2).sum(axis=1) + _SOFT
        f = delta / (r2 ** 2)[:, None]
        forces[i] += f.sum(axis=0)
        if end <= n:
            forces[start:end] -= f
        else:
            forces[start:] -= f[:n - start]
            forces[:end - n] -= f[n - start:]
    cost = (hi - lo) * half * PAIR_CPU + (hi - lo) * INTRA_CPU
    return forces, cost


def owners_touched(lo: int, hi: int, nprocs: int, nmol: int) -> List[Tuple[int, int, int]]:
    """Which owners' rows the contributor [lo, hi) writes: a list of
    (owner pid, row lo, row hi) covering [lo, hi + nmol//2) wraparound."""
    half = nmol // 2
    spans = []
    # The union of touched rows never exceeds the whole array (relevant
    # when one processor's window wraps all the way around).
    start, end = lo, min(hi + half, lo + nmol)
    for p in range(nprocs):
        clo, chi = chunk(p, nprocs, nmol)
        # Overlap in plain coordinates and in the wrapped image.
        for base in (0, nmol):
            olo = max(start, clo + base)
            ohi = min(end, chi + base)
            if olo < ohi:
                spans.append((p, olo - base, ohi - base))
    return spans


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: WaterParams):
    meter.mark()
    pos = initial_positions(params)
    vel = np.zeros_like(pos)
    for _ in range(params.steps):
        forces, cost = window_forces(pos, 0, params.nmol)
        meter.compute(cost)
        vel += forces * _DT
        pos = pos + vel * _DT
    return pos


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
def tmk_main(proc, params: WaterParams):
    tmk = proc.tmk
    n = params.nmol
    pos = tmk.shared_array("water_pos", (n, 3), np.float64)
    shf = tmk.shared_array("water_forces", (n, 3), np.float64)
    lo, hi = chunk(tmk.pid, tmk.nprocs, n)
    vel = np.zeros((hi - lo, 3))
    if tmk.pid == 0:
        yield from pos.write((slice(None), slice(None)),
                             initial_positions(params))
    yield from tmk.barrier(0)
    if tmk.pid == 0:
        proc.cluster.start_measurement(proc)
    bid = 1
    for _ in range(params.steps):
        # Owners zero their force rows for the new step.
        yield from shf.write((slice(lo, hi), slice(None)), 0.0)
        yield from tmk.barrier(bid); bid += 1
        # Force phase: read the displacements (faults on remote chunks),
        # accumulate into a private copy.
        local_pos = yield from pos.read((slice(None), slice(None)))
        local_pos = np.asarray(local_pos)
        forces, cost = window_forces(local_pos, lo, hi)
        proc.compute(cost)
        # Add contributions to each touched owner's rows under its lock.
        for owner, olo, ohi in owners_touched(lo, hi, tmk.nprocs, n):
            yield from tmk.lock_acquire(owner)
            yield from shf.add((slice(olo, ohi), slice(None)),
                               forces[olo:ohi])
            yield from tmk.lock_release(owner)
        yield from tmk.barrier(bid); bid += 1
        # Update phase: owners read their final forces (may fault again)
        # and write their displacements.
        final = yield from shf.read((slice(lo, hi), slice(None)))
        vel += final * _DT
        yield from pos.add((slice(lo, hi), slice(None)), vel * _DT)
        yield from tmk.barrier(bid); bid += 1
    band = yield from pos.read((slice(lo, hi), slice(None)))
    return lo, hi, np.asarray(band).copy()


# ----------------------------------------------------------------------
# PVM
# ----------------------------------------------------------------------
_TAG_POS = 50
_TAG_FORCE = 51


def pvm_main(proc, params: WaterParams):
    pvm = proc.pvm
    me, nprocs = pvm.mytid, pvm.nprocs
    n = params.nmol
    lo, hi = chunk(me, nprocs, n)
    pos = initial_positions(params)  # everyone derives the same start state
    vel = np.zeros((hi - lo, 3))
    # Who do I exchange with?  I write force rows of `targets`; symmetric
    # reasoning says `sources` write mine, and displacements flow opposite.
    targets = [(p, olo, ohi) for p, olo, ohi in
               owners_touched(lo, hi, nprocs, n) if p != me]
    needs_my_pos = sorted({p for p in range(nprocs) if p != me and any(
        q == me for q, _, _ in owners_touched(*chunk(p, nprocs, n)[:2],
                                              nprocs, n))})
    for _ in range(params.steps):
        # Exchange displacements before the force computation.
        for p in needs_my_pos:
            buf = pvm.initsend()
            buf.pkdouble(pos[lo:hi].reshape(-1))
            yield from pvm.send(p, _TAG_POS, buf)
        senders = sorted({p for p, _, _ in targets})
        for p in senders:
            got = yield from pvm.recv(p, _TAG_POS)
            plo, phi = chunk(p, nprocs, n)
            pos[plo:phi] = got.upkdouble((phi - plo) * 3).reshape(-1, 3)
        forces, cost = window_forces(pos, lo, hi)
        proc.compute(cost)
        # Communicate locally accumulated force modifications to owners.
        for p, olo, ohi in targets:
            buf = pvm.initsend()
            buf.pkint([olo, ohi])
            buf.pkdouble(forces[olo:ohi].reshape(-1))
            yield from pvm.send(p, _TAG_FORCE, buf)
        total = forces[lo:hi].copy()
        for _ in range(len(needs_my_pos)):
            got = yield from pvm.recv(-1, _TAG_FORCE)
            header = got.upkint(2)
            olo, ohi = int(header[0]), int(header[1])
            total[olo - lo: ohi - lo] += got.upkdouble(
                (ohi - olo) * 3).reshape(-1, 3)
        vel += total * _DT
        pos[lo:hi] += vel * _DT
    return lo, hi, pos[lo:hi].copy()


def _collect(results):
    n = max(hi for _, hi, _ in results)
    out = np.zeros((n, 3))
    for lo, hi, block in results:
        out[lo:hi] = block
    return out


def _verify(par, seq) -> bool:
    return np.allclose(par, seq, rtol=1e-9, atol=1e-12)


APP = register(AppSpec(
    name="water",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=_verify,
    collect=_collect,
))
