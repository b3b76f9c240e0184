#!/usr/bin/env python
"""The paper's programmability argument, made concrete.

"For two of the programs, namely 3-D FFT and ILINK, the message passing
versions were significantly harder to develop" -- because the programmer
must derive *where every element goes*.  This example implements the 3-D
FFT transpose both ways at toy scale and prints the code each paradigm
actually requires, then runs both to show they agree.  In both versions
``yield from`` marks every point where the paper's blocking call may
stall (a page fault, a barrier, a receive): the simulated processor
hands control back to the engine exactly there.

Run:  python examples/programmability.py
"""

import inspect
import textwrap

import numpy as np

from repro.pvm import attach_pvm
from repro.sim import Cluster
from repro.tmk import attach_tmk

N1, N2, N3 = 8, 4, 4
NPROCS = 4


def field():
    rng = np.random.default_rng(7)
    return rng.normal(size=(N1, N2, N3)) + 1j * rng.normal(size=(N1, N2, N3))


def slab(pid, nprocs, extent):
    return pid * extent // nprocs, (pid + 1) * extent // nprocs


# ----------------------------------------------------------------------
# TreadMarks transpose: "simply swapping the indices".
# ----------------------------------------------------------------------
def tmk_transpose(proc):
    tmk = proc.tmk
    b = tmk.shared_array("b", (N3, N1, N2), np.complex128)
    ilo, ihi = slab(tmk.pid, tmk.nprocs, N1)
    klo, khi = slab(tmk.pid, tmk.nprocs, N3)
    a_slab = field()[ilo:ihi]
    # The entire communication logic:
    yield from b.write((slice(None), slice(ilo, ihi), slice(None)),
                       a_slab.transpose(2, 0, 1))
    yield from tmk.barrier(0)
    mine = yield from b.read((slice(klo, khi), slice(None), slice(None)))
    return mine.copy()


# ----------------------------------------------------------------------
# PVM transpose: "we must figure out where each part of the A array goes
# and where each part of the B array needs to come from".
# ----------------------------------------------------------------------
def pvm_transpose(proc):
    pvm = proc.pvm
    me, n = pvm.mytid, pvm.nprocs
    ilo, ihi = slab(me, n, N1)
    klo, khi = slab(me, n, N3)
    a_slab = field()[ilo:ihi]
    out = np.empty((khi - klo, ihi - ilo and N1, N2), dtype=np.complex128)
    out = np.empty((khi - klo, N1, N2), dtype=np.complex128)
    # My own block transposes locally...
    out[:, ilo:ihi, :] = a_slab[:, :, klo:khi].transpose(2, 0, 1)
    # ...every other processor gets the block of MY slab that lands in
    # ITS k-range, and I must place arriving blocks by their sender's
    # i-range: two layers of index arithmetic to get wrong.
    for p in range(n):
        if p == me:
            continue
        pklo, pkhi = slab(p, n, N3)
        block = a_slab[:, :, pklo:pkhi].transpose(2, 0, 1)
        buf = pvm.initsend()
        buf.pkdcplx(np.ascontiguousarray(block).reshape(-1))
        yield from pvm.send(p, 1, buf)
    for _ in range(n - 1):
        got = yield from pvm.recv(-1, 1)
        silo, sihi = slab(got.src, n, N1)
        count = (khi - klo) * (sihi - silo) * N2
        out[:, silo:sihi, :] = got.upkdcplx(count).reshape(
            khi - klo, sihi - silo, N2)
    return out


def main():
    print("=" * 72)
    print("TreadMarks transpose -- the communication is one line:")
    print("=" * 72)
    print(textwrap.dedent(inspect.getsource(tmk_transpose)))
    print("=" * 72)
    print("PVM transpose -- explicit index bookkeeping both directions:")
    print("=" * 72)
    print(textwrap.dedent(inspect.getsource(pvm_transpose)))

    cluster = Cluster(NPROCS)
    attach_tmk(cluster)
    tmk_blocks = cluster.run(tmk_transpose).results

    cluster = Cluster(NPROCS)
    attach_pvm(cluster)
    pvm_blocks = cluster.run(pvm_transpose).results

    reference = field().transpose(2, 0, 1)
    for pid in range(NPROCS):
        klo, khi = slab(pid, NPROCS, N3)
        assert np.allclose(tmk_blocks[pid], reference[klo:khi])
        assert np.allclose(pvm_blocks[pid], reference[klo:khi])
    print("both versions produce the reference transpose. "
          "(One took a line; one took a protocol.)")


if __name__ == "__main__":
    main()
