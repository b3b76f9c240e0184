#!/usr/bin/env python
"""Quickstart: the same tiny parallel program in both paradigms.

The program sums the squares 1..N across a simulated 4-workstation
cluster, once with TreadMarks shared memory and once with PVM message
passing, then prints what each run cost in virtual time and messages.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.pvm import attach_pvm
from repro.sim import Cluster
from repro.tmk import attach_tmk

N = 1 << 16
NPROCS = 4
#: Virtual CPU seconds charged per squared-and-summed element.
WORK_CPU = 1e-6


def my_slice(pid, nprocs):
    lo = pid * N // nprocs
    hi = (pid + 1) * N // nprocs
    return np.arange(lo + 1, hi + 1, dtype=np.int64)


# ----------------------------------------------------------------------
# TreadMarks version: a shared accumulator guarded by a lock.
# ----------------------------------------------------------------------
def tmk_main(proc):
    tmk = proc.tmk
    total = tmk.shared_array("total", (1,), np.int64)

    values = my_slice(tmk.pid, tmk.nprocs)
    partial = int((values * values).sum())
    proc.compute(values.size * WORK_CPU)

    yield from tmk.lock_acquire(0)            # Tmk_lock_acquire
    so_far = yield from total.get(0)
    yield from total.set(0, int(so_far) + partial)
    yield from tmk.lock_release(0)            # Tmk_lock_release
    yield from tmk.barrier(0)                 # Tmk_barrier
    result = yield from total.get(0)          # everyone reads the result
    return int(result)


# ----------------------------------------------------------------------
# PVM version: slaves send partial sums to the master.
# ----------------------------------------------------------------------
def pvm_main(proc):
    pvm = proc.pvm

    values = my_slice(pvm.mytid, pvm.nprocs)
    partial = int((values * values).sum())
    proc.compute(values.size * WORK_CPU)

    if pvm.mytid == 0:
        total = partial
        for _ in range(pvm.nprocs - 1):
            buf = yield from pvm.recv(-1, tag=1)  # pvm_recv
            total += int(buf.upklong(1)[0])   # pvm_upklong
        out = pvm.initsend()                  # pvm_initsend
        out.pklong([total])                   # pvm_pklong
        yield from pvm.bcast(2, out)          # pvm_mcast to everyone
        return total
    buf = pvm.initsend()
    buf.pklong([partial])
    yield from pvm.send(0, 1, buf)            # pvm_send
    buf = yield from pvm.recv(0, 2)
    return int(buf.upklong(1)[0])


def main():
    expected = sum(i * i for i in range(1, N + 1))
    print(f"sum of squares 1..{N} = {expected}\n")

    for label, attach, body in (
            ("TreadMarks", attach_tmk, tmk_main),
            ("PVM", attach_pvm, pvm_main)):
        cluster = Cluster(NPROCS)
        attach(cluster)
        result = cluster.run(body)
        assert all(r == expected for r in result.results), label
        system = "tmk" if label == "TreadMarks" else "pvm"
        total = result.stats.total(system)
        print(f"{label:<11} elapsed {result.elapsed * 1e3:7.2f} ms   "
              f"{total.messages:3d} messages   "
              f"{total.bytes / 1024:6.2f} KB")
        for category, counter in result.stats.by_category(system).items():
            print(f"    {category:<18} {counter.messages:3d} msgs "
                  f"{counter.bytes:6d} B")
        print()


if __name__ == "__main__":
    main()
