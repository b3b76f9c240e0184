"""QSORT -- parallel quicksort over a work queue.

"QSORT is parallelized using a work queue that contains descriptions of
unsorted sublists, from which worker threads continuously remove the
lists."  A popped sublist is either partitioned (producing two new queue
entries) or, below the bubblesort threshold, sorted in place.

* **TreadMarks**: the list and the work queue are shared; queue accesses
  are protected by a lock.  "The processor releases the task queue without
  subdividing the subarray it removes": partitioning happens outside the
  lock and the new subarrays are pushed on re-acquisition.  Subarrays are
  larger than a page, so each migration costs multiple diff requests, plus
  false sharing at subarray/page boundaries and diff accumulation as the
  queue and intermediate subarrays migrate between processors (the paper's
  explanation of the ~25% gap, Figure 7).
* **PVM**: master/slave -- the master keeps the array and the queue
  private; slaves receive subarrays, partition or sort them, and ship the
  results back.

Partitioning is deterministic (Lomuto-style with the last element as the
pivot, stable three-way split), so every version produces the same task
tree; the final sorted array is verified for exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.base import AppSpec, compute_polled, register

__all__ = ["QsortParams", "APP"]

#: Virtual CPU seconds per element for one partitioning pass.
PART_CPU = 0.15e-6
#: Virtual CPU seconds per element-comparison in bubblesort (charged k^2/2).
BUBBLE_CPU = 0.3e-6
#: Backoff between queue polls when the queue is momentarily empty.
POLL_BACKOFF = 1e-3
#: Work-queue capacity (entries).
MAX_QUEUE = 1024


@dataclass(frozen=True)
class QsortParams:
    nkeys: int = 1 << 17
    threshold: int = 1024
    seed: int = 161803

    @classmethod
    def tiny(cls) -> "QsortParams":
        return cls(nkeys=1 << 12, threshold=256)

    @classmethod
    def bench(cls) -> "QsortParams":
        return cls(nkeys=1 << 18, threshold=2048)

    @classmethod
    def paper(cls) -> "QsortParams":
        """256K integers, bubblesort threshold 1024."""
        return cls(nkeys=1 << 18, threshold=1024)


def initial_keys(params: QsortParams) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(params.seed))
    return rng.integers(0, 1 << 30, size=params.nkeys, dtype=np.int32)


def partition(values: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """Three-way split around the last element (deterministic).

    Returns (rearranged values, start of the equal run, end of the equal
    run); the left part is [0, eq_lo), the right part is [eq_hi, len).
    """
    pivot = values[-1]
    less = values[values < pivot]
    equal = values[values == pivot]
    greater = values[values > pivot]
    return np.concatenate([less, equal, greater]), less.size, less.size + equal.size


def partition_cost(k: int) -> float:
    return k * PART_CPU


def bubble_cost(k: int) -> float:
    return 0.5 * k * k * BUBBLE_CPU


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: QsortParams):
    meter.mark()
    arr = initial_keys(params)
    stack: List[Tuple[int, int]] = [(0, params.nkeys)]
    while stack:
        lo, hi = stack.pop()
        k = hi - lo
        if k <= params.threshold:
            arr[lo:hi] = np.sort(arr[lo:hi], kind="stable")
            meter.compute(bubble_cost(k))
            continue
        rearranged, eq_lo, eq_hi = partition(arr[lo:hi])
        arr[lo:hi] = rearranged
        meter.compute(partition_cost(k))
        stack.append((lo, lo + eq_lo))
        stack.append((lo + eq_hi, hi))
    return arr


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
_LOCK_QUEUE = 1


def tmk_main(proc, params: QsortParams):
    tmk = proc.tmk
    arr = tmk.shared_array("qs_array", (params.nkeys,), np.int32)
    queue = tmk.shared_array("qs_queue", (MAX_QUEUE, 2), np.int32)
    # top-of-queue index and outstanding-task count, one page.
    meta = tmk.shared_array("qs_meta", (2,), np.int32)
    if tmk.pid == 0:
        yield from arr.write(slice(0, params.nkeys), initial_keys(params))
        yield from queue.write((slice(0, 1), slice(None)),
                               [[0, params.nkeys]])
        yield from meta.write(slice(0, 2), [1, 1])  # qtop=1, outstanding=1
    yield from tmk.barrier(0)
    if tmk.pid == 0:
        proc.cluster.start_measurement(proc)
    while True:
        yield from tmk.lock_acquire(_LOCK_QUEUE)
        counters = yield from meta.read(slice(0, 2))
        qtop, outstanding = (int(v) for v in counters)
        if outstanding == 0:
            yield from tmk.lock_release(_LOCK_QUEUE)
            break
        if qtop == 0:
            yield from tmk.lock_release(_LOCK_QUEUE)
            proc.compute(POLL_BACKOFF)
            continue
        task = yield from queue.read((slice(qtop - 1, qtop), slice(None)))
        lo, hi = (int(v) for v in task.reshape(-1))
        yield from meta.set(0, qtop - 1)
        yield from tmk.lock_release(_LOCK_QUEUE)

        k = hi - lo
        if k <= params.threshold:
            values = yield from arr.read(slice(lo, hi))
            values = values.copy()
            yield from arr.write(slice(lo, hi), np.sort(values, kind="stable"))
            proc.compute(bubble_cost(k))
            yield from tmk.lock_acquire(_LOCK_QUEUE)
            left = yield from meta.get(1)
            yield from meta.set(1, int(left) - 1)
            yield from tmk.lock_release(_LOCK_QUEUE)
        else:
            values = yield from arr.read(slice(lo, hi))
            values = values.copy()
            rearranged, eq_lo, eq_hi = partition(values)
            yield from arr.write(slice(lo, hi), rearranged)
            proc.compute(partition_cost(k))
            yield from tmk.lock_acquire(_LOCK_QUEUE)
            qtop = yield from meta.get(0)
            qtop = int(qtop)
            if qtop + 2 > MAX_QUEUE:
                raise RuntimeError("work queue overflow")
            yield from queue.write((slice(qtop, qtop + 2), slice(None)),
                                   [[lo, lo + eq_lo], [lo + eq_hi, hi]])
            left = yield from meta.get(1)
            yield from meta.write(slice(0, 2), [qtop + 2, int(left) + 1])
            yield from tmk.lock_release(_LOCK_QUEUE)
    yield from tmk.barrier(1)
    # Out-of-band result collection: each processor's copy of the pages it
    # holds valid is not the full array, so only processor 0 re-reads it.
    if tmk.pid == 0:
        proc.cluster.stop_measurement(proc)
        out = yield from arr.read(slice(0, params.nkeys))
        return out.copy()
    return None


# ----------------------------------------------------------------------
# PVM (master/slave)
# ----------------------------------------------------------------------
_TAG_REQ = 30
_TAG_WORK = 31
_TAG_LEAF = 32
_TAG_SPLIT = 33
_TAG_DONE = 34


def _master(proc, params: QsortParams):
    pvm = proc.pvm
    n = pvm.nprocs
    arr = initial_keys(params)
    queue: List[Tuple[int, int]] = [(0, params.nkeys)]
    outstanding = 1
    pending: List[int] = []  # slaves waiting for work
    done_sent = 0

    def integrate(buf) -> None:
        nonlocal outstanding
        header = buf.upkint(2)
        lo, hi = int(header[0]), int(header[1])
        if buf.tag == _TAG_LEAF:
            arr[lo:hi] = buf.upkint(hi - lo)
            outstanding -= 1
        else:
            split = buf.upkint(2)
            arr[lo:hi] = buf.upkint(hi - lo)
            queue.append((lo, lo + int(split[0])))
            queue.append((lo + int(split[1]), hi))
            outstanding += 1

    def send_work(slave: int):
        lo, hi = queue.pop()
        buf = pvm.initsend()
        buf.pkint([lo, hi])
        buf.pkint(arr[lo:hi])
        yield from pvm.send(slave, _TAG_WORK, buf)

    def poll():
        """Drain arrivals and serve waiting slaves (the master half of the
        time-shared master+slave pair on this processor)."""
        while True:
            buf = yield from pvm.nrecv(-1, -1)
            if buf is None:
                break
            if buf.tag == _TAG_REQ:
                buf.upkint(1)
                pending.append(buf.src)
            else:
                integrate(buf)
        while pending and queue and outstanding > 0:
            yield from send_work(pending.pop(0))

    while outstanding > 0 or done_sent < n - 1:
        yield from poll()
        if outstanding == 0:
            while pending:
                buf = pvm.initsend()
                buf.pkint([0])
                yield from pvm.send(pending.pop(0), _TAG_DONE, buf)
                done_sent += 1
            if done_sent < n - 1:
                buf = yield from pvm.recv(-1, _TAG_REQ)
                buf.upkint(1)
                pending.append(buf.src)
            continue
        if queue and not pending:
            # No requests waiting: the master's co-located slave works,
            # time-sharing with request service.
            lo, hi = queue.pop()
            k = hi - lo
            if k <= params.threshold:
                arr[lo:hi] = np.sort(arr[lo:hi], kind="stable")
                yield from compute_polled(proc, bubble_cost(k), poll)
                outstanding -= 1
            else:
                rearranged, eq_lo, eq_hi = partition(arr[lo:hi])
                arr[lo:hi] = rearranged
                yield from compute_polled(proc, partition_cost(k), poll)
                queue.append((lo, lo + eq_lo))
                queue.append((lo + eq_hi, hi))
                outstanding += 1
        elif not queue:
            # Work is all in flight; block for the next result.
            buf = yield from pvm.recv(-1, -1)
            if buf.tag == _TAG_REQ:
                buf.upkint(1)
                pending.append(buf.src)
            else:
                integrate(buf)
    return arr


def _slave(proc, params: QsortParams):
    pvm = proc.pvm
    while True:
        buf = pvm.initsend()
        buf.pkint([pvm.mytid])
        yield from pvm.send(0, _TAG_REQ, buf)
        reply = yield from pvm.recv(0, -1)
        if reply.tag == _TAG_DONE:
            reply.upkint(1)
            return
        header = reply.upkint(2)
        lo, hi = int(header[0]), int(header[1])
        values = reply.upkint(hi - lo)
        k = hi - lo
        out = pvm.initsend()
        out.pkint([lo, hi])
        if k <= params.threshold:
            values = np.sort(values, kind="stable")
            proc.compute(bubble_cost(k))
            out.pkint(values)
            yield from pvm.send(0, _TAG_LEAF, out)
        else:
            rearranged, eq_lo, eq_hi = partition(values)
            proc.compute(partition_cost(k))
            out.pkint([eq_lo, eq_hi])
            out.pkint(rearranged)
            yield from pvm.send(0, _TAG_SPLIT, out)


def pvm_main(proc, params: QsortParams):
    pvm = proc.pvm
    if pvm.mytid == 0:
        proc.cluster.start_measurement(proc)
        result = yield from _master(proc, params)
        return result
    yield from _slave(proc, params)
    return None


def _verify(par, seq) -> bool:
    return np.array_equal(par, seq)


APP = register(AppSpec(
    name="qsort",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=_verify,
))
