"""Deliberately broken DSM app: every DSM lint check should fire here.

Not imported by anything -- parsed by the lint tests and the CI lint
job's negative check.
"""

import numpy as np

from repro.tmk.sharedmem import SharedArray


def caches_view_across_barrier(proc, params):
    tmk = proc.tmk
    grid = tmk.shared_array("grid", (64,), np.float64)
    view = yield from grid.read(slice(0, 32))
    total = 0.0
    for it in range(params.iterations):
        yield from tmk.barrier(it)
        # DSM001: `view` was read before the barrier and never re-read;
        # remote writes merged at the barrier are invisible to it.
        total += float(view.sum())
    return total


def writes_into_view(proc):
    tmk = proc.tmk
    grid = tmk.shared_array("grid", (64,), np.float64)
    row = yield from grid.read(slice(0, 8))
    # DSM002: views are read-only; the runtime never sees this store.
    row[0] = 1.0
    yield from grid.add(3, 2.0)  # routed through SharedArray.add -- fine
    return row


def allocates_outside_heap(proc):
    tmk = proc.tmk
    # DSM003: private construction bypasses Tmk_malloc, so the address
    # is not a shared-segment allocation other processors can see.
    private = SharedArray(tmk, 0, (16,), np.dtype(np.float64))
    return private


class Holder:
    def __init__(self):
        self.cached = None


def escapes_to_attribute(proc, holder):
    tmk = proc.tmk
    grid = tmk.shared_array("grid", (64,), np.float64)
    snapshot = yield from grid.read()
    # DSM004: the view outlives this function's synchronization scope.
    holder.cached = snapshot
    yield from tmk.barrier(0)


def forgets_to_delegate(proc):
    tmk = proc.tmk
    grid = tmk.shared_array("grid", (64,), np.float64)
    # DSM005: without `yield from` these build generators and drop them;
    # the store and the barrier silently never happen.
    grid.write(0, 1.0)
    tmk.barrier(0)
