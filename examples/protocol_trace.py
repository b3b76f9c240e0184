#!/usr/bin/env python
"""Watch the TreadMarks protocol work, event by event.

Runs a tiny producer/consumer program with tracing enabled and prints the
annotated protocol timeline: interval closures, lock handoffs with write
notices, page faults, and diff service.  This is the mechanism behind
every number in the paper's Table 2.

Run:  python examples/protocol_trace.py
"""

import numpy as np

from repro.sim import Cluster, ClusterConfig
from repro.sim.trace import Trace
from repro.tmk import attach_tmk


def main():
    trace = Trace(enabled=True)
    cluster = Cluster(3, config=ClusterConfig(trace=trace))
    attach_tmk(cluster)

    def program(proc):
        tmk = proc.tmk
        # Two pages of shared data plus a shared cursor.
        data = tmk.shared_array("data", (1024,), np.int64)
        if tmk.pid == 0:
            # Producer: fill both pages, then release through the lock.
            yield from tmk.lock_acquire(0)
            yield from data.write(slice(0, 1024), np.arange(1024))
            yield from tmk.lock_release(0)
        yield from tmk.barrier(0)
        # Consumers: the barrier carried write notices; the first touch
        # of each invalidated page faults and fetches the diffs.
        values = yield from data.read(slice(0, 1024))
        checksum = int(values.sum())
        yield from tmk.barrier(1)
        return checksum

    result = cluster.run(program)
    expected = sum(range(1024))
    assert all(r == expected for r in result.results)

    print("protocol timeline (virtual time, processor, event):\n")
    print(trace.format())
    print()
    print(cluster.stats.summary("tmk"))
    print()
    print("reading the trace:")
    print(" * interval_close: a synchronization point froze this"
          " processor's writes into per-page diffs + write notices")
    print(" * lock_acquire/lock_grant: the grant piggybacks the write"
          " notices the acquirer has not seen (invalidating its pages)")
    print(" * barrier_depart: the manager's departure does the same for"
          " barriers")
    print(" * page_fault/diff_served: first access to an invalidated page"
          " fetches the diffs on demand -- data moves only when touched")


if __name__ == "__main__":
    main()
