"""Cases every :class:`~repro.ivy.core.DirectoryCore` runtime passes.

Each case lives here once and takes the runtime as an input: a runtime's
test module subclasses :class:`DirectoryProtocolCases` as a ``Test...``
class that says how a program runs on it, and hands
:func:`verified_run` its ``run_parallel`` spelling (see
``tests/ivy/test_ivy.py`` and ``tests/scabd/test_scabd.py``).
"""

import numpy as np

from repro.apps import base


def verified_run(name, params, system, nprocs, replication=None):
    """One application run whose answer equals the sequential one."""
    spec = base.get_app(name)
    seq = base.run_sequential(spec, params)
    par = base.run_parallel(spec, system, nprocs, params,
                            replication=replication)
    assert spec.verify(par.result, seq.result), (name, system, nprocs)
    return par


class DirectoryProtocolCases:
    def run(self, fn, nprocs):
        """Run ``fn(proc)`` on ``nprocs`` application processors; returns
        (their results, their Processor objects)."""
        raise NotImplementedError

    def test_read_fetches_current_copy(self):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            if tmk.pid == 0:
                yield from data.write(slice(0, 512), 7)
            yield from tmk.barrier(0)
            return int((yield from data.get(100)))

        results, _ = self.run(main, nprocs=3)
        assert results == [7, 7, 7]

    def test_write_invalidates_all_copies(self):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            yield from data.read(slice(0, 512))          # everyone caches a copy
            yield from tmk.barrier(0)
            if tmk.pid == 1:
                yield from data.write(slice(0, 512), 5)       # invalidates the others
            yield from tmk.barrier(1)
            return int((yield from data.get(0)))

        results, procs = self.run(main, nprocs=4)
        assert results == [5, 5, 5, 5]
        assert sum(p.tmk.core.invalidations for p in procs) >= 3
