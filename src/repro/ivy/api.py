"""The IVY runtime facade.

Exposes exactly the interface the TreadMarks applications use
(``barrier``, ``lock_acquire``/``lock_release``, ``shared_array``), so
``attach_ivy`` is a drop-in replacement for ``attach_tmk``: every
``tmk_main`` in :mod:`repro.apps` runs unmodified on sequential
consistency, which is what makes the LRC-vs-SC comparison a one-line
change (``run_parallel(..., system="ivy")``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.ivy.core import IvyCore
from repro.ivy.sync import IvyBarrier, IvyLocks
from repro.tmk.sharedmem import DsmEndpoint, DsmSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor

__all__ = ["Ivy", "attach_ivy"]


class Ivy(DsmEndpoint):
    """Per-processor IVY endpoint."""

    def __init__(self, proc: "Processor", system: DsmSystem) -> None:
        super().__init__(proc, system)
        self.core = IvyCore(proc, system)
        self.locks = IvyLocks(proc, self.core)
        self.barriers = IvyBarrier(proc, self.core)


def attach_ivy(cluster: "Cluster") -> List[Ivy]:
    """Create one :class:`Ivy` endpoint per processor (sets ``proc.tmk``,
    so the same application code runs on either DSM)."""
    return DsmSystem(cluster).attach(Ivy)
