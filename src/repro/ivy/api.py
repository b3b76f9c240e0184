"""The IVY runtime facade.

Exposes exactly the interface the TreadMarks applications use
(``barrier``, ``lock_acquire``/``lock_release``, ``shared_array``), so
``attach_ivy`` is a drop-in replacement for ``attach_tmk``: every
``tmk_main`` in :mod:`repro.apps` runs unmodified on sequential
consistency, which is what makes the LRC-vs-SC comparison a one-line
change (``run_parallel(..., system="ivy")``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.ivy.core import IvyCore
from repro.ivy.sync import IvyBarrier, IvyLocks
from repro.tmk.sharedmem import DsmEndpoint, DsmSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor

__all__ = ["Ivy", "IvyConfig", "IvySystem", "attach_ivy"]


@dataclass(frozen=True)
class IvyConfig:
    """Cluster-wide IVY configuration."""

    segment_bytes: int = 1 << 23


class IvySystem(DsmSystem):
    """Cluster-global IVY state: the shared heap layout."""


class Ivy(DsmEndpoint):
    """Per-processor IVY endpoint; interface-compatible with ``Tmk``."""

    def __init__(self, proc: "Processor", system: IvySystem) -> None:
        super().__init__(proc, system)
        self.core = IvyCore(proc, system)
        self.locks = IvyLocks(proc, self.core)
        self.barriers = IvyBarrier(proc, self.core)

    @property
    def nprocs(self) -> int:
        return self.proc.cluster.nprocs

    # ------------------------------------------------------------------
    def barrier(self, bid: int):
        yield from self.barriers.barrier(bid)

    def lock_acquire(self, lock: int):
        yield from self.locks.acquire(lock)

    def lock_release(self, lock: int):
        yield from self.locks.release(lock)

    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        return self.core.read_faults + self.core.write_faults


def attach_ivy(cluster: "Cluster",
               config: Optional[IvyConfig] = None) -> List[Ivy]:
    """Create one :class:`Ivy` endpoint per processor.

    Sets ``proc.tmk`` (the attribute the applications use) so the same
    application code runs on either DSM.
    """
    system = IvySystem(cluster, config if config is not None else IvyConfig())
    endpoints = []
    for proc in cluster.procs:
        proc.tmk = Ivy(proc, system)
        endpoints.append(proc.tmk)
    return endpoints
