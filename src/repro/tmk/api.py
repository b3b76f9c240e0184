"""The TreadMarks application programming interface.

Mirrors the paper's description of the TreadMarks primitives:

* ``Tmk_barrier(i)`` -> :meth:`Tmk.barrier`
* ``Tmk_lock_acquire(i)`` / ``Tmk_lock_release(i)`` ->
  :meth:`Tmk.lock_acquire` / :meth:`Tmk.lock_release`
* ``Tmk_malloc`` -> :meth:`Tmk.malloc` plus the named-array convenience
  :meth:`Tmk.shared_array` (the analogue of malloc at the master followed
  by ``Tmk_distribute`` of the pointer)

"With TreadMarks it is imperative to use explicit synchronization, as data
is moved from processor to processor only in response to synchronization
calls."  Shared data is accessed through :class:`SharedArray` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.tmk.barrier import (BarrierSubsystem, DisseminationBarrierSubsystem,
                               TreeBarrierSubsystem)
from repro.tmk.consistency import LrcCore
from repro.tmk.intervals import NoticeIndex
from repro.tmk.locks import LockSubsystem, McsLockSubsystem
from repro.tmk.pages import ADDRESS_SPACE
from repro.tmk.sharedmem import DsmEndpoint, DsmSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor

__all__ = ["Tmk", "TmkConfig", "TmkSystem", "attach_tmk"]


@dataclass(frozen=True)
class TmkConfig:
    """Cluster-wide DSM configuration (protocol knobs for ablations)."""

    #: Bytes of address space each processor reserves: the shared heap's
    #: bound.  Per-page state follows the heap, whatever this is.
    segment_bytes: int = ADDRESS_SPACE
    #: Ablation: compose accumulated diffs into one before shipping (the
    #: paper's proposed remedy for diff accumulation on migratory data).
    coalesce_diffs: bool = False
    #: Future-work ablation from the paper's conclusion ("data movement
    #: can be piggybacked on the synchronization messages"): lock grants
    #: carry, up to this byte budget, the diffs for the pages they are
    #: about to invalidate, saving the fault round trips that follow.
    #: 0 disables piggybacking (the paper's TreadMarks).
    piggyback_budget: int = 0
    #: Notice propagation: "lazy" (TreadMarks LRC -- consistency data
    #: moves only on acquire) or "eager" (Munin-style ERC -- every
    #: release/barrier arrival broadcasts its write notices immediately).
    protocol: str = "lazy"
    #: Garbage-collect diffs and interval records every this many barrier
    #: episodes (0 = never, like this TreadMarks version; real TreadMarks
    #: collects when memory runs low).  Collection forces every processor
    #: to validate its invalid pages first, as in real TreadMarks.
    gc_every: int = 0
    #: Barrier topology: "central" (the paper's TreadMarks -- one manager,
    #: 2(n-1) messages per episode), "tree" (k-ary combining tree --
    #: arrivals merge upward, departures fan downward, O(n) messages but
    #: O(log n) serial latency at the root), or "dissemination" (butterfly
    #: exchange, ceil(log2 n) rounds of n messages each, no root at all).
    #: Results at the default are byte-identical to the seed.
    barrier_kind: str = "central"
    #: Lock protocol: "static" (the paper's TreadMarks -- static manager,
    #: request forwarding, O(n)-vector grants through the manager) or
    #: "mcs" (distributed queue: the manager only swaps a tail pointer;
    #: the grant travels requester-to-requester, so a contended lock costs
    #: O(1) manager work instead of a growing forward chain).
    lock_kind: str = "static"

    def __post_init__(self) -> None:
        if self.protocol not in ("lazy", "eager"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.piggyback_budget < 0 or self.gc_every < 0:
            raise ValueError("piggyback_budget/gc_every must be >= 0")
        if self.barrier_kind not in ("central", "tree", "dissemination"):
            raise ValueError(f"unknown barrier_kind {self.barrier_kind!r}")
        if self.lock_kind not in ("static", "mcs"):
            raise ValueError(f"unknown lock_kind {self.lock_kind!r}")
        if self.barrier_kind != "central" and self.gc_every:
            raise ValueError(
                "gc_every requires the central barrier (the GC decision is "
                "the barrier manager's)")


class TmkSystem(DsmSystem):
    """Cluster-global TreadMarks state: heap layout and manager maps."""

    def __init__(self, cluster: "Cluster", config: TmkConfig) -> None:
        super().__init__(cluster, config.segment_bytes)
        self.config = config
        #: Every write notice of the run, filed once by its creator; each
        #: processor reads it through its own knowledge (host-side only).
        self.notices = NoticeIndex()
        if (config.barrier_kind == "dissemination"
                and cluster.recovery is not None
                and cluster.recovery.config.checkpoint_interval > 0):
            raise ValueError(
                "coordinated checkpoints need a barrier with a root to "
                "decide the cut; use barrier_kind='central' or 'tree'")

    def lock_manager(self, lock: int) -> int:
        """Static lock-manager assignment (lock id modulo processors)."""
        return lock % self.cluster.nprocs


class Tmk(DsmEndpoint):
    """Per-processor TreadMarks endpoint (``proc.tmk``)."""

    def __init__(self, proc: "Processor", system: TmkSystem) -> None:
        super().__init__(proc, system)
        self.core = LrcCore(proc, system)
        lock_cls = (McsLockSubsystem if system.config.lock_kind == "mcs"
                    else LockSubsystem)
        self.locks = lock_cls(proc, self.core, system)
        barrier_cls = {
            "central": BarrierSubsystem,
            "tree": TreeBarrierSubsystem,
            "dissemination": DisseminationBarrierSubsystem,
        }[system.config.barrier_kind]
        self.barriers = barrier_cls(proc, self.core, system)


def attach_tmk(cluster: "Cluster",
               config: Optional[TmkConfig] = None) -> List[Tmk]:
    """Create one :class:`Tmk` endpoint per processor (sets ``proc.tmk``)."""
    system = TmkSystem(cluster, config if config is not None else TmkConfig())
    return system.attach(Tmk)
