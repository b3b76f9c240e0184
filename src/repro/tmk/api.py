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

from repro.tmk.barrier import BarrierSubsystem, TreeBarrierSubsystem
from repro.tmk.consistency import LrcCore
from repro.tmk.intervals import NoticeIndex
from repro.tmk.locks import LockSubsystem
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
    #: Barrier topology: "central" (the paper's TreadMarks -- one manager,
    #: 2(n-1) messages per episode) or "tree" (k-ary combining tree --
    #: arrivals merge upward, departures fan downward, O(n) messages but
    #: O(log n) serial latency at the root).
    barrier_kind: str = "central"

    def __post_init__(self) -> None:
        segment = self.segment_bytes
        # Divisibility by the page size is checked at attach: the page
        # size is the cost model's, not this config's.
        if isinstance(segment, bool) or not isinstance(segment, int) \
                or not 0 < segment <= ADDRESS_SPACE:
            raise ValueError(f"segment_bytes must be an int in "
                             f"(0, {ADDRESS_SPACE}], got {segment!r}")
        if self.protocol not in ("lazy", "eager"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not isinstance(self.coalesce_diffs, bool):
            raise ValueError("coalesce_diffs must be a bool, got "
                             f"{self.coalesce_diffs!r}")
        budget = self.piggyback_budget
        if isinstance(budget, bool) or not isinstance(budget, int) \
                or budget < 0:
            raise ValueError("piggyback_budget must be a non-negative int, "
                             f"got {budget!r}")
        if self.barrier_kind not in ("central", "tree"):
            raise ValueError(f"unknown barrier_kind {self.barrier_kind!r}")


class TmkSystem(DsmSystem):
    """Cluster-global TreadMarks state: heap layout and manager maps."""

    def __init__(self, cluster: "Cluster", config: TmkConfig) -> None:
        super().__init__(cluster, config.segment_bytes)
        self.config = config
        #: Every write notice of the run, filed once by its creator; each
        #: processor reads it through its own knowledge (host-side only).
        self.notices = NoticeIndex()

    def lock_manager(self, lock: int) -> int:
        """Static lock-manager assignment (lock id modulo processors)."""
        return lock % self.cluster.nprocs


class Tmk(DsmEndpoint):
    """Per-processor TreadMarks endpoint (``proc.tmk``)."""

    def __init__(self, proc: "Processor", system: TmkSystem) -> None:
        super().__init__(proc, system)
        self.core = LrcCore(proc, system)
        self.locks = LockSubsystem(proc, self.core, system)
        barrier_cls = (TreeBarrierSubsystem
                       if system.config.barrier_kind == "tree"
                       else BarrierSubsystem)
        self.barriers = barrier_cls(proc, self.core, system)


def attach_tmk(cluster: "Cluster",
               config: Optional[TmkConfig] = None) -> List[Tmk]:
    """Create one :class:`Tmk` endpoint per processor (sets ``proc.tmk``)."""
    system = TmkSystem(cluster, config if config is not None else TmkConfig())
    return system.attach(Tmk)
