"""The observability facade the runtime layers talk to.

One :class:`Obs` per cluster, created when a :class:`ObsConfig` is
active.  The runtime layers (TreadMarks, PVM, the network) hold a
reference that is ``None`` when observability is off, so the
instrumented hot paths cost exactly one pointer test:

    obs = proc.obs
    if obs is not None:
        obs.begin(proc.now, pid, K_PAGE_FAULT, B_STALL_DATA, detail)

:class:`Obs` fans each call out to the :class:`~repro.obs.timeline.
Timeline` (event log) and the :class:`~repro.obs.profile.TimeProfiler`
(exclusive time buckets), whichever are enabled.  All state is host-
side: no call here ever advances virtual time, sends a message, or
touches the statistics, so enabling observability cannot perturb a
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.profile import (BUCKETS, B_COMPUTE, B_PROTOCOL,
                               B_REPLICATION, B_STALL_DATA, B_STALL_SYNC,
                               B_WIRE, TimeProfiler)
from repro.obs.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor

__all__ = [
    "BUCKETS",
    "B_COMPUTE",
    "B_PROTOCOL",
    "B_REPLICATION",
    "B_STALL_DATA",
    "B_STALL_SYNC",
    "B_WIRE",
    "Obs",
    "ObsConfig",
]


@dataclass(frozen=True)
class ObsConfig:
    """What to observe (hashable: participates in run-cache keys)."""

    #: Record the span/instant event timeline.
    timeline: bool = False
    #: Attribute every virtual microsecond to an exclusive bucket.
    profile: bool = False
    #: Ring-buffer cap on the timeline (``None`` = unbounded).
    cap: Optional[int] = None

    @property
    def enabled(self) -> bool:
        return self.timeline or self.profile


class Obs:
    """Per-cluster observability state: timeline + profiler fan-out."""

    __slots__ = ("timeline", "profiler")

    def __init__(self, timeline: Optional[Timeline] = None,
                 profiler: Optional[TimeProfiler] = None) -> None:
        self.timeline = timeline
        self.profiler = profiler

    @classmethod
    def from_config(cls, config: ObsConfig, nprocs: int, cost) -> "Obs":
        timeline = (Timeline(enabled=True, cap=config.cap)
                    if config.timeline else None)
        profiler = TimeProfiler(nprocs, cost) if config.profile else None
        return cls(timeline=timeline, profiler=profiler)

    # ------------------------------------------------------------------
    # Span lifecycle (called from the owning processor's thread context)
    # ------------------------------------------------------------------
    def begin(self, time: float, pid: int, kind: str, bucket: str,
              detail: str = "") -> None:
        if self.profiler is not None:
            self.profiler.push(pid, kind, bucket, time)
        if self.timeline is not None:
            self.timeline.begin(time, pid, kind, detail)

    def end(self, time: float, pid: int) -> None:
        if self.profiler is not None:
            self.profiler.pop(pid, time)
        if self.timeline is not None:
            self.timeline.end(time, pid, "")

    # ------------------------------------------------------------------
    # Out-of-band events (handler context or network level)
    # ------------------------------------------------------------------
    def instant(self, time: float, pid: int, kind: str, detail: str = "") -> None:
        if self.timeline is not None:
            self.timeline.instant(time, pid, kind, detail)

    def serve(self, time: float, dur: float, pid: int, kind: str,
              detail: str = "") -> None:
        """A handler's service window (complete span, known duration)."""
        if self.timeline is not None:
            self.timeline.complete(time, dur, pid, kind, detail)

    def wire(self, time: float, dur: float, pid: int, detail: str = "") -> None:
        """One transmission's occupancy of the medium (send to arrival)."""
        if self.timeline is not None:
            self.timeline.complete(time, dur, pid, "wire", detail)

    # ------------------------------------------------------------------
    # Mechanism counters (paper section 5.2 causal analysis)
    # ------------------------------------------------------------------
    def note_diff_request(self, pid: int, request_bytes: int) -> None:
        if self.profiler is not None:
            self.profiler.note_diff_request(pid, request_bytes)

    def note_fetch_round(self, pid: int, total_bytes: int,
                         union_bytes: int) -> None:
        if self.profiler is not None:
            self.profiler.note_fetch_round(pid, total_bytes, union_bytes)

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def on_measurement_start(self, procs: Sequence["Processor"],
                             now: float = 0.0) -> None:
        """Snapshot the accounting at the opening of the measured window.

        ``now`` is the marking processor's clock -- the run-level window
        start; the other processors' own clocks (the per-processor
        baselines) may lag or lead it slightly.
        """
        if self.profiler is not None:
            self.profiler.mark([p.thread.clock if p.thread is not None else 0.0
                                for p in procs], now)
        if self.timeline is not None:
            self.timeline.instant(now, -1, "measure_start", "")

    def finalize(self, finish_times: Sequence[float]) -> None:
        """Close any spans left open (crashes, aborts) and settle the
        per-processor accounting so buckets sum to the final clocks."""
        if self.profiler is not None:
            self.profiler.finalize(finish_times)
