"""Time-attribution profiler: where did the virtual time go?

Every virtual microsecond a processor's clock advances is charged to
exactly one *exclusive bucket*, so per-processor buckets sum to that
processor's measured time by construction:

* explicit advances -- :meth:`Processor.compute` and forward clock
  jumps (``set_now``) charge the bucket of the innermost open span
  (``compute`` when no span is open);
* interrupt-style service charges (``charge_service``) always charge
  ``protocol``: handlers run in scheduler context and may fire while
  the victim's application thread sits mid-span, so the span stack
  must not see them;
* block/wake jumps inside the engine advance the clock without any
  hook firing.  They surface as a *residual* -- clock minus accounted
  time -- settled into the enclosing span's bucket whenever a span
  opens or closes (a stall is exactly the wait inside ``lock_acquire``,
  ``barrier``, ``page_fault``, or ``pvm_recv`` spans).

On top of the buckets, the profiler accumulates the per-mechanism
counters the paper's causal analysis needs (section 5.2 of Lu et al.):
diff-request round-trip overhead and diff-accumulation overlap bytes.
:func:`build_profile` combines them with the false-sharing byte
attribution from :mod:`repro.analysis.false_sharing` and charges the
remaining data stall to the separation of synchronization and data
transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "BUCKETS",
    "B_COMPUTE",
    "B_PROTOCOL",
    "B_REPLICATION",
    "B_STALL_DATA",
    "B_STALL_SYNC",
    "B_WIRE",
    "MechanismAttribution",
    "ProcessorProfile",
    "RunProfile",
    "TimeProfiler",
    "build_profile",
    "render_profile",
]

# ----------------------------------------------------------------------
# Exclusive time buckets (see DESIGN.md section 5e for definitions);
# repro.obs.core re-exports them for the runtime layers.
# ----------------------------------------------------------------------
B_COMPUTE = "compute"          #: application computation
B_WIRE = "wire"                #: sender-side CPU + occupancy putting bytes out
B_PROTOCOL = "protocol"        #: runtime-library CPU (service, twins, diffs,
#: pack/unpack)
B_STALL_SYNC = "stall_sync"    #: blocked on synchronization (locks, barriers)
B_STALL_DATA = "stall_data"    #: blocked on data (page faults, pvm_recv)
B_REPLICATION = "replication"  #: blocked on SC-ABD quorum reads/writes

BUCKETS = (B_COMPUTE, B_WIRE, B_PROTOCOL, B_STALL_SYNC, B_STALL_DATA,
           B_REPLICATION)

_MECH_KEYS = ("request_time", "accum_time", "diff_requests", "accum_bytes")


class TimeProfiler:
    """Per-processor exclusive-bucket accounting (see module docstring).

    The invariant maintained across every hook: ``accounted[pid]``
    equals the sum of all bucket charges for ``pid``, and is re-pinned
    to the processor's clock at every span boundary, so the uncharged
    gap (block/wake jumps) always lands in the bucket of the span it
    happened inside.
    """

    def __init__(self, nprocs: int, cost: Any) -> None:
        self.nprocs = nprocs
        self.cost = cost
        self.buckets: List[Dict[str, float]] = [
            {b: 0.0 for b in BUCKETS} for _ in range(nprocs)]
        self.accounted: List[float] = [0.0] * nprocs
        #: Innermost-last stack of open-span buckets, per processor.
        self.stacks: List[List[str]] = [[] for _ in range(nprocs)]
        self.mech: List[Dict[str, float]] = [
            {k: 0.0 for k in _MECH_KEYS} for _ in range(nprocs)]
        #: Snapshots taken at the opening of the measured window.
        self.baseline_clock: List[float] = [0.0] * nprocs
        self.baseline_buckets: List[Dict[str, float]] = [
            {b: 0.0 for b in BUCKETS} for _ in range(nprocs)]
        self.baseline_mech: List[Dict[str, float]] = [
            {k: 0.0 for k in _MECH_KEYS} for _ in range(nprocs)]
        #: Run-level measured-window start (the marking processor's clock).
        self.mark_time = 0.0
        #: Final clocks, recorded by :meth:`finalize`.
        self.finish: List[float] = [0.0] * nprocs
        self.finalized = False

    # ------------------------------------------------------------------
    # Accounting primitives
    # ------------------------------------------------------------------
    def _context(self, pid: int) -> str:
        stack = self.stacks[pid]
        return stack[-1] if stack else B_COMPUTE

    def _settle(self, pid: int, now: float) -> None:
        """Charge the uncharged clock gap (block/wake jumps) to the
        current context and re-pin ``accounted`` to the clock exactly,
        absorbing float drift from incremental adds."""
        residual = now - self.accounted[pid]
        if residual:
            self.buckets[pid][self._context(pid)] += residual
        self.accounted[pid] = now

    def push(self, pid: int, kind: str, bucket: str, now: float) -> None:
        self._settle(pid, now)
        self.stacks[pid].append(bucket)

    def pop(self, pid: int, now: float) -> None:
        self._settle(pid, now)
        stack = self.stacks[pid]
        if stack:
            stack.pop()

    def on_advance(self, pid: int, dt: float) -> None:
        """Explicit clock advance from the owning thread (compute or a
        forward ``set_now`` jump): charge the innermost span's bucket.

        The hottest hook (once per compute() call), hence the inlined
        stack lookup."""
        stack = self.stacks[pid]
        self.buckets[pid][stack[-1] if stack else B_COMPUTE] += dt
        self.accounted[pid] += dt

    def on_service(self, pid: int, dt: float) -> None:
        """Interrupt-style charge (handler/reliability context): always
        protocol time, never the span stack -- the victim's app thread
        may be mid-span in an unrelated stall."""
        self.buckets[pid][B_PROTOCOL] += dt
        self.accounted[pid] += dt

    # ------------------------------------------------------------------
    # Mechanism counters (TreadMarks consistency layer)
    # ------------------------------------------------------------------
    def note_diff_request(self, pid: int, request_bytes: int) -> None:
        """One diff-request message sent during a page fault: the
        round-trip overhead the paper charges to access misses under
        an invalidate protocol."""
        cost = self.cost
        overhead = (cost.udp_send_cpu + cost.copy_cost(request_bytes)
                    + cost.wire_time(request_bytes + cost.udp_header_bytes)
                    + cost.wire_latency + cost.interrupt_cpu)
        mech = self.mech[pid]
        mech["request_time"] += overhead
        mech["diff_requests"] += 1

    def note_fetch_round(self, pid: int, total_bytes: int,
                         union_bytes: int) -> None:
        """One fault's diff fetch: ``total_bytes`` of diff data arrived
        to reconstruct ``union_bytes`` of distinct page bytes.  The
        overlap is diff accumulation -- the same migratory bytes shipped
        once per intervening interval."""
        overlap = total_bytes - union_bytes
        if overlap <= 0:
            return
        cost = self.cost
        per_byte = (1.0 / cost.bandwidth + cost.diff_apply_byte_cpu
                    + cost.copy_byte_cpu)
        mech = self.mech[pid]
        mech["accum_time"] += overlap * per_byte
        mech["accum_bytes"] += overlap

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def mark(self, clocks: Sequence[float], now: float = 0.0) -> None:
        """Open the measured window: settle and snapshot every pid.

        ``now`` is the run-level window start (the marking processor's
        clock); per-pid baselines are each processor's own clock."""
        self.mark_time = now
        for pid, clock in enumerate(clocks):
            self._settle(pid, clock)
            self.baseline_clock[pid] = clock
            self.baseline_buckets[pid] = dict(self.buckets[pid])
            self.baseline_mech[pid] = dict(self.mech[pid])

    def finalize(self, finish_times: Sequence[float]) -> None:
        """Close any spans still open (crashed/killed threads) and pin
        the accounting to each processor's final clock."""
        for pid, finish in enumerate(finish_times):
            while self.stacks[pid]:
                self.pop(pid, finish)
            self._settle(pid, finish)
            self.finish[pid] = finish
        self.finalized = True

    # ------------------------------------------------------------------
    # Window readout
    # ------------------------------------------------------------------
    def window_buckets(self, pid: int) -> Dict[str, float]:
        base = self.baseline_buckets[pid]
        return {b: self.buckets[pid][b] - base.get(b, 0.0) for b in BUCKETS}

    def window_measured(self, pid: int) -> float:
        return self.finish[pid] - self.baseline_clock[pid]

    def window_mech(self, pid: int) -> Dict[str, float]:
        base = self.baseline_mech[pid]
        return {k: self.mech[pid][k] - base.get(k, 0.0) for k in _MECH_KEYS}


@dataclass(frozen=True)
class ProcessorProfile:
    """One processor's measured window, decomposed."""

    pid: int
    #: finish clock minus clock at the opening of the measured window.
    measured: float
    #: Exclusive buckets; ``sum(buckets.values()) == measured`` exactly.
    buckets: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.buckets.values())


@dataclass(frozen=True)
class MechanismAttribution:
    """The paper's four-mechanism decomposition of TreadMarks stall time.

    ``separation`` is the remainder of data-stall time after the three
    measurable mechanisms: it is the baseline cost of fetching data at
    access-miss time instead of piggybacked on synchronization.
    """

    stall_data: float
    request_roundtrips: float
    accumulation: float
    false_sharing: float
    separation: float
    n_diff_requests: int = 0
    accum_bytes: int = 0
    false_bytes: int = 0


@dataclass
class RunProfile:
    """The full time-attribution readout for one parallel run."""

    system: str
    label: str
    nprocs: int
    processors: List[ProcessorProfile] = field(default_factory=list)
    mechanisms: Optional[MechanismAttribution] = None

    def bucket_totals(self) -> Dict[str, float]:
        totals = {b: 0.0 for b in BUCKETS}
        for proc in self.processors:
            for bucket, value in proc.buckets.items():
                totals[bucket] += value
        return totals

    @property
    def measured(self) -> float:
        """The run's measured time (slowest processor)."""
        return max((p.measured for p in self.processors), default=0.0)


def build_profile(result: Any, label: str = "") -> RunProfile:
    """Assemble a :class:`RunProfile` from a finished parallel run.

    ``result`` is a :class:`repro.apps.base.ParallelResult` whose run
    had ``ObsConfig(profile=True)``; its ``profiler`` attribute holds
    the :class:`TimeProfiler`.  For TreadMarks runs that also attached
    the sanitizer with false-sharing tracking, diff bytes written by
    non-dominant writers are charged to false sharing.
    """
    profiler: Optional[TimeProfiler] = getattr(result, "profiler", None)
    if profiler is None:
        raise ValueError("run has no profiler; pass ObsConfig(profile=True)")
    if not profiler.finalized:
        raise ValueError("profiler not finalized; did the run complete?")
    procs = [
        ProcessorProfile(pid=pid, measured=profiler.window_measured(pid),
                         buckets=profiler.window_buckets(pid))
        for pid in range(profiler.nprocs)
    ]
    profile = RunProfile(system=result.system, label=label,
                         nprocs=profiler.nprocs, processors=procs)
    if result.system == "tmk":
        stall_data = sum(p.buckets.get("stall_data", 0.0) for p in procs)
        request_time = accum_time = 0.0
        n_requests = accum_bytes = 0
        for pid in range(profiler.nprocs):
            mech = profiler.window_mech(pid)
            request_time += mech["request_time"]
            accum_time += mech["accum_time"]
            n_requests += int(mech["diff_requests"])
            accum_bytes += int(mech["accum_bytes"])
        false_bytes = 0
        tracker = getattr(getattr(result, "sanitizer", None), "fs", None)
        if tracker is not None:
            false_bytes = tracker.total_false_bytes()
        cost = profiler.cost
        per_byte = (1.0 / cost.bandwidth + cost.diff_apply_byte_cpu
                    + cost.copy_byte_cpu)
        false_time = false_bytes * per_byte
        separation = stall_data - request_time - accum_time - false_time
        profile.mechanisms = MechanismAttribution(
            stall_data=stall_data,
            request_roundtrips=request_time,
            accumulation=accum_time,
            false_sharing=false_time,
            separation=max(0.0, separation),
            n_diff_requests=n_requests,
            accum_bytes=accum_bytes,
            false_bytes=false_bytes,
        )
    return profile


def _ms(t: float) -> str:
    return f"{t * 1e3:10.3f}"


def render_profile(profile: RunProfile) -> str:
    """Human-readable causal breakdown (times in milliseconds)."""
    lines: List[str] = []
    title = profile.label or f"{profile.system} x {profile.nprocs}"
    lines.append(f"time attribution: {title} [{profile.system}, "
                 f"{profile.nprocs} procs]")
    header = "  pid   measured" + "".join(f" {b:>10}" for b in BUCKETS)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for proc in profile.processors:
        row = f"  P{proc.pid:<3} {_ms(proc.measured)}"
        row += "".join(f" {_ms(proc.buckets[b])}" for b in BUCKETS)
        lines.append(row)
    totals = profile.bucket_totals()
    grand = sum(p.measured for p in profile.processors)
    row = f"  sum  {_ms(grand)}"
    row += "".join(f" {_ms(totals[b])}" for b in BUCKETS)
    lines.append(row)
    lines.append("  (all times in ms; buckets are exclusive and sum to "
                 "measured)")
    mech = profile.mechanisms
    if mech is not None:
        lines.append("")
        lines.append("  stall-on-data attribution (the paper's mechanisms):")
        lines.append(f"    total data stall      {_ms(mech.stall_data)} ms")
        lines.append(f"    sync/data separation  {_ms(mech.separation)} ms")
        lines.append(f"    diff-request trips    {_ms(mech.request_roundtrips)}"
                     f" ms  ({mech.n_diff_requests} requests)")
        lines.append(f"    false sharing         {_ms(mech.false_sharing)} ms"
                     f"  ({mech.false_bytes} diff bytes)")
        lines.append(f"    diff accumulation     {_ms(mech.accumulation)} ms"
                     f"  ({mech.accum_bytes} overlap bytes)")
    return "\n".join(lines)
