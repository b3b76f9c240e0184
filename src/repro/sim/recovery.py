"""Crash detection: a lease-based failure detector.

The paper's testbed assumes every workstation survives the whole run; a
*network of workstations* in practice loses nodes.  This module turns a
permanent node crash (:attr:`repro.sim.faults.FaultPlan.crash_at`) from a
hang into a detected failure: a lease-based heartbeat monitor, modeled
after the pvmd heartbeat exchange (PVM) and the barrier manager's
liveness knowledge (TreadMarks).  Once a crashed node has been silent for
:data:`LEASE_TIMEOUT` virtual seconds, the monitor raises
:class:`NodeFailure` -- instead of letting a blocked barrier trip the
engine watchdog many virtual seconds later -- unless a failure listener
(SC-ABD quorum replication, :mod:`repro.scabd`) masks the crash.

Heartbeat traffic is accounted under the ``"recovery"`` pseudo-system
(like the sanitizer's ``"analysis"`` bucket), so the ``tmk``/``pvm``
wire totals the paper's Table 2 compares stay untouched.  With no crash
scheduled nothing here runs at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

__all__ = ["HEARTBEAT_BYTES", "HEARTBEAT_INTERVAL", "LEASE_TIMEOUT",
           "NodeFailure", "RecoveryManager"]

#: Heartbeat period of the failure detector (virtual seconds).
HEARTBEAT_INTERVAL = 10e-3
#: Silence after which a crashed node is declared failed.
LEASE_TIMEOUT = 50e-3
#: Wire size of one heartbeat (accounted under ``recovery``).
HEARTBEAT_BYTES = 32


class NodeFailure(RuntimeError):
    """A permanently crashed node was detected by the failure detector:
    who died, when, and when its lease expired."""

    def __init__(self, failed: int, crash_time: float,
                 detect_time: float) -> None:
        self.failed = failed
        self.crash_time = crash_time
        self.detect_time = detect_time
        super().__init__(
            f"node {failed} crashed at t={crash_time:.6f}, detected at "
            f"t={detect_time:.6f}")


class RecoveryManager:
    """Per-cluster crash injection and failure detection.

    Created by :class:`~repro.sim.cluster.Cluster` only when the fault
    plan schedules a permanent crash, so a fault-free run's accounting
    is untouched.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self._crashes: Tuple[Tuple[int, float], ...] = ()
        self._declared = False
        #: Failure listeners consulted before a failure is surfaced.  A
        #: listener is called as ``listener(node, t_crash, t_detect)`` and
        #: returns True if it *masked* the failure (e.g. the SC-ABD quorum
        #: layer absorbing a replica crash); a masked node is never
        #: declared and the run continues.  Shared failure-detector
        #: interface: the lease/heartbeat machinery above stays the single
        #: source of "who is dead, and since when".
        self.failure_listeners: List[Callable[[int, float, float], bool]] = []
        self._handled: Set[int] = set()

    def add_failure_listener(
            self, listener: Callable[[int, float, float], bool]) -> None:
        """Register a listener consulted before declaring a failure."""
        self.failure_listeners.append(listener)

    # ------------------------------------------------------------------
    # Installation (called by Cluster.run after threads are spawned)
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Post crash events and, if any are scheduled, start the monitor."""
        plan = self.cluster.faults
        crashes = tuple(plan.crash_at) if plan is not None else ()
        for node, t in crashes:
            if not 0 <= node < self.cluster.nprocs:
                raise ValueError(
                    f"crash node {node} out of range for "
                    f"{self.cluster.nprocs} processors")
            self.cluster.engine.post(
                t, lambda node=node, t=t: self._kill(node, t))
        self._crashes = crashes
        if crashes:
            self.cluster.engine.post(
                HEARTBEAT_INTERVAL,
                lambda: self._monitor_tick(HEARTBEAT_INTERVAL))

    def _kill(self, node: int, t: float) -> None:
        proc = self.cluster.procs[node]
        if proc.thread is None:
            return
        events = self.cluster.events
        if self.cluster.engine.kill(proc.thread, t) and events is not None:
            events.node_crash(node, t)

    # ------------------------------------------------------------------
    # Failure detector
    # ------------------------------------------------------------------
    def _monitor_tick(self, t: float) -> None:
        engine = self.cluster.engine
        if engine.finished or self._declared:
            return
        live = sum(1 for proc in self.cluster.procs
                   if proc.thread is not None and not proc.thread.killed)
        self.cluster.stats.record(
            "recovery", "heartbeat", messages=live,
            nbytes=live * HEARTBEAT_BYTES)
        for node, t_crash in self._crashes:
            if node in self._handled:
                continue
            thread = self.cluster.procs[node].thread
            if (thread is not None and thread.killed
                    and t - t_crash >= LEASE_TIMEOUT):
                self._declare(node, t_crash, t)
        engine.post(t + HEARTBEAT_INTERVAL,
                    lambda: self._monitor_tick(t + HEARTBEAT_INTERVAL))

    def finalize(self) -> None:
        """End-of-run check (called by ``Cluster.run`` after the engine
        drains): a killed node whose lease never expired mid-run -- e.g.
        the survivors happened not to wait for it and finished early --
        must still be declared failed, because its share of the result is
        missing.  Detection is charged at the lease expiry."""
        if self._declared:
            return
        for node, t_crash in self._crashes:
            if node in self._handled:
                continue
            thread = self.cluster.procs[node].thread
            if thread is not None and thread.killed:
                self._declare(node, t_crash, t_crash + LEASE_TIMEOUT)

    def _declare(self, node: int, t_crash: float, t_detect: float) -> None:
        """Lease expired: let a listener mask the crash, or surface the
        failure to the harness."""
        for listener in self.failure_listeners:
            if listener(node, t_crash, t_detect):
                # The failure is masked (quorum replication absorbed it):
                # no declaration; monitoring continues so a *second*
                # crash can still be judged against the quorum.
                self._handled.add(node)
                events = self.cluster.events
                if events is not None:
                    events.node_masked(node, t_crash, t_detect)
                return
        self._declared = True
        events = self.cluster.events
        if events is not None:
            events.node_failure(node, t_crash, t_detect)
        raise NodeFailure(failed=node, crash_time=t_crash,
                          detect_time=t_detect)
