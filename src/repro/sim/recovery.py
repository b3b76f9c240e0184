"""Crash recovery: failure detection, checkpointing, rollback.

The paper's testbed assumes every workstation survives the whole run; a
*network of workstations* in practice loses nodes.  This module turns a
permanent node crash (:attr:`repro.sim.faults.FaultPlan.crash_at`) from a
hang into a detected, recoverable failure:

* **Failure detection** -- a lease-based heartbeat monitor, modeled after
  the pvmd heartbeat exchange (PVM) and the barrier manager's liveness
  knowledge (TreadMarks).  Once a crashed node has been silent for
  :attr:`RecoveryConfig.lease_timeout` virtual seconds, the monitor
  reclaims the dead node's locks on the survivors and raises
  :class:`NodeFailure` -- instead of letting a blocked barrier trip the
  engine watchdog many virtual seconds later.

* **Coordinated checkpointing** -- TreadMarks checkpoints at *barrier
  episodes*: a barrier departure is a consistent cut (every processor has
  closed its intervals, all write notices are merged at the manager, no
  sync message is in flight), so snapshotting pages + vector clocks +
  lock state there needs no message logging (DESIGN.md section 5d).  PVM
  checkpoints on a coordinated timer: each process saves its state plus
  its in-flight message log (the inbox), Chandy-Lamport style, with
  marker messages accounted per node.

* **Rollback recovery** -- the simulator is deterministic, so restoring
  the last checkpoint and replaying forward reproduces the pre-crash
  execution exactly.  :func:`plan_recovery` therefore re-runs the program
  on a fresh cluster with the failed rank restarted on a spare host (the
  crash entry removed from the plan) and *charges* what a real recovery
  would cost: detection latency, work lost since the last checkpoint,
  and checkpoint restore time.  The final result is bit-identical to the
  fault-free run; the overhead lands in :attr:`RecoveryReport` and in the
  ``recovery`` stats bucket.

All recovery traffic and events are accounted under the ``"recovery"``
pseudo-system (like the sanitizer's ``"analysis"`` bucket), so the
``tmk``/``pvm`` wire totals the paper's Table 2 compares stay untouched.
With no crash scheduled and checkpointing disabled nothing here runs at
all, and accounting stays byte-identical to the fault-free simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor
    from repro.sim.faults import FaultPlan

__all__ = ["Checkpoint", "NodeFailure", "RecoveryConfig", "RecoveryManager",
           "RecoveryReport", "plan_recovery"]


class NodeFailure(RuntimeError):
    """A permanently crashed node was detected by the failure detector.

    Carries everything the recovery planner needs: who died, when, when
    the lease expired, and the last completed checkpoint (``None`` if no
    checkpoint was taken before the crash).
    """

    def __init__(self, failed: int, crash_time: float, detect_time: float,
                 checkpoint: Optional["Checkpoint"]) -> None:
        self.failed = failed
        self.crash_time = crash_time
        self.detect_time = detect_time
        self.checkpoint = checkpoint
        at = (f"checkpoint {checkpoint.epoch} (t={checkpoint.time:.6f})"
              if checkpoint is not None else "program start")
        super().__init__(
            f"node {failed} crashed at t={crash_time:.6f}, detected at "
            f"t={detect_time:.6f}; last consistent state: {at}")


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the failure detector and the checkpoint/rollback protocol.

    Frozen (hashable) so it can key the bench harness's run cache.
    """

    #: Target spacing of coordinated checkpoints in virtual seconds.
    #: TreadMarks checkpoints at the first barrier episode at least this
    #: long after the previous checkpoint; PVM on a timer with exactly
    #: this period.  0 disables checkpointing (recovery restarts from
    #: the beginning).
    checkpoint_interval: float = 0.0
    #: Heartbeat period of the failure detector.
    heartbeat_interval: float = 10e-3
    #: Silence after which a crashed node is declared failed.
    lease_timeout: float = 50e-3
    #: Wire size of one heartbeat (accounted under ``recovery``).
    heartbeat_bytes: int = 32
    #: Wire size of one coordinated-checkpoint marker message.
    marker_bytes: int = 16
    #: Stable-storage write bandwidth for checkpoint data (bytes/s).
    checkpoint_bandwidth: float = 10e6
    #: Stable-storage read bandwidth during rollback (bytes/s).
    restore_bandwidth: float = 10e6
    #: Private process state a PVM checkpoint saves besides the in-flight
    #: message log (text/data/stack of a 1990s worker process).
    pvm_state_bytes: int = 1 << 16
    #: Failures tolerated in one run before giving up.
    max_recoveries: int = 3

    def __post_init__(self) -> None:
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every comparison.
        if not self.checkpoint_interval >= 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if not (self.heartbeat_interval > 0 and self.lease_timeout > 0):
            raise ValueError("heartbeat_interval/lease_timeout must be > 0")
        if not (self.checkpoint_bandwidth > 0
                and self.restore_bandwidth > 0):
            raise ValueError("checkpoint/restore bandwidth must be > 0")
        if not self.max_recoveries >= 0:
            raise ValueError("max_recoveries must be >= 0")


@dataclass(frozen=True)
class Checkpoint:
    """One coordinated checkpoint (possibly still being written)."""

    #: 1-based checkpoint number within the run.
    epoch: int
    #: Virtual time of the consistent cut.
    time: float
    #: Total bytes written to stable storage (all processors).
    nbytes: int
    #: Processors that have written their share.  A checkpoint is only
    #: restorable once every processor has contributed; one a crashed
    #: node never finished is useless.
    writers: int = 0


@dataclass
class RecoveryReport:
    """Accumulated cost of every rollback in one logical run.

    The report spans *all* recovery attempts of one ``run_parallel``
    call; :attr:`overhead_time` is added to the final measured time so
    recovered runs pay for detection, lost work, and restore.
    """

    recoveries: int = 0
    failed_nodes: List[int] = field(default_factory=list)
    #: Sum over failures of (detect time - crash time).
    detection_latency: float = 0.0
    #: Sum over failures of (crash time - restored checkpoint time):
    #: work that was done, lost, and re-executed.
    lost_work: float = 0.0
    #: Stable-storage read time spent restoring checkpoints.
    restore_time: float = 0.0
    #: Bytes read back from stable storage.
    restored_bytes: int = 0
    #: Cut time of the most recently restored checkpoint (-1 before any
    #: rollback).  A second failure whose best checkpoint is not newer
    #: than this means no durable progress -- unrecoverable.
    last_restored_time: float = -1.0

    @property
    def overhead_time(self) -> float:
        """Virtual seconds a real recovery adds to the fault-free time."""
        return self.detection_latency + self.lost_work + self.restore_time


class RecoveryManager:
    """Per-cluster crash/checkpoint orchestration.

    Created by :class:`~repro.sim.cluster.Cluster` when a recovery config
    is given or the fault plan schedules a permanent crash.  Installs
    nothing unless needed: with no crashes scheduled there is no monitor,
    and with ``checkpoint_interval == 0`` there are no checkpoints, so a
    fault-free run's accounting is untouched.
    """

    def __init__(self, cluster: "Cluster", config: RecoveryConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.checkpoints: List[Checkpoint] = []
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
                self.config.heartbeat_interval,
                lambda: self._monitor_tick(self.config.heartbeat_interval))

    def _kill(self, node: int, t: float) -> None:
        proc = self.cluster.procs[node]
        if proc.thread is None:
            return
        if self.cluster.engine.kill(proc.thread, t):
            self.cluster.trace.record(t, node, "node_crash", f"t={t:.6f}")

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
            nbytes=live * self.config.heartbeat_bytes)
        for node, t_crash in self._crashes:
            if node in self._handled:
                continue
            thread = self.cluster.procs[node].thread
            if (thread is not None and thread.killed
                    and t - t_crash >= self.config.lease_timeout):
                self._declare(node, t_crash, t)
        engine.post(t + self.config.heartbeat_interval,
                    lambda: self._monitor_tick(
                        t + self.config.heartbeat_interval))

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
                self._declare(node, t_crash,
                              t_crash + self.config.lease_timeout)

    def _declare(self, node: int, t_crash: float, t_detect: float) -> None:
        """Lease expired: reclaim the dead node's locks on the survivors
        and surface the failure to the harness."""
        for listener in self.failure_listeners:
            if listener(node, t_crash, t_detect):
                # The failure is masked (quorum replication absorbed it):
                # no declaration, no rollback; monitoring continues so a
                # *second* crash can still be judged against the quorum.
                self._handled.add(node)
                self.cluster.trace.record(t_detect, node, "node_masked",
                                          f"crashed_at={t_crash:.6f}")
                return
        self._declared = True
        for proc in self.cluster.procs:
            if proc.pid == node or proc.thread is None or proc.thread.killed:
                continue
            locks = getattr(proc.tmk, "locks", None)
            reclaim = getattr(locks, "reclaim", None)
            if reclaim is not None:
                reclaim(node)
        self.cluster.trace.record(t_detect, node, "node_failure",
                                  f"crashed_at={t_crash:.6f}")
        checkpoint = None
        for candidate in self.checkpoints:
            # Restorable = complete (every processor wrote its share) and
            # cut no later than the crash; a cut the dead node never
            # contributed to cannot be rolled back to.
            if (candidate.time <= t_crash
                    and candidate.writers >= self.cluster.nprocs):
                checkpoint = candidate
        raise NodeFailure(failed=node, crash_time=t_crash,
                          detect_time=t_detect, checkpoint=checkpoint)

    # ------------------------------------------------------------------
    # Checkpoint bookkeeping
    # ------------------------------------------------------------------
    def note_checkpoint(self, t: float) -> Checkpoint:
        """Open a new checkpoint epoch at cut time ``t``."""
        checkpoint = Checkpoint(epoch=len(self.checkpoints) + 1,
                                time=t, nbytes=0)
        self.checkpoints.append(checkpoint)
        return checkpoint

    def _add_checkpoint_bytes(self, nbytes: int) -> None:
        last = self.checkpoints[-1]
        self.checkpoints[-1] = replace(last, nbytes=last.nbytes + nbytes,
                                       writers=last.writers + 1)

    # ------------------------------------------------------------------
    # TreadMarks: barrier-aligned checkpoints
    # ------------------------------------------------------------------
    def tmk_checkpoint_due(self, t_release: float) -> bool:
        """Barrier manager's decision: checkpoint at this episode?

        True at the first barrier release at least ``checkpoint_interval``
        after the previous checkpoint (or after t=0 for the first one).
        """
        if self.config.checkpoint_interval <= 0:
            return False
        last = self.checkpoints[-1].time if self.checkpoints else 0.0
        return t_release - last >= self.config.checkpoint_interval

    def tmk_write_checkpoint(self, proc: "Processor") -> None:
        """One processor writes its share of a barrier checkpoint: its
        valid pages (within the heap watermark), vector clock, and lock
        table, charged at stable-storage bandwidth."""
        nbytes = self._tmk_state_bytes(proc)
        proc.compute(nbytes / self.config.checkpoint_bandwidth)
        self._add_checkpoint_bytes(nbytes)
        self.cluster.stats.record("recovery", "checkpoint", messages=1,
                                  nbytes=nbytes)
        proc.trace("checkpoint",
                   f"epoch={self.checkpoints[-1].epoch} bytes={nbytes}")

    @staticmethod
    def _tmk_state_bytes(proc: "Processor") -> int:
        """Accounted size of one processor's TreadMarks checkpoint."""
        core = proc.tmk.core
        pt = core.pt
        valid = pt.npages - pt.valid.count(0)
        # Valid page images + vector clock + lock/interval table headers.
        return valid * pt.page_size + 8 * len(core.vc) + 64

    # ------------------------------------------------------------------
    # PVM: coordinated timer checkpoints
    # ------------------------------------------------------------------
    def start_coordinated_checkpoints(self) -> None:
        """Arm the PVM checkpoint timer (called by ``attach_pvm``)."""
        dt = self.config.checkpoint_interval
        if dt <= 0:
            return
        self.cluster.engine.post(dt, lambda: self._pvm_checkpoint(dt))

    def _pvm_checkpoint(self, t: float) -> None:
        if self.cluster.engine.finished or self._declared:
            return
        checkpoint = self.note_checkpoint(t)
        nprocs = self.cluster.nprocs
        self.cluster.stats.record("recovery", "marker", messages=nprocs,
                                  nbytes=nprocs * self.config.marker_bytes)
        for proc in self.cluster.procs:
            thread = proc.thread
            if thread is None or thread.killed or thread.done:
                continue
            inflight = (proc.pvm.inflight_bytes()
                        if proc.pvm is not None else 0)
            nbytes = self.config.pvm_state_bytes + inflight
            proc.charge_service(nbytes / self.config.checkpoint_bandwidth)
            self._add_checkpoint_bytes(nbytes)
            self.cluster.stats.record("recovery", "checkpoint", messages=1,
                                      nbytes=nbytes)
            proc.trace("checkpoint",
                       f"epoch={checkpoint.epoch} bytes={nbytes}")
        self.cluster.engine.post(
            t + self.config.checkpoint_interval,
            lambda: self._pvm_checkpoint(t + self.config.checkpoint_interval))


# ----------------------------------------------------------------------
# Rollback planning (harness side, between cluster runs)
# ----------------------------------------------------------------------
def plan_recovery(failure: NodeFailure, plan: "FaultPlan",
                  config: RecoveryConfig,
                  report: RecoveryReport) -> "FaultPlan":
    """Decide whether (and how) to recover from one detected failure.

    The simulator is deterministic, so *restore last checkpoint + replay*
    is execution-equivalent to re-running from the start with the failed
    rank restarted on a spare host; this function charges the difference
    (detection latency + work lost since the checkpoint + restore time)
    into ``report`` and returns the fault plan for the re-execution.

    Raises the ``failure`` back unrecoverable when the retry budget is
    exhausted, or when the failure's best checkpoint is not newer than
    the one already restored -- i.e. a second crash within the same
    checkpoint interval, where rollback can make no durable progress.
    """
    checkpoint = failure.checkpoint
    ckpt_time = checkpoint.time if checkpoint is not None else 0.0
    if report.recoveries >= config.max_recoveries:
        raise failure
    if ckpt_time <= report.last_restored_time:
        raise failure
    report.recoveries += 1
    report.failed_nodes.append(failure.failed)
    report.detection_latency += failure.detect_time - failure.crash_time
    report.lost_work += max(0.0, failure.crash_time - ckpt_time)
    if checkpoint is not None:
        report.restore_time += checkpoint.nbytes / config.restore_bandwidth
        report.restored_bytes += checkpoint.nbytes
    report.last_restored_time = ckpt_time
    return plan.without_crash(failure.failed)
