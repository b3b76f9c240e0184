"""The SC-ABD runtime facade.

``attach_scabd`` gives every *application* processor the ``proc.tmk``
endpoint (:class:`~repro.tmk.sharedmem.DsmEndpoint`) the TreadMarks
applications use, so every ``tmk_main`` in :mod:`repro.apps` runs
unmodified under quorum replication.  The last
``replicas`` processors of the cluster become dedicated page-replica
servers: they never run the application function (their main body is an
idle daemon loop; all replica work happens in message handlers) and are
excluded from the elapsed-time measurement -- the cost of replication
shows up where it is *paid*, in the clients' quorum waits and in the
``"replication"`` wire traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.engine import Block
from repro.scabd.config import ReplicationConfig
from repro.scabd.core import ScAbdCore, ScAbdReplica
from repro.ivy.sync import IvyBarrier, IvyLocks
from repro.tmk.sharedmem import DsmEndpoint, DsmSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor

__all__ = ["ReplicationReport", "ScAbd", "ScAbdSystem", "attach_scabd"]


@dataclass
class ReplicationReport:
    """What the quorum-replication layer did during one run."""

    replicas: int
    f_max: int
    #: Replica crashes absorbed, in masking order.
    masked_nodes: List[int] = field(default_factory=list)
    #: Sum over masked crashes of (detect time - crash time): how long
    #: each dead replica kept receiving (futile) quorum traffic.
    detection_latency: float = 0.0
    quorum_reads: int = 0
    quorum_writes: int = 0
    #: Quorum wire traffic (the ``"replication"`` stats system).
    messages: int = 0
    bytes: int = 0

    @property
    def masked_failures(self) -> int:
        return len(self.masked_nodes)


class ScAbdSystem(DsmSystem):
    """Cluster-global SC-ABD state: heap layout, replica set, liveness."""

    def __init__(self, cluster: "Cluster",
                 replication: ReplicationConfig) -> None:
        super().__init__(cluster)
        nclients = cluster.nprocs - replication.replicas
        if nclients < 1:
            raise ValueError(
                f"cluster of {cluster.nprocs} cannot host "
                f"{replication.replicas} replica servers and still have "
                "an application processor")
        self.replication = replication
        #: Replica servers are invisible to the programming model.
        self.nclients = nclients
        #: Pids of the dedicated page-replica servers.
        self.replica_pids: Tuple[int, ...] = tuple(
            range(nclients, nclients + replication.replicas))
        #: Replica pids the failure detector declared dead (masked).
        self.dead: set[int] = set()
        #: (node, t_crash, t_detect) per masked crash, in masking order.
        self.masked: List[Tuple[int, float, float]] = []
        self.replicas: List[ScAbdReplica] = []
        self.endpoints: List["ScAbd"] = []

    def live_replicas(self) -> List[int]:
        """Replica pids quorum traffic still goes to (sorted)."""
        return [pid for pid in self.replica_pids if pid not in self.dead]

    # ------------------------------------------------------------------
    def on_node_failure(self, node: int, t_crash: float,
                        t_detect: float) -> bool:
        """Failure-detector listener: mask a minority replica crash.

        Returns True (masked) only for a *replica* crash that leaves at
        most ``f_max`` replicas dead: quorums are majorities, so with
        ``replicas - f_max >= majority`` survivors every quorum still
        forms and the run proceeds untouched.  An application-rank crash,
        or one dead replica too many, returns False and the shared
        detector declares :class:`~repro.sim.recovery.NodeFailure` as
        usual (a clean abort of the run).
        """
        if node not in self.replica_pids:
            return False
        if len(self.dead) + 1 > self.replication.f_max:
            return False
        self.dead.add(node)
        self.masked.append((node, t_crash, t_detect))
        # Reliable-delivery timers aimed at (or owned by) the dead node
        # would retransmit into silence until their retry cap turned the
        # masked crash into a spurious TransportError.
        self.cluster.net.cancel_pending_to(node)
        self.cluster.stats.record("replication", "masked_failure",
                                  messages=1, nbytes=0)
        return True

    # ------------------------------------------------------------------
    def report(self) -> ReplicationReport:
        """Summarize the layer's activity (call after the run)."""
        out = ReplicationReport(replicas=self.replication.replicas,
                                f_max=self.replication.f_max)
        for node, t_crash, t_detect in self.masked:
            out.masked_nodes.append(node)
            out.detection_latency += t_detect - t_crash
        for endpoint in self.endpoints:
            out.quorum_reads += endpoint.core.quorum_reads
            out.quorum_writes += endpoint.core.quorum_writes
        total = self.cluster.stats.total("replication")
        out.messages = total.messages
        out.bytes = total.bytes
        return out


class ScAbd(DsmEndpoint):
    """Per-client SC-ABD endpoint."""

    def __init__(self, proc: "Processor", system: ScAbdSystem) -> None:
        super().__init__(proc, system)
        self.core = ScAbdCore(proc, system)
        self.locks = IvyLocks(proc, self.core)
        self.barriers = IvyBarrier(proc, self.core)


def _replica_main(proc: "Processor"):
    """Main body of a page-replica server: park forever.

    All replica work happens in message handlers; this generator body only
    exists so the processor has a clock to charge service time to.  The
    engine retires it once every application thread has finished.
    """
    while True:
        yield Block("scabd replica idle", None)


def attach_scabd(cluster: "Cluster",
                 replication: Optional[ReplicationConfig] = None
                 ) -> List[ScAbd]:
    """Attach the SC-ABD runtime: clients + replica servers + detector.

    The cluster must be sized ``nclients + replication.replicas``; the
    last ``replicas`` processors become page-replica servers.  Returns
    the client endpoints (also set as ``proc.tmk``, the attribute the
    applications use).
    """
    system = ScAbdSystem(cluster, replication if replication is not None
                         else ReplicationConfig())
    endpoints = system.endpoints = system.attach(ScAbd)
    for pid in system.replica_pids:
        proc = cluster.procs[pid]
        proc.main_override = _replica_main
        system.replicas.append(ScAbdReplica(proc, system))
        cluster.service_pids.add(pid)
    if cluster.recovery is not None:
        cluster.recovery.add_failure_listener(system.on_node_failure)
    return endpoints
