"""Simulated network-of-workstations substrate.

This subpackage provides the execution environment that stands in for the
paper's physical testbed (8 HP-735 workstations on a 100 Mbit/s FDDI ring):

* :mod:`repro.sim.engine` -- deterministic virtual-time scheduler running one
  simulated processor (a generator continuation) at a time.
* :mod:`repro.sim.network` -- shared-medium FDDI link model with UDP and TCP
  endpoints, fragmentation and contention.
* :mod:`repro.sim.cluster` -- the ``Cluster``/``Processor`` harness on which
  the TreadMarks and PVM runtimes are layered.
* :mod:`repro.sim.costmodel` -- every timing constant in one place.
* :mod:`repro.sim.faults` -- deterministic fault injection (drop /
  duplicate / reorder / delay, slow nodes, transient partitions,
  permanent crashes) plus the user-level reliability protocol parameters.
* :mod:`repro.sim.recovery` -- crash detection: the lease-based failure
  detector that ends a run with ``NodeFailure`` or lets SC-ABD mask it.
* :mod:`repro.sim.stats` -- message/byte accounting mirroring the paper's
  Table 2 methodology.
"""

from repro.sim.costmodel import CostModel
from repro.sim.engine import (Engine, EngineDeadlock, SimAborted, SimTask,
                              ThreadKilled)
from repro.sim.cluster import Cluster, ClusterConfig, Processor
from repro.sim.faults import FaultDecision, FaultPlan, TransportError
from repro.sim.network import Network, TcpChannel, UdpChannel
from repro.sim.recovery import NodeFailure, RecoveryManager
from repro.sim.stats import MessageStats, StatKey

__all__ = [
    "CostModel",
    "Cluster",
    "ClusterConfig",
    "Engine",
    "EngineDeadlock",
    "FaultDecision",
    "FaultPlan",
    "MessageStats",
    "Network",
    "NodeFailure",
    "Processor",
    "RecoveryManager",
    "SimAborted",
    "SimTask",
    "StatKey",
    "TcpChannel",
    "ThreadKilled",
    "TransportError",
    "UdpChannel",
]
