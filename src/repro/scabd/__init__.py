"""SC-ABD: a failure-masking, quorum-replicated DSM mode.

Without it, the failure detector (:mod:`repro.sim.recovery`) ends a run
with ``NodeFailure`` at the first crash.  This package *masks* a crash
instead: every shared page is replicated on a set of dedicated
page-replica servers and all page data moves through ABD-style majority
quorums, so the crash of a minority of replicas leaves the run
unaffected -- same result bytes, only the replication traffic and
quorum-wait time added to the measured cost.  See DESIGN.md section 5g for the protocol and accounting rules.
"""

from repro.scabd.api import (ReplicationReport, ScAbd, ScAbdSystem,
                             attach_scabd)
from repro.scabd.config import ReplicationConfig

__all__ = ["ReplicationConfig", "ReplicationReport", "ScAbd", "ScAbdSystem",
           "attach_scabd"]
