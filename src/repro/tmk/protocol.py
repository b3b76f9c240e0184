"""TreadMarks wire-protocol message payloads and size accounting.

Payload objects travel through the simulated UDP channel; their *accounted*
sizes are computed from the cost model's protocol constants so Table 2's
byte counts are meaningful.  Message categories (the stats buckets):

* ``lock_request`` / ``lock_forward`` / ``lock_grant``
* ``barrier_arrival`` / ``barrier_departure``
* ``diff_request`` / ``diff_response``

Under an active fault plan messages travel over the reliable-UDP sublayer,
which suppresses duplicates by sequence number; the request payloads also
expose a protocol-level ``dedup_key`` so the handlers themselves stay
idempotent (a retransmitted lock request or barrier arrival that slips
through is ignored rather than corrupting manager state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.tmk.diffs import Diff
from repro.tmk.intervals import IntervalId, IntervalRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Mailbox
    from repro.sim.costmodel import CostModel

__all__ = [
    "BarrierArrival",
    "BarrierDeparture",
    "DiffRequest",
    "DiffResponse",
    "LockGrant",
    "LockRequest",
    "TreeArrival",
    "TreeDeparture",
    "notice_bytes",
]

CAT_LOCK_REQUEST = "lock_request"
CAT_LOCK_FORWARD = "lock_forward"
CAT_LOCK_GRANT = "lock_grant"
CAT_BARRIER_ARRIVAL = "barrier_arrival"
CAT_BARRIER_DEPARTURE = "barrier_departure"
CAT_DIFF_REQUEST = "diff_request"
CAT_DIFF_RESPONSE = "diff_response"
#: Eager-RC mode only: write notices broadcast at every release.
CAT_ERC_NOTICE = "erc_notice"
#: Tree barrier (TmkConfig.barrier_kind="tree"): combining-tree episodes.
CAT_TREE_ARRIVAL = "tree_arrival"
CAT_TREE_DEPARTURE = "tree_departure"


def notice_bytes(records: List[IntervalRecord], cost: "CostModel",
                 nprocs: int) -> int:
    """Accounted size of a batch of interval records (write notices)."""
    return (len(records) * cost.vector_time_bytes * nprocs
            + cost.write_notice_bytes * sum(len(r.pages) for r in records))


@dataclass
class LockRequest:
    """Acquirer -> manager (and forwarded manager -> last requester)."""

    lock: int
    requester: int
    #: Acquirer's vector time, so the granter can select write notices.
    vc: Tuple[int, ...]
    reply: "Mailbox"

    def nbytes(self, cost: "CostModel", nprocs: int) -> int:
        return cost.sync_message_bytes + cost.vector_time_bytes * nprocs

    def dedup_key(self) -> Tuple[int, int]:
        """Identity used by handlers to suppress a re-delivered request
        (a requester has at most one acquire of a lock outstanding)."""
        return (self.lock, self.requester)


@dataclass
class LockGrant:
    """Last releaser -> acquirer, carrying the invalidate set."""

    lock: int
    granter: int
    vc: Tuple[int, ...]
    records: List[IntervalRecord]
    #: Piggybacked data (TmkConfig.piggyback_budget > 0): diffs for pages
    #: this grant would otherwise invalidate, keyed (interval id, page).
    diffs: Dict[Tuple[IntervalId, int], Diff] = None  # type: ignore

    def nbytes(self, cost: "CostModel", nprocs: int) -> int:
        total = (cost.sync_message_bytes + cost.vector_time_bytes * nprocs
                 + notice_bytes(self.records, cost, nprocs))
        if self.diffs:
            total += sum(cost.diff_envelope_bytes + diff.wire_bytes
                         for diff in self.diffs.values())
        return total


@dataclass
class BarrierArrival:
    """Client -> barrier manager: vector time + new write notices."""

    barrier: int
    pid: int
    vc: Tuple[int, ...]
    records: List[IntervalRecord]

    def nbytes(self, cost: "CostModel", nprocs: int) -> int:
        return (cost.sync_message_bytes + cost.vector_time_bytes * nprocs
                + notice_bytes(self.records, cost, nprocs))

    def dedup_key(self) -> Tuple[int, int]:
        """Identity for duplicate suppression at the barrier manager
        (each processor arrives at a given barrier episode exactly once)."""
        return (self.barrier, self.pid)


@dataclass
class BarrierDeparture:
    """Barrier manager -> client: merged vector time + missing notices."""

    barrier: int
    vc: Tuple[int, ...]
    records: List[IntervalRecord]

    def nbytes(self, cost: "CostModel", nprocs: int) -> int:
        return (cost.sync_message_bytes + cost.vector_time_bytes * nprocs
                + notice_bytes(self.records, cost, nprocs))


@dataclass
class ErcNotice:
    """Eager-RC: releaser -> everyone, one freshly closed interval."""

    record: IntervalRecord
    #: Sender's own closed-interval count (receiver bumps only the
    #: sender's vector-time entry; third-party knowledge still propagates
    #: through synchronization, keeping the vc invariant intact).
    creator_count: int

    def nbytes(self, cost: "CostModel", nprocs: int) -> int:
        return (cost.sync_message_bytes
                + notice_bytes([self.record], cost, nprocs))


@dataclass
class TreeArrival:
    """Tree barrier: child -> parent, one subtree's merged knowledge.

    ``min_vc`` is the element-wise minimum vector time over every member
    of the sender's subtree: the parent's departure must carry every
    record some member might lack, so departures select
    ``records_since(min_vc)`` -- a safe superset (merging a record twice
    is idempotent).
    """

    barrier: int
    #: Per-(node, bid) episode counter; all processors execute the same
    #: barrier sequence, so counters agree and key one episode uniquely.
    episode: int
    pid: int
    vc: Tuple[int, ...]
    min_vc: Tuple[int, ...]
    records: List[IntervalRecord]

    def nbytes(self, cost: "CostModel", nprocs: int) -> int:
        return (cost.sync_message_bytes + 2 * cost.vector_time_bytes * nprocs
                + notice_bytes(self.records, cost, nprocs))

    def dedup_key(self) -> Tuple[int, int, int]:
        return (self.barrier, self.episode, self.pid)


@dataclass
class TreeDeparture:
    """Tree barrier: parent -> child, global knowledge flowing down."""

    barrier: int
    episode: int
    vc: Tuple[int, ...]
    records: List[IntervalRecord]

    def nbytes(self, cost: "CostModel", nprocs: int) -> int:
        return (cost.sync_message_bytes + cost.vector_time_bytes * nprocs
                + notice_bytes(self.records, cost, nprocs))


@dataclass
class DiffRequest:
    """Faulting processor -> a dominant writer of the page."""

    page: int
    wanted: List[IntervalId]
    requester: int
    reply: "Mailbox"

    def nbytes(self, cost: "CostModel") -> int:
        return cost.diff_request_bytes + 8 * len(self.wanted)


@dataclass
class DiffResponse:
    """Writer -> faulting processor: the requested (and accumulated) diffs."""

    page: int
    #: (interval id, interval vc, diff) in unspecified order; the receiver
    #: sorts by vector time before applying.
    entries: List[Tuple[IntervalId, Tuple[int, ...], Diff]]
    #: When the server coalesced several requested diffs into one entry
    #: (the TmkConfig.coalesce_diffs ablation), the full list of interval
    #: ids that entry satisfies.
    covers: List[IntervalId] = None  # type: ignore[assignment]

    def nbytes(self, cost: "CostModel") -> int:
        return sum(cost.diff_envelope_bytes + diff.wire_bytes
                   for _, _, diff in self.entries)
