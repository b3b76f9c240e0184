"""Runtime protocol-invariant monitors.

A monitor subscribes to the cluster's event stream
(:mod:`repro.sim.trace`) and consumes the events of one runtime's key
transitions -- interval close and merge for tmk, copy install /
invalidate / grant for IVY and SC-ABD, quorum store for the SC-ABD
replicas, per-arrival delivery for PVM, barrier arrive/depart for the
DSMs -- checking the protocol's correctness rules *as the run executes*.
A broken rule raises :class:`InvariantViolation` naming the protocol, the
rule, and the two events that conflict.

Monitors are pure observers: they never charge virtual time, send
messages, or mutate protocol state, so an invariant-checked run computes
byte-identical results to an unchecked one.

Checked rules:

* **tmk (lazy release consistency)** -- per-creator interval sequence
  numbers advance by exactly one; an interval record's vector clock is
  consistent with its sequence number; every page dirtied in an interval
  appears in its write notices (diff coverage); a merge never moves the
  vector clock backwards.
* **IVY** -- single owner: a write copy is installed only when no other
  processor holds a valid copy; a read copy is never installed while a
  different processor holds the write copy; every believed copy holder
  appears in the manager's copyset (copyset-contains-readers).
* **SC-ABD** -- home-serialized single writer per page (same holder rules
  as IVY); ``writer is not None`` implies ``copyset == {writer}``; flush
  tags per page strictly increase with at most one flush in flight; the
  home's committed tag and every replica's stored tag are monotone.
* **barrier episodes** (all runtimes) -- within one episode of a barrier
  id, every participant arrives exactly once before anyone departs.
* **PVM** -- per-(src, dst) arrival times are non-decreasing (the TCP
  channel's FIFO promise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.sim.trace import Subscriber

__all__ = [
    "InvariantViolation",
    "IvyInvariantMonitor",
    "MONITORS",
    "ProtocolEvent",
    "PvmOrderMonitor",
    "ScAbdInvariantMonitor",
    "TmkInvariantMonitor",
    "attach_invariants",
]


@dataclass(frozen=True)
class ProtocolEvent:
    """One observed protocol event (for violation reports)."""

    time: float
    pid: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.6f} P{self.pid}] {self.kind}: {self.detail}"


class InvariantViolation(AssertionError):
    """A protocol correctness rule was broken.

    Carries the protocol name, the rule, the violating event, and (when
    the rule relates two events) the prior event it conflicts with.
    """

    def __init__(self, protocol: str, rule: str, event: ProtocolEvent,
                 prior: Optional[ProtocolEvent] = None) -> None:
        self.protocol = protocol
        self.rule = rule
        self.event = event
        self.prior = prior
        msg = f"{protocol} invariant violated: {rule}\n  event: {event}"
        if prior is not None:
            msg += f"\n  conflicts with: {prior}"
        super().__init__(msg)


class _BarrierEpisodes:
    """Arrive-exactly-once-then-depart tracking for reused barrier ids."""

    def __init__(self, protocol: str, nprocs: int) -> None:
        self.protocol = protocol
        self.nprocs = nprocs
        self._arrived: Dict[int, Dict[int, ProtocolEvent]] = {}
        self._departed: Dict[int, Set[int]] = {}

    def arrive(self, pid: int, bid: int, time: float) -> None:
        ev = ProtocolEvent(time, pid, "barrier_arrive", f"bid={bid}")
        arrived = self._arrived.setdefault(bid, {})
        if pid in arrived:
            raise InvariantViolation(
                self.protocol,
                "a processor arrives at most once per barrier episode",
                ev, prior=arrived[pid])
        arrived[pid] = ev

    def depart(self, pid: int, bid: int, time: float) -> None:
        ev = ProtocolEvent(time, pid, "barrier_depart", f"bid={bid}")
        arrived = self._arrived.get(bid, {})
        if len(arrived) != self.nprocs:
            raise InvariantViolation(
                self.protocol,
                f"barrier departs only after all {self.nprocs} participants "
                f"arrived (saw {sorted(arrived)})", ev)
        if pid not in arrived:
            raise InvariantViolation(
                self.protocol, "a processor departs a barrier it arrived at",
                ev)
        departed = self._departed.setdefault(bid, set())
        if pid in departed:
            raise InvariantViolation(
                self.protocol,
                "a processor departs at most once per barrier episode", ev)
        departed.add(pid)
        if len(departed) == self.nprocs:
            # Episode complete; the id may be reused by the next iteration.
            del self._arrived[bid]
            del self._departed[bid]


class _Monitor(Subscriber):
    """Base: an event-stream subscriber that also tracks barrier episodes."""

    protocol = "dsm"

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.barriers = _BarrierEpisodes(self.protocol, nprocs)
        #: Count of events observed (diagnostics / test sanity).
        self.events_checked = 0

    def on_barrier_arrive(self, pid: int, bid: int, time: float) -> None:
        self.events_checked += 1
        self.barriers.arrive(pid, bid, time)

    def on_barrier_depart(self, pid: int, bid: int, time: float) -> None:
        self.events_checked += 1
        self.barriers.depart(pid, bid, time)

    def on_barrier_release(self, pid: int, bid: int, role: str,
                           time: float) -> None:
        """A departure from a TreadMarks (LRC) barrier."""
        self.on_barrier_depart(pid, bid, time)


class TmkInvariantMonitor(_Monitor):
    """Vector-clock / interval monotonicity and write-notice coverage."""

    protocol = "tmk-lrc"

    def __init__(self, nprocs: int) -> None:
        super().__init__(nprocs)
        #: creator -> event of its last closed interval.
        self._last_close: Dict[int, ProtocolEvent] = {}
        #: creator -> seq of its last closed interval.
        self._last_seq: Dict[int, int] = {}

    def on_interval_close(self, pid: int, record, dirty: Sequence[int],
                          time: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(time, pid, "interval_close",
                           f"seq={record.seq} vc={record.vc} "
                           f"pages={sorted(record.pages)}")
        last = self._last_seq.get(pid)
        expected = 0 if last is None else last + 1
        if record.seq != expected:
            raise InvariantViolation(
                self.protocol,
                f"interval sequence numbers advance by one (expected "
                f"seq={expected})", ev, prior=self._last_close.get(pid))
        if record.vc[pid] != record.seq:
            raise InvariantViolation(
                self.protocol,
                "an interval's vector clock carries its own sequence number "
                f"(vc[{pid}]={record.vc[pid]} != seq={record.seq})", ev)
        if tuple(record.pages) != tuple(dirty):
            raise InvariantViolation(
                self.protocol,
                "write-notice coverage: every page dirtied in an interval "
                "must appear in its interval record", ev,
                prior=ProtocolEvent(time, pid, "dirty_pages",
                                    f"pages={sorted(dirty)}"))
        self._last_seq[pid] = record.seq
        self._last_close[pid] = ev

    def on_merge(self, pid: int, records, their_vc: Tuple[int, ...],
                 vc_before: Tuple[int, ...], vc_after: Tuple[int, ...],
                 time: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(time, pid, "merge",
                           f"their_vc={tuple(their_vc)} "
                           f"vc={vc_before}->{vc_after}")
        for creator, (before, after) in enumerate(zip(vc_before, vc_after)):
            if after < before:
                raise InvariantViolation(
                    self.protocol,
                    f"a merge never moves the vector clock backwards "
                    f"(entry {creator}: {before} -> {after})", ev)
        for creator, (ours, theirs, after) in enumerate(
                zip(vc_before, their_vc, vc_after)):
            if after != max(ours, theirs):
                raise InvariantViolation(
                    self.protocol,
                    "a merge takes the component-wise vector-clock maximum "
                    f"(entry {creator}: max({ours}, {theirs}) != {after})",
                    ev)
        for record in records:
            if record.vc[record.creator] != record.seq:
                raise InvariantViolation(
                    self.protocol,
                    "a merged interval record's vector clock carries its own "
                    f"sequence number (creator={record.creator} "
                    f"seq={record.seq} vc={record.vc})", ev)


class _HolderTracking(_Monitor):
    """Shared single-writer / copy-holder tracking for IVY and SC-ABD."""

    def __init__(self, nprocs: int) -> None:
        super().__init__(nprocs)
        #: page -> {pid: "read" | "write"}; lazily initialized to the
        #: protocol's initial state (everyone holds a zero-filled copy).
        self._holders: Dict[int, Dict[int, str]] = {}
        self._holder_events: Dict[Tuple[int, int], ProtocolEvent] = {}

    def _page_holders(self, page: int) -> Dict[int, str]:
        holders = self._holders.get(page)
        if holders is None:
            holders = {pid: "read" for pid in range(self.nprocs)}
            self._holders[page] = holders
        return holders

    def on_install(self, pid: int, page: int, write: bool,
                   time: float) -> None:
        self.events_checked += 1
        mode = "write" if write else "read"
        ev = ProtocolEvent(time, pid, "install", f"page={page} mode={mode}")
        holders = self._page_holders(page)
        if write:
            others = [p for p in holders if p != pid]
            if others:
                raise InvariantViolation(
                    self.protocol,
                    "single owner: a write copy is installed only after "
                    f"every other copy is invalidated (P{others[0]} still "
                    "holds one)", ev,
                    prior=self._holder_events.get((page, others[0])))
        else:
            writers = [p for p, m in holders.items()
                       if m == "write" and p != pid]
            if writers:
                raise InvariantViolation(
                    self.protocol,
                    "single owner: a read copy is never installed while "
                    f"another processor (P{writers[0]}) holds the write copy",
                    ev, prior=self._holder_events.get((page, writers[0])))
        holders[pid] = mode
        self._holder_events[(page, pid)] = ev

    def on_invalidate(self, pid: int, page: int, time: float) -> None:
        self.events_checked += 1
        # Double invalidation is legal (e.g. an IVY owner invalidated by
        # the fan-out and again when serving the page).
        self._page_holders(page).pop(pid, None)
        self._holder_events[(page, pid)] = ProtocolEvent(
            time, pid, "invalidate", f"page={page}")

    def on_demote(self, pid: int, page: int, time: float) -> None:
        self.events_checked += 1
        self._page_holders(page)[pid] = "read"
        self._holder_events[(page, pid)] = ProtocolEvent(
            time, pid, "demote", f"page={page}")

    def _check_copyset(self, ev: ProtocolEvent, page: int,
                       copyset: FrozenSet[int]) -> None:
        holders = self._page_holders(page)
        stray = sorted(set(holders) - set(copyset))
        if stray:
            raise InvariantViolation(
                self.protocol,
                "copyset-contains-readers: every valid copy holder appears "
                f"in the manager's copyset (P{stray[0]} holds a copy but "
                f"copyset={sorted(copyset)})", ev,
                prior=self._holder_events.get((page, stray[0])))


class IvyInvariantMonitor(_HolderTracking):
    """IVY single-owner and copyset rules."""

    protocol = "ivy"

    def on_grant(self, manager: int, page: int, kind: str, requester: int,
                 owner: int, copyset: FrozenSet[int], time: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(time, manager, "grant",
                           f"page={page} kind={kind} requester=P{requester} "
                           f"owner=P{owner} copyset={sorted(copyset)}")
        if kind == "write" and set(copyset) != {requester}:
            raise InvariantViolation(
                self.protocol,
                "a write grant leaves the requester as the only copyset "
                "member", ev)
        self._check_copyset(ev, page, copyset)


class ScAbdInvariantMonitor(_HolderTracking):
    """SC-ABD quorum-tag monotonicity and home-serialization rules."""

    protocol = "sc-abd"

    def __init__(self, nclients: int) -> None:
        super().__init__(nclients)
        #: page -> event of the in-flight flush (at most one per page).
        self._inflight: Dict[int, ProtocolEvent] = {}
        #: page -> highest flush tag started.
        self._flush_tag: Dict[int, int] = {}
        #: page -> last committed tag observed at the home.
        self._home_tag: Dict[int, int] = {}
        #: (replica pid, page) -> last stored tag.
        self._replica_tag: Dict[Tuple[int, int], int] = {}

    def on_flush_start(self, pid: int, page: int, tag: int, demote: bool,
                       time: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(time, pid, "flush_start",
                           f"page={page} tag={tag} demote={demote}")
        prior = self._inflight.get(page)
        if prior is not None:
            raise InvariantViolation(
                self.protocol, "at most one flush per page is in flight",
                ev, prior=prior)
        last = self._flush_tag.get(page, 0)
        if tag <= last:
            raise InvariantViolation(
                self.protocol,
                f"flush tags per page strictly increase (last={last})", ev)
        self._inflight[page] = ev
        self._flush_tag[page] = tag
        # The flusher's local copy was demoted/dropped before any message
        # left; mirror that in the holder map.
        if demote:
            self.on_demote(pid, page, time)
        else:
            self.on_invalidate(pid, page, time)

    def on_flush_complete(self, pid: int, page: int, tag: int,
                          time: float) -> None:
        self.events_checked += 1
        self._inflight.pop(page, None)

    def on_home_tag(self, home: int, page: int, old_tag: int, new_tag: int,
                    time: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(time, home, "home_tag",
                           f"page={page} {old_tag}->{new_tag}")
        seen = self._home_tag.get(page, 0)
        if new_tag < seen:
            raise InvariantViolation(
                self.protocol,
                f"the home's committed tag is monotone (had {seen})", ev)
        self._home_tag[page] = new_tag

    def on_home_grant(self, home: int, page: int, kind: str, requester: int,
                      writer: Optional[int], copyset: FrozenSet[int],
                      tag: int, time: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(time, home, "grant",
                           f"page={page} kind={kind} requester=P{requester} "
                           f"writer={writer} copyset={sorted(copyset)} "
                           f"tag={tag}")
        if writer is not None and set(copyset) != {writer}:
            raise InvariantViolation(
                self.protocol,
                "home serialization: writer is not None implies "
                "copyset == {writer}", ev)
        if kind == "write":
            holders = self._page_holders(page)
            others = [p for p in holders if p != requester]
            if others:
                raise InvariantViolation(
                    self.protocol,
                    "single writer per page: a write grant is issued only "
                    f"after every other copy is gone (P{others[0]} still "
                    "holds one)", ev,
                    prior=self._holder_events.get((page, others[0])))
        self._check_copyset(ev, page, copyset)

    def on_replica_store(self, replica: int, page: int, prev_tag: int,
                         msg_tag: int, stored_tag: int, time: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(time, replica, "replica_store",
                           f"page={page} msg_tag={msg_tag} "
                           f"stored={prev_tag}->{stored_tag}")
        if stored_tag < prev_tag:
            raise InvariantViolation(
                self.protocol,
                "quorum-tag monotonicity: a replica's stored tag never "
                "decreases", ev)
        last = self._replica_tag.get((replica, page), 0)
        if stored_tag < last:
            raise InvariantViolation(
                self.protocol,
                "quorum-tag monotonicity: a replica's stored tag never "
                f"decreases (had {last})", ev)
        self._replica_tag[(replica, page)] = stored_tag


class PvmOrderMonitor(_Monitor):
    """Per-(src, dst) FIFO arrival order (the TCP channel's promise)."""

    protocol = "pvm"

    def __init__(self, nprocs: int) -> None:
        super().__init__(nprocs)
        self._last: Dict[Tuple[int, int], ProtocolEvent] = {}

    def on_message(self, src: int, dst: int, tag: int, arrival: float) -> None:
        self.events_checked += 1
        ev = ProtocolEvent(arrival, dst, "arrival",
                           f"src=P{src} tag={tag}")
        prior = self._last.get((src, dst))
        if prior is not None and arrival < prior.time:
            raise InvariantViolation(
                self.protocol,
                "per-pair FIFO: arrival times from one sender never go "
                "backwards", ev, prior=prior)
        self._last[(src, dst)] = ev


#: The monitor of each system; constructed with the number of
#: application processors.
MONITORS: Dict[str, type] = {
    "tmk": TmkInvariantMonitor,
    "ivy": IvyInvariantMonitor,
    "scabd": ScAbdInvariantMonitor,
    "pvm": PvmOrderMonitor,
}


def attach_invariants(cluster, system: str, nclients: int) -> _Monitor:
    """Subscribe ``system``'s monitor (one of :data:`MONITORS`) to a
    cluster's event stream; ``nclients`` is the number of application
    processors.  Returns the monitor."""
    monitor: _Monitor = MONITORS[system](nclients)
    cluster.subscribe(monitor)
    return monitor
