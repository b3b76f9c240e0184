"""The protocol event stream, and the protocol trace that renders it.

Every protocol fact a checker consumes -- a shared access, an interval
close, a lock grant, a barrier departure, a dropped datagram -- is one
event of :data:`VOCABULARY`: one name, one argument list, virtual time
last.  A runtime emits each event exactly once, through the cluster's
stream, which every processor mirrors as ``proc.events``::

    events = proc.events
    if events is not None:
        events.lock_release(pid, lock, proc.now)

``proc.events`` is ``None`` until something subscribes, so a run that
observes nothing pays one pointer test per emit site and formats no
string.  The hottest site, ``SharedArray``'s ``access``, tests
``DsmCore.emit_access`` instead: the stream's handler, or ``None`` while
no subscriber consumes accesses.  A :class:`Subscriber` defines
``on_<event>`` for each event it consumes, taking the event's
arguments, and joins through
:meth:`repro.sim.cluster.Cluster.subscribe`.  The subscribers are the
race sanitizer and the false-sharing tracker (``repro.analysis``), the
invariant monitors (``repro.verify.invariants``) and :class:`Trace`.
``protolint`` PRT009 checks that every event has an emitter and every
``on_*`` method of a subscriber names an event and takes its arguments.

Events that only an active fault plan produces (``drop``,
``retransmit``, ``partition_hold``, ``dup_suppress``,
``link_overcommit``) carry their detail already rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Events", "Subscriber", "Trace", "TraceEvent", "VOCABULARY"]

#: Every protocol event and its arguments, virtual time last: emitters
#: pass exactly these, and a subscriber's ``on_<name>`` takes them in
#: this order (protolint PRT009 checks the count).  DESIGN section 5n
#: says who emits and who consumes each.
VOCABULARY: Dict[str, Tuple[str, ...]] = {
    # -- shared memory (SharedArray, every page-based runtime) ---------
    "access": ("pid", "runs", "write", "racy", "time"),
    # -- TreadMarks (lazy release consistency) --------------------------
    "interval_close": ("pid", "record", "dirty", "time"),
    "merge": ("pid", "records", "their_vc", "vc_before", "vc_after", "time"),
    "diff_fetch": ("pid", "page", "needed", "time"),
    "diff_applied": ("pid", "page", "diff", "time"),
    "piggyback_apply": ("pid", "page", "time"),
    "diff_served": ("pid", "page", "requester", "ndiffs", "time"),
    "lock_acquired": ("pid", "lock", "grant", "time"),
    "lock_release": ("pid", "lock", "time"),
    "lock_grant": ("pid", "lock", "requester", "grant", "time"),
    "lock_queued": ("pid", "lock", "waiter", "time"),
    "barrier_release": ("pid", "bid", "role", "time"),
    # -- barriers (every DSM runtime) -----------------------------------
    "barrier_arrive": ("pid", "bid", "time"),
    "barrier_depart": ("pid", "bid", "time"),
    # -- the page directory (IVY, SC-ABD) -------------------------------
    "page_fault": ("pid", "page", "write", "protocol", "time"),
    "install": ("pid", "page", "write", "time"),
    "invalidate": ("pid", "page", "time"),
    "demote": ("pid", "page", "time"),
    "grant": ("manager", "page", "kind", "requester", "owner", "copyset",
              "time"),
    # -- SC-ABD quorum replication --------------------------------------
    "flush_start": ("pid", "page", "tag", "demote", "time"),
    "flush_complete": ("pid", "page", "tag", "time"),
    "home_tag": ("home", "page", "old_tag", "new_tag", "time"),
    "home_grant": ("home", "page", "kind", "requester", "writer", "copyset",
                   "tag", "time"),
    "replica_store": ("replica", "page", "prev_tag", "msg_tag",
                      "stored_tag", "time"),
    # -- PVM and the simulator (cluster, network, failure detector) -----
    "message": ("src", "dst", "tag", "time"),
    "measurement_start": ("time",),
    "drop": ("pid", "detail", "time"),
    "retransmit": ("pid", "detail", "time"),
    "partition_hold": ("pid", "detail", "time"),
    "dup_suppress": ("pid", "detail", "time"),
    "link_overcommit": ("detail", "time"),
    "node_crash": ("pid", "time"),
    "node_masked": ("pid", "crash_time", "time"),
    "node_failure": ("pid", "crash_time", "time"),
}


class Subscriber:
    """Base of the stream's subscribers: a subclass defines
    ``on_<event>`` for the :data:`VOCABULARY` events it consumes and no
    other ``on_*`` method."""


def _ignore(*args: Any) -> None:
    """An event no subscriber consumes."""


def _fan_out(handlers: List[Callable[..., None]]) -> Callable[..., None]:
    def emit(*args: Any) -> None:
        for handler in handlers:
            handler(*args)
    return emit


class Events:
    """One cluster's stream: an attribute per :data:`VOCABULARY` event
    that calls the subscribers' ``on_<event>`` in subscription order (a
    lone subscriber's method directly)."""

    def __init__(self) -> None:
        self._handlers: Dict[str, List[Callable[..., None]]] = {
            name: [] for name in VOCABULARY}
        for name in VOCABULARY:
            setattr(self, name, _ignore)

    def subscribe(self, subscriber: Subscriber) -> None:
        for name, handlers in self._handlers.items():
            handler = getattr(subscriber, "on_" + name, None)
            if handler is not None:
                handlers.append(handler)
                setattr(self, name, handlers[0] if len(handlers) == 1
                        else _fan_out(handlers))

    def consumer(self, name: str) -> Optional[Callable[..., None]]:
        """The handler of event ``name``, or None while no subscriber
        consumes it."""
        handler = getattr(self, name)
        return None if handler is _ignore else handler


@dataclass(frozen=True)
class TraceEvent:
    time: float
    pid: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time * 1e3:10.3f} ms] P{self.pid} {self.kind:<14} {self.detail}"


@dataclass
class Trace(Subscriber):
    """The protocol trace: ``(virtual time, processor, kind, detail)``
    lines rendered from the stream, in emit order (``pid`` is -1 for an
    event with no owning processor).  Handed to ``ClusterConfig`` (or
    ``run_parallel``/``api.simulate``) it is subscribed and records every
    event below; the ``protocol_trace`` example and the protocol-level
    tests read it."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, time: float, pid: int, kind: str, detail: str = "") -> None:
        self.events.append(TraceEvent(time, pid, kind, detail))

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def format(self, limit: int | None = None) -> str:
        events: Iterable[TraceEvent] = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in events)

    # -- the events it renders --------------------------------------------
    def on_interval_close(self, pid, record, dirty, time) -> None:
        self.record(time, pid, "interval_close",
                    f"seq={record.seq} pages={list(dirty)}")

    def on_diff_fetch(self, pid, page, needed, time) -> None:
        self.record(time, pid, "page_fault",
                    f"page={page} intervals={sorted(needed)}")

    def on_piggyback_apply(self, pid, page, time) -> None:
        self.record(time, pid, "piggyback_apply", f"page={page}")

    def on_diff_served(self, pid, page, requester, ndiffs, time) -> None:
        self.record(time, pid, "diff_served",
                    f"page={page} to=P{requester} ndiffs={ndiffs}")

    def on_lock_acquired(self, pid, lock, grant, time) -> None:
        if grant is None:
            detail = f"lock={lock} local"
        else:
            notices = sum(len(r.pages) for r in grant.records)
            detail = f"lock={lock} from=P{grant.granter} notices={notices}"
        self.record(time, pid, "lock_acquire", detail)

    def on_lock_release(self, pid, lock, time) -> None:
        self.record(time, pid, "lock_release", f"lock={lock}")

    def on_lock_grant(self, pid, lock, requester, grant, time) -> None:
        self.record(time, pid, "lock_grant", f"lock={lock} to=P{requester}")

    def on_lock_queued(self, pid, lock, waiter, time) -> None:
        self.record(time, pid, "lock_queued", f"lock={lock} waiter=P{waiter}")

    def on_barrier_release(self, pid, bid, role, time) -> None:
        if role == "manager":
            self.record(time, pid, "barrier_release", f"bid={bid}")
        else:
            self.record(time, pid, "barrier_depart",
                        f"bid={bid} tree" if role == "tree" else f"bid={bid}")

    def on_page_fault(self, pid, page, write, protocol, time) -> None:
        self.record(time, pid, f"{protocol}_fault",
                    f"page={page} {'write' if write else 'read'}")

    def on_drop(self, pid, detail, time) -> None:
        self.record(time, pid, "drop", detail)

    def on_retransmit(self, pid, detail, time) -> None:
        self.record(time, pid, "retransmit", detail)

    def on_partition_hold(self, pid, detail, time) -> None:
        self.record(time, pid, "partition_hold", detail)

    def on_dup_suppress(self, pid, detail, time) -> None:
        self.record(time, pid, "dup_suppress", detail)

    def on_link_overcommit(self, detail, time) -> None:
        self.record(time, -1, "link_overcommit", detail)

    def on_node_crash(self, pid, time) -> None:
        self.record(time, pid, "node_crash", f"t={time:.6f}")

    def on_node_masked(self, pid, crash_time, time) -> None:
        self.record(time, pid, "node_masked", f"crashed_at={crash_time:.6f}")

    def on_node_failure(self, pid, crash_time, time) -> None:
        self.record(time, pid, "node_failure", f"crashed_at={crash_time:.6f}")
