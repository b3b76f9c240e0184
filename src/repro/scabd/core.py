"""The SC-ABD protocol core: home-serialized pages, quorum-replicated data.

One :class:`ScAbdCore` per *client* (application) processor.  The design
follows Ekström & Haridi's SC-ABD: sequential consistency comes from
serializing each page's operations, fault tolerance from keeping the page
*data* in ABD-style majority quorums over a dedicated replica set.

* Every page has a fixed **home** -- the page's manager in
  :class:`~repro.ivy.core.DirectoryCore`, which supplies the page states,
  the fault path and the one-request-at-a-time queue (single writer, read
  copyset, invalidation before a write grant).  The home holds the
  page's current version **tag** -- a per-page sequence number
  incremented by every writer flush -- but never the data.
* The page **data** lives only on the replica servers
  (:class:`ScAbdReplica`).  A writer losing its write permission flushes
  the full page to all live replicas under ``tag + 1`` and reports
  completion once a *majority* acknowledged (quorum write); a client
  whose copy is invalid reads from all live replicas and installs the
  highest tag among the first *majority* of replies (quorum read).

Because the home serializes writers, at most one flush per page is in
flight and ``(page, tag)`` determines the bytes uniquely; any read
majority intersects the last write majority, so the max-tag reply is
exactly the latest committed version and ABD's write-back phase is
unnecessary (see DESIGN.md section 5g).  The crash of a minority of
replicas is therefore *masked*: quorums still form, and the shared
failure detector (:class:`~repro.sim.recovery.RecoveryManager`) merely
marks the dead replica so future quorum traffic skips it.  Any other
crash -- an application rank, or one replica past ``f_max`` -- is not
masked, and the detector ends the run with
:class:`~repro.sim.recovery.NodeFailure`.

Accounting: home/control traffic is charged to the DSM's own wire totals
(the run's ``tmk`` column), replica traffic to the ``"replication"``
pseudo-system, and the faulting thread's quorum-read wait to the
``replication`` profiler bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

import numpy as np

from repro.ivy.core import (CTL_BYTES, INVALID, READ, REQ_BYTES, WRITE,
                            DirectoryCore, DirectoryEntry)
from repro.obs.core import B_REPLICATION
from repro.sim.network import Delivery, UdpChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.scabd.api import ScAbdSystem

__all__ = ["ScAbdCore", "ScAbdReplica"]

# Control plane (home serialization; accounted with the DSM's traffic).
CAT_REQUEST = "scabd_request"        # faulting client -> home
CAT_GRANT = "scabd_grant"            # home -> faulting client
CAT_INVALIDATE = "scabd_invalidate"  # home -> copyset member
CAT_INV_ACK = "scabd_inv_ack"        # member -> home (after any flush)
CAT_DONE = "scabd_done"              # faulting client -> home

# Data plane (quorum traffic; accounted under the "replication" system).
CAT_QREAD = "quorum_read"            # client -> replica
CAT_QREAD_REPLY = "quorum_read_reply"  # replica -> client
CAT_QWRITE = "quorum_write"          # writer -> replica
CAT_QWRITE_ACK = "quorum_write_ack"  # replica -> writer

REPLICATION_SYSTEM = "replication"


@dataclass
class _HomePage(DirectoryEntry):
    #: The single writer, or None.  Invariant: writer is not None implies
    #: ``copyset == {writer}``.
    writer: Optional[int] = None
    #: Latest committed version on the replica quorum (0 = initial zeros,
    #: never flushed).
    tag: int = 0


@dataclass
class _FlushState:
    """Writer-side state for one in-flight quorum write (page flush)."""

    tag: int
    need: int
    count: int = 0


class _Quorum:
    """Requester-side collector for one in-flight quorum read."""

    __slots__ = ("box", "need", "count", "tag", "data", "done")

    def __init__(self, box, need: int) -> None:
        self.box = box
        self.need = need
        self.count = 0
        self.tag = -1
        self.data: Optional[bytes] = None
        self.done = False


class ScAbdCore(DirectoryCore):
    """SC-ABD: the page's data lives in the replica quorum; the home
    orders the tagged flushes and quorum reads that move it."""

    #: Control traffic rides on the DSM's own wire totals (the base's
    #: ``udp``); quorum traffic is kept apart under ``udp_repl``.
    cat_request, cat_grant, cat_done = CAT_REQUEST, CAT_GRANT, CAT_DONE
    name, label, manager_role = "SC-ABD", "scabd", "home"

    def __init__(self, proc: "Processor", system: "ScAbdSystem") -> None:
        super().__init__(proc, system)
        self.udp_repl = UdpChannel(proc.cluster.net,
                                   system=REPLICATION_SYSTEM)
        #: In-flight quorum writes from this client, by page.
        self._flush: Dict[int, _FlushState] = {}
        self.quorum_reads = 0
        self.quorum_writes = 0

        proc.register(CAT_INVALIDATE, self._on_invalidate)
        proc.register(CAT_INV_ACK, self._on_inv_ack)
        proc.register(CAT_QREAD_REPLY, self._on_qread_reply)
        proc.register(CAT_QWRITE_ACK, self._on_qwrite_ack)

    def _new_entry(self, copyset: Set[int]) -> _HomePage:
        # The replica quorum holds tag 0 (implicit zeros).
        return _HomePage(copyset)

    # ------------------------------------------------------------------
    # Faulting side: quorum reads
    # ------------------------------------------------------------------
    def _install(self, page: int, tag: int):
        if self.state[page] != INVALID:
            return
        # No valid local copy: fetch the committed version from a
        # majority of the replica set.
        data = yield from self._quorum_read(page)
        view = self.pt.page_view(page)
        if data is not None:
            view[:] = np.frombuffer(data, dtype=np.uint8)
        else:
            view[:] = 0  # tag 0: the page was never flushed
        self.proc.compute(self.cost.copy_cost(self.cost.page_size))

    def _quorum_read(self, page: int):
        """Read the page from a majority of live replicas (blocks);
        returns the highest-tagged image, None for the initial zeros."""
        proc = self.proc
        live = self.system.live_replicas()
        need = self.system.replication.majority
        # Masking keeps dead <= f_max, so a majority is always alive.
        assert len(live) >= need, "quorum read with a dead majority"
        self.quorum_reads += 1
        collector = _Quorum(proc.mailbox(), need)
        collector.box.waiting_on = (
            f"majority of replicas {sorted(live)}")
        obs = proc.obs
        if obs is not None:
            obs.begin(proc.now, self.pid, "quorum_read", B_REPLICATION,
                      f"page={page} need={need}/{len(live)}")
        t = proc.now
        for replica in live:
            t = self.udp_repl.send(self.pid, replica, CAT_QREAD,
                                   (page, self.pid, collector),
                                   REQ_BYTES, t_ready=t)
        proc.set_now(t)
        data = yield from collector.box.wait(
            f"scabd quorum read page {page}")
        if obs is not None:
            obs.end(proc.now, self.pid)
        return data

    def _on_qread_reply(self, delivery: Delivery) -> None:
        collector, tag, data = delivery.payload
        at = self._interrupt(delivery)
        if collector.done:
            return  # a straggler beyond the quorum
        collector.count += 1
        if tag > collector.tag:
            collector.tag = tag
            collector.data = data
        if collector.count >= collector.need:
            collector.done = True
            collector.box.put(collector.data, at)

    # ------------------------------------------------------------------
    # Writer side: quorum writes (page flushes)
    # ------------------------------------------------------------------
    def _start_flush(self, page: int, new_tag: int, demote: bool,
                     at: float) -> float:
        """Push this client's page image to the replica quorum.

        Runs in handler (or home-local) context, so it cannot block: the
        majority count is gathered by :meth:`_on_qwrite_ack`, which then
        reports completion to the home.  The local copy is demoted to
        READ (writer keeps reading its own data) or dropped to INVALID
        before any message leaves, so the image is consistent.
        """
        data = bytes(self.pt.page_view(page).tobytes())
        self.state[page] = READ if demote else INVALID
        if not demote:
            self.invalidations += 1
        if self.monitor is not None:
            self.monitor.on_flush_start(self.pid, page, new_tag, demote, at)
        live = self.system.live_replicas()
        need = self.system.replication.majority
        assert len(live) >= need, "quorum write with a dead majority"
        assert page not in self._flush, "overlapping flushes of one page"
        self._flush[page] = _FlushState(tag=new_tag, need=need)
        self.quorum_writes += 1
        t = at
        for replica in live:
            t = self.udp_repl.send(
                self.pid, replica, CAT_QWRITE,
                (page, new_tag, data, self.pid),
                self.cost.page_size + REQ_BYTES, t_ready=t)
        return t

    def _on_qwrite_ack(self, delivery: Delivery) -> None:
        page, tag = delivery.payload
        at = self._interrupt(delivery)
        flush = self._flush.get(page)
        if flush is None or flush.tag != tag:
            return  # a straggler beyond the quorum
        flush.count += 1
        if flush.count < flush.need:
            return
        del self._flush[page]
        if self.monitor is not None:
            self.monitor.on_flush_complete(self.pid, page, tag, at)
        home = self.manager_of(page)
        if home == self.pid:
            self._home_ack(page, flush.tag, at)
        else:
            t = self.udp.send(self.pid, home, CAT_INV_ACK,
                              (page, flush.tag), CTL_BYTES, t_ready=at)
            self.proc.charge_service(max(0.0, t - at))

    def _on_invalidate(self, delivery: Delivery) -> None:
        page, demote, tag = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        t_ready = delivery.arrival + service
        if self.state[page] == WRITE:
            # This client is the page's writer: its image is newer than
            # the quorum's, so it must flush under tag+1 before the home
            # may proceed.  The ack is deferred to the flush quorum.
            t = self._start_flush(page, tag + 1, demote=demote, at=t_ready)
            self.proc.charge_service(service + (t - t_ready))
            return
        self._drop_copy(page, t_ready)
        t = self.udp.send(self.pid, self.manager_of(page), CAT_INV_ACK,
                          (page, tag), CTL_BYTES, t_ready=t_ready)
        self.proc.charge_service(service + (t - t_ready))

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------
    def _serve(self, page: int, entry: _HomePage, at: float) -> None:
        kind, _, requester, _box = entry.current
        # A read only needs the writer (if any) demoted: it flushes its
        # newer image to the quorum and keeps a READ copy.  A write needs
        # every other copy invalidated; the writer flushes before dropping.
        demote = kind == "read"
        if not demote:
            targets = sorted(entry.copyset - {requester})
        elif entry.writer in (None, requester):
            targets = []
        else:
            targets = [entry.writer]
        awaiting = 0
        t = at
        for member in targets:
            if member != self.pid:
                awaiting += 1
                t = self.udp.send(self.pid, member, CAT_INVALIDATE,
                                  (page, demote, entry.tag), CTL_BYTES,
                                  t_ready=t)
            elif self.state[page] == WRITE:
                awaiting += 1
                t = self._start_flush(page, entry.tag + 1, demote=demote,
                                      at=t)
            else:
                self._drop_copy(page, t)
        entry.awaiting_acks = awaiting
        if awaiting == 0:
            self._complete_grant(page, t)

    def _home_ack(self, page: int, new_tag: int, at: float) -> None:
        """One invalidation/demotion ack reached the home."""
        entry = self._entry(page)
        old_tag = entry.tag
        entry.tag = max(entry.tag, new_tag)
        if self.monitor is not None:
            self.monitor.on_home_tag(self.pid, page, old_tag, entry.tag, at)
        entry.awaiting_acks -= 1
        if entry.awaiting_acks == 0 and entry.current is not None:
            self._complete_grant(page, at)

    def _on_inv_ack(self, delivery: Delivery) -> None:
        page, new_tag = delivery.payload
        self._home_ack(page, new_tag, self._interrupt(delivery))

    def _complete_grant(self, page: int, at: float) -> None:
        entry = self._entry(page)
        assert entry.current is not None
        kind, _, requester, box = entry.current
        if kind == "write":
            entry.copyset = {requester}
            entry.writer = requester
        else:
            entry.copyset.add(requester)
            entry.writer = None
        if self.monitor is not None:
            self.monitor.on_home_grant(self.pid, page, kind, requester,
                                       entry.writer,
                                       frozenset(entry.copyset),
                                       entry.tag, at)
        self._send_grant(requester, box, kind == "write", entry.tag,
                         CTL_BYTES, at)


class ScAbdReplica:
    """One page-replica server: a tagged page store behind two handlers.

    Lives on a dedicated service processor whose main body is an idle
    daemon loop; all work happens here, in message-handler context, so a
    replica keeps serving even while the simulation's application
    threads are blocked -- and stops mattering the moment the failure
    detector marks it dead.
    """

    def __init__(self, proc: "Processor", system: "ScAbdSystem") -> None:
        self.proc = proc
        self.system = system
        self.pid = proc.pid
        self.cost = proc.cluster.cost
        self.udp_repl = UdpChannel(proc.cluster.net,
                                   system=REPLICATION_SYSTEM)
        #: page -> (tag, bytes).  A missing page is (0, zeros), implicit.
        self.store: Dict[int, Tuple[int, bytes]] = {}
        #: Optional protocol invariant monitor (set by attach_invariants).
        self.monitor = None
        proc.register(CAT_QREAD, self._on_qread)
        proc.register(CAT_QWRITE, self._on_qwrite)

    def _on_qread(self, delivery: Delivery) -> None:
        page, requester, collector = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        tag, data = self.store.get(page, (0, None))
        nbytes = CTL_BYTES + (self.cost.page_size if data is not None else 0)
        t_ready = delivery.arrival + service
        t = self.udp_repl.send(self.pid, requester, CAT_QREAD_REPLY,
                               (collector, tag, data), nbytes,
                               t_ready=t_ready)
        self.proc.charge_service(service + (t - t_ready))

    def _on_qwrite(self, delivery: Delivery) -> None:
        page, tag, data, writer = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        stored = self.store.get(page)
        if stored is None or tag > stored[0]:
            self.store[page] = (tag, data)
        if self.monitor is not None:
            prev_tag = 0 if stored is None else stored[0]
            self.monitor.on_replica_store(self.pid, page, prev_tag, tag,
                                          self.store[page][0],
                                          delivery.arrival)
        t_ready = delivery.arrival + service
        t = self.udp_repl.send(self.pid, writer, CAT_QWRITE_ACK,
                               (page, tag), CTL_BYTES, t_ready=t_ready)
        self.proc.charge_service(service + (t - t_ready))
