"""The SC-ABD protocol core: home-serialized pages, quorum-replicated data.

One :class:`ScAbdCore` per *client* (application) processor.  The design
follows Ekström & Haridi's SC-ABD: sequential consistency comes from
serializing each page's operations, fault tolerance from keeping the page
*data* in ABD-style majority quorums over a dedicated replica set.

* Every page has a fixed **home** (page number modulo clients) that
  serializes requests IVY-style: single writer, read copyset,
  invalidation before a write grant.  The home holds the page's current
  version **tag** -- a per-page sequence number incremented by every
  writer flush -- but never the data.
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
marks the dead replica so future quorum traffic skips it.

Accounting: home/control traffic is charged to the DSM's own wire totals
(the run's ``tmk`` column), replica traffic to the ``"replication"``
pseudo-system, and the faulting thread's quorum-read wait to the
``replication`` profiler bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs.core import B_REPLICATION
from repro.sim.engine import YIELD
from repro.sim.network import Delivery, UdpChannel
from repro.tmk.pages import PageTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.scabd.api import ScAbdSystem

__all__ = ["ScAbdCore", "ScAbdReplica"]

INVALID, READ, WRITE = 0, 1, 2

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

_REQ_BYTES = 32
_CTL_BYTES = 16

REPLICATION_SYSTEM = "replication"


@dataclass
class _HomeState:
    """Home-side bookkeeping for one page."""

    #: Clients holding a valid (READ or WRITE) copy.
    copyset: Set[int]
    #: The single writer, or None.  Invariant: writer is not None implies
    #: ``copyset == {writer}``.
    writer: Optional[int] = None
    #: Latest committed version on the replica quorum (0 = initial zeros,
    #: never flushed).
    tag: int = 0
    busy: bool = False
    queue: List[tuple] = field(default_factory=list)
    #: Outstanding invalidation/demotion acks for the current request.
    awaiting_acks: int = 0
    current: Optional[tuple] = None


@dataclass
class _FlushState:
    """Writer-side state for one in-flight quorum write (page flush)."""

    tag: int
    need: int
    home: int
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


class ScAbdCore:
    """Per-client SC-ABD state machine (home manager + quorum client)."""

    def __init__(self, proc: "Processor", system: "ScAbdSystem") -> None:
        self.proc = proc
        self.system = system
        self.pid = proc.pid
        self.nclients = system.nclients
        self.cost = proc.cluster.cost
        self.pt = PageTable(system.config.segment_bytes, self.cost.page_size)
        #: Local access state per page (INVALID/READ/WRITE).
        self.state = np.full(self.pt.npages, READ, dtype=np.int8)
        #: Control traffic rides on the DSM's own wire totals; quorum
        #: traffic is kept apart under the "replication" pseudo-system.
        self.udp = UdpChannel(proc.cluster.net, system="tmk")
        self.udp_repl = UdpChannel(proc.cluster.net,
                                   system=REPLICATION_SYSTEM)
        #: Home-side state for the pages this client is home of.
        self.homes: Dict[int, _HomeState] = {}
        #: In-flight quorum writes from this client, by page.
        self._flush: Dict[int, _FlushState] = {}
        self.prefers_piecewise_writes = True

        # Diagnostics.
        self.read_faults = 0
        self.write_faults = 0
        self.invalidations = 0
        self.quorum_reads = 0
        self.quorum_writes = 0
        #: Optional protocol invariant monitor (repro.verify.invariants):
        #: receives install/invalidate/flush/grant/barrier events; never
        #: charges time or messages.
        self.monitor = None

        proc.register(CAT_REQUEST, self._on_request)
        proc.register(CAT_GRANT, self._on_grant)
        proc.register(CAT_INVALIDATE, self._on_invalidate)
        proc.register(CAT_INV_ACK, self._on_inv_ack)
        proc.register(CAT_DONE, self._on_done)
        proc.register(CAT_QREAD_REPLY, self._on_qread_reply)
        proc.register(CAT_QWRITE_ACK, self._on_qwrite_ack)

    # ------------------------------------------------------------------
    def home_of(self, page: int) -> int:
        return page % self.nclients

    def _home(self, page: int) -> _HomeState:
        state = self.homes.get(page)
        if state is None:
            # Initially everyone holds a zero-filled read copy; the
            # replica quorum holds tag 0 (implicit zeros).
            state = _HomeState(copyset=set(range(self.nclients)))
            self.homes[page] = state
        return state

    # ------------------------------------------------------------------
    # Application-facing access checks (same interface SharedArray uses)
    # ------------------------------------------------------------------
    def ensure_valid_runs(self, runs):
        yield from self._ensure(runs, want_write=False)

    def ensure_writable_runs(self, runs):
        yield from self._ensure(runs, want_write=True)

    def _ensure(self, runs, want_write: bool):
        """Acquire every page the access touches, atomically (see
        :meth:`repro.ivy.core.IvyCore._ensure` for the retry rationale)."""
        floor = WRITE if want_write else READ
        pages = sorted({page for start, nbytes in runs
                        for page in self.pt.pages_for_range(start, nbytes)})
        for _ in range(1000):
            clean = True
            for page in pages:
                if self.state[page] < floor:
                    yield from self._fault(page, want_write=want_write)
                    clean = False
            if clean:
                return
        raise RuntimeError(
            f"P{self.pid}: SC-ABD access over {len(pages)} pages livelocked "
            "under page contention (1000 acquisition rounds)")

    # ------------------------------------------------------------------
    # Faulting side
    # ------------------------------------------------------------------
    def _fault(self, page: int, want_write: bool):
        proc = self.proc
        yield YIELD
        if want_write:
            self.write_faults += 1
        else:
            self.read_faults += 1
        proc.compute(self.cost.fault_cpu)
        proc.trace("scabd_fault",
                   f"page={page} {'write' if want_write else 'read'}")
        box = proc.mailbox()
        home = self.home_of(page)
        box.waiting_on = f"P{home} (home)"
        request = ("write" if want_write else "read", page, self.pid, box)
        if home == self.pid:
            self._enqueue(request, at=proc.now)
        else:
            t = self.udp.send(self.pid, home, CAT_REQUEST, request,
                              _REQ_BYTES, t_ready=proc.now)
            proc.set_now(t)
        granted_write, _tag = yield from box.wait(f"scabd page {page}")
        if self.state[page] == INVALID:
            # No valid local copy: fetch the committed version from a
            # majority of the replica set.
            tag, data = yield from self._quorum_read(page)
            view = self.pt.page_view(page)
            if data is not None:
                view[:] = np.frombuffer(data, dtype=np.uint8)
            else:
                view[:] = 0  # tag 0: the page was never flushed
            proc.compute(self.cost.copy_cost(self.cost.page_size))
        self.state[page] = WRITE if granted_write else READ
        if self.monitor is not None:
            self.monitor.on_install(self.pid, page, granted_write, proc.now)
        if home == self.pid:
            self._finish(page)
        else:
            t = self.udp.send(self.pid, home, CAT_DONE, page,
                              _CTL_BYTES, t_ready=proc.now)
            proc.set_now(t)

    def _on_grant(self, delivery: Delivery) -> None:
        box, body = delivery.payload
        box.put(body, delivery.arrival + delivery.recv_cpu)

    def _quorum_read(self, page: int):
        """Read the page from a majority of live replicas (blocks)."""
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
                                   _REQ_BYTES, t_ready=t)
        proc.set_now(t)
        tag, data = yield from collector.box.wait(
            f"scabd quorum read page {page}")
        if obs is not None:
            obs.end(proc.now, self.pid)
        return tag, data

    def _on_qread_reply(self, delivery: Delivery) -> None:
        collector, tag, data = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        if collector.done:
            return  # a straggler beyond the quorum
        collector.count += 1
        if tag > collector.tag:
            collector.tag = tag
            collector.data = data
        if collector.count >= collector.need:
            collector.done = True
            collector.box.put((collector.tag, collector.data),
                              delivery.arrival + service)

    # ------------------------------------------------------------------
    # Writer side: quorum writes (page flushes)
    # ------------------------------------------------------------------
    def _start_flush(self, page: int, new_tag: int, demote: bool,
                     home: int, at: float) -> float:
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
        self._flush[page] = _FlushState(tag=new_tag, need=need, home=home)
        self.quorum_writes += 1
        t = at
        for replica in live:
            t = self.udp_repl.send(
                self.pid, replica, CAT_QWRITE,
                (page, new_tag, data, self.pid),
                self.cost.page_size + _REQ_BYTES, t_ready=t)
        return t

    def _on_qwrite_ack(self, delivery: Delivery) -> None:
        page, tag = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        flush = self._flush.get(page)
        if flush is None or flush.tag != tag:
            return  # a straggler beyond the quorum
        flush.count += 1
        if flush.count < flush.need:
            return
        del self._flush[page]
        at = delivery.arrival + service
        if self.monitor is not None:
            self.monitor.on_flush_complete(self.pid, page, tag, at)
        if flush.home == self.pid:
            self._home_ack(page, flush.tag, at)
        else:
            t = self.udp.send(self.pid, flush.home, CAT_INV_ACK,
                              (page, flush.tag), _CTL_BYTES, t_ready=at)
            self.proc.charge_service(max(0.0, t - at))

    def _on_invalidate(self, delivery: Delivery) -> None:
        page, demote, tag = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        home = self.home_of(page)
        t_ready = delivery.arrival + service
        if self.state[page] == WRITE:
            # This client is the page's writer: its image is newer than
            # the quorum's, so it must flush under tag+1 before the home
            # may proceed.  The ack is deferred to the flush quorum.
            t = self._start_flush(page, tag + 1, demote=demote,
                                  home=home, at=t_ready)
            self.proc.charge_service(service + (t - t_ready))
            return
        self.state[page] = INVALID
        self.invalidations += 1
        if self.monitor is not None:
            self.monitor.on_invalidate(self.pid, page, t_ready)
        t = self.udp.send(self.pid, home, CAT_INV_ACK, (page, tag),
                          _CTL_BYTES, t_ready=t_ready)
        self.proc.charge_service(service + (t - t_ready))

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------
    def _on_request(self, delivery: Delivery) -> None:
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._enqueue(delivery.payload, at=delivery.arrival + service)

    def _enqueue(self, request: tuple, at: float) -> None:
        page = request[1]
        state = self._home(page)
        state.queue.append(request)
        if not state.busy:
            self._start_next(page, at)

    def _start_next(self, page: int, at: float) -> None:
        state = self._home(page)
        if not state.queue:
            state.busy = False
            return
        state.busy = True
        state.current = state.queue.pop(0)
        kind, _, requester, _box = state.current
        if kind == "read":
            writer = state.writer
            if writer is not None and writer != requester:
                # Demote the writer first: it flushes its (newer) image
                # to the quorum and keeps a READ copy.
                state.awaiting_acks = 1
                if writer == self.pid:
                    self._start_flush(page, state.tag + 1, demote=True,
                                      home=self.pid, at=at)
                else:
                    self.udp.send(self.pid, writer, CAT_INVALIDATE,
                                  (page, True, state.tag), _CTL_BYTES,
                                  t_ready=at)
                return
            self._complete_grant(page, at)
            return
        # Write: every other copy must be invalidated first; the writer
        # (if any) additionally flushes before dropping its copy.
        targets = sorted(state.copyset - {requester})
        awaiting = 0
        t = at
        for member in targets:
            if member == self.pid:
                if self.state[page] == WRITE:
                    awaiting += 1
                    t = self._start_flush(page, state.tag + 1,
                                          demote=False, home=self.pid, at=t)
                else:
                    self.state[page] = INVALID
                    self.invalidations += 1
                    if self.monitor is not None:
                        self.monitor.on_invalidate(self.pid, page, t)
                continue
            awaiting += 1
            t = self.udp.send(self.pid, member, CAT_INVALIDATE,
                              (page, False, state.tag), _CTL_BYTES,
                              t_ready=t)
        state.awaiting_acks = awaiting
        if awaiting == 0:
            self._complete_grant(page, t)

    def _home_ack(self, page: int, new_tag: int, at: float) -> None:
        """One invalidation/demotion ack reached the home."""
        state = self._home(page)
        old_tag = state.tag
        state.tag = max(state.tag, new_tag)
        if self.monitor is not None:
            self.monitor.on_home_tag(self.pid, page, old_tag, state.tag, at)
        state.awaiting_acks -= 1
        if state.awaiting_acks == 0 and state.current is not None:
            self._complete_grant(page, at)

    def _on_inv_ack(self, delivery: Delivery) -> None:
        page, new_tag = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._home_ack(page, new_tag, delivery.arrival + service)

    def _complete_grant(self, page: int, at: float) -> None:
        state = self._home(page)
        assert state.current is not None
        kind, _, requester, box = state.current
        if kind == "write":
            state.copyset = {requester}
            state.writer = requester
        else:
            state.copyset.add(requester)
            state.writer = None
        if self.monitor is not None:
            self.monitor.on_home_grant(self.pid, page, kind, requester,
                                       state.writer,
                                       frozenset(state.copyset),
                                       state.tag, at)
        body = (kind == "write", state.tag)
        if requester == self.pid:
            box.put(body, at)
            return
        t = self.udp.send(self.pid, requester, CAT_GRANT, (box, body),
                          _CTL_BYTES, t_ready=at)
        self.proc.charge_service(max(0.0, t - at))

    def _on_done(self, delivery: Delivery) -> None:
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._finish(delivery.payload, at=delivery.arrival + service)

    def _finish(self, page: int, at: Optional[float] = None) -> None:
        state = self._home(page)
        state.current = None
        state.busy = False
        self._start_next(page, at if at is not None else self.proc.now)


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
        nbytes = _CTL_BYTES + (self.cost.page_size if data is not None else 0)
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
                               (page, tag), _CTL_BYTES, t_ready=t_ready)
        self.proc.charge_service(service + (t - t_ready))
