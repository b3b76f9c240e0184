"""The IVY page-ownership protocol core.

One :class:`IvyCore` per processor.  Pages live in one of three local
states -- INVALID, READ, WRITE -- and each page has a fixed *manager*
(page number modulo processors) that serializes requests, tracks the
owner and the copyset, and orchestrates invalidations.

All protocol work happens at runtime level (message handlers); the
faulting application thread blocks on a mailbox until its page arrives.
Write transfers always ship the full page (Li's original elides the data
on an upgrade-in-place; we keep the one case that is unconditionally
safe: the owner upgrading its own read copy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from repro.sim.engine import YIELD
from repro.sim.network import Delivery, UdpChannel
from repro.tmk.pages import PageTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.ivy.api import IvySystem

__all__ = ["IvyCore"]

INVALID, READ, WRITE = 0, 1, 2

CAT_REQUEST = "ivy_request"        # faulting proc -> manager
CAT_FETCH = "ivy_fetch"            # manager -> owner
CAT_PAGE = "ivy_page"              # owner/manager -> faulting proc
CAT_INVALIDATE = "ivy_invalidate"  # manager -> copyset member
CAT_INV_ACK = "ivy_inv_ack"        # member -> manager
CAT_DONE = "ivy_done"              # faulting proc -> manager (next in queue)

_REQ_BYTES = 32
_CTL_BYTES = 16


@dataclass
class _PageManagerState:
    """Manager-side bookkeeping for one page."""

    owner: int
    copyset: Set[int]
    busy: bool = False
    queue: List[tuple] = field(default_factory=list)
    #: In-flight invalidation acks for the current write request.
    awaiting_acks: int = 0
    current: Optional[tuple] = None


class IvyCore:
    """Per-processor IVY state machine and page server."""

    def __init__(self, proc: "Processor", system: "IvySystem") -> None:
        self.proc = proc
        self.system = system
        self.pid = proc.pid
        self.nprocs = proc.cluster.nprocs
        self.cost = proc.cluster.cost
        #: Reuse the paged memory holder; the valid bit means "readable".
        self.pt = PageTable(system.config.segment_bytes, self.cost.page_size)
        #: Local access state per page (INVALID/READ/WRITE).
        self.state = np.full(self.pt.npages, READ, dtype=np.int8)
        self.udp = UdpChannel(proc.cluster.net, system="ivy")
        #: Manager-side state for the pages this processor manages.
        self.managed: Dict[int, _PageManagerState] = {}
        #: Multi-page stores go page piece by page piece (see
        #: SharedArray.write): holding many contended pages at once can
        #: livelock under single-writer semantics.
        self.prefers_piecewise_writes = True

        # Diagnostics.
        self.read_faults = 0
        self.write_faults = 0
        self.pages_sent = 0
        self.invalidations = 0
        #: Optional protocol invariant monitor (repro.verify.invariants):
        #: receives install/invalidate/demote/grant/barrier events; never
        #: charges time or messages.
        self.monitor = None

        proc.register(CAT_REQUEST, self._on_request)
        proc.register(CAT_FETCH, self._on_fetch)
        proc.register(CAT_PAGE, self._on_page)
        proc.register(CAT_INVALIDATE, self._on_invalidate)
        proc.register(CAT_INV_ACK, self._on_inv_ack)
        proc.register(CAT_DONE, self._on_done)

    # ------------------------------------------------------------------
    def manager_of(self, page: int) -> int:
        return page % self.nprocs

    def _managed(self, page: int) -> _PageManagerState:
        state = self.managed.get(page)
        if state is None:
            # Initially the manager owns the page and everyone has a
            # (zero-filled) read copy.
            state = _PageManagerState(owner=self.pid,
                                      copyset=set(range(self.nprocs)))
            self.managed[page] = state
        return state

    # ------------------------------------------------------------------
    # Application-facing access checks (same interface SharedArray uses)
    # ------------------------------------------------------------------
    def ensure_valid_runs(self, runs):
        yield from self._ensure(runs, want_write=False)

    def ensure_writable_runs(self, runs):
        yield from self._ensure(runs, want_write=True)

    def _ensure(self, runs, want_write: bool):
        """Acquire every page the access touches, atomically.

        While a fault for one page blocks, an already-acquired page of
        the same access can be stolen by another processor's write (real
        IVY re-traps on the next load/store; a range access must
        re-check).  Retry until one full pass over the access's pages
        needs no fault -- the numpy load/store then follows without a
        yield point, so nothing can steal a page in between.
        """
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
            f"P{self.pid}: IVY access over {len(pages)} pages livelocked "
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
        proc.trace("ivy_fault",
                   f"page={page} {'write' if want_write else 'read'}")
        box = proc.mailbox()
        manager = self.manager_of(page)
        box.waiting_on = f"P{manager} (page manager)"
        request = ("write" if want_write else "read", page, self.pid, box)
        if manager == self.pid:
            self._enqueue(request, at=proc.now)
        else:
            t = self.udp.send(self.pid, manager, CAT_REQUEST, request,
                              _REQ_BYTES, t_ready=proc.now)
            proc.set_now(t)
        payload = yield from box.wait(f"ivy page {page}")
        data, granted_write = payload
        if data is not None:
            view = self.pt.page_view(page)
            view[:] = np.frombuffer(data, dtype=np.uint8)
            proc.compute(self.cost.copy_cost(self.cost.page_size))
        self.state[page] = WRITE if granted_write else READ
        if self.monitor is not None:
            self.monitor.on_install(self.pid, page, granted_write, proc.now)
        # Tell the manager the transfer completed so it can serve the
        # next queued request for this page.
        if manager == self.pid:
            self._finish(page)
        else:
            t = self.udp.send(self.pid, manager, CAT_DONE, page,
                              _CTL_BYTES, t_ready=proc.now)
            proc.set_now(t)

    def _on_page(self, delivery: Delivery) -> None:
        box, payload = delivery.payload
        box.put(payload, delivery.arrival + delivery.recv_cpu)

    # ------------------------------------------------------------------
    # Manager side
    # ------------------------------------------------------------------
    def _on_request(self, delivery: Delivery) -> None:
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._enqueue(delivery.payload, at=delivery.arrival + service)

    def _enqueue(self, request: tuple, at: float) -> None:
        page = request[1]
        state = self._managed(page)
        state.queue.append(request)
        if not state.busy:
            self._start_next(page, at)

    def _start_next(self, page: int, at: float) -> None:
        state = self._managed(page)
        if not state.queue:
            state.busy = False
            return
        state.busy = True
        state.current = state.queue.pop(0)
        kind, _, requester, box = state.current
        if kind == "read":
            state.copyset.add(requester)
            self._transfer(page, requester, box, write=False, at=at)
            return
        # Write: invalidate every other copy first.
        targets = sorted(state.copyset - {requester})
        state.copyset = {requester}
        if targets:
            state.awaiting_acks = len(targets)
            t = at
            for member in targets:
                if member == self.pid:
                    self._local_invalidate(page)
                    state.awaiting_acks -= 1
                    continue
                t = self.udp.send(self.pid, member, CAT_INVALIDATE,
                                  page, _CTL_BYTES, t_ready=t)
            if state.awaiting_acks == 0:
                self._transfer(page, requester, box, write=True, at=t)
            return
        self._transfer(page, requester, box, write=True, at=at)

    def _local_invalidate(self, page: int) -> None:
        self.state[page] = INVALID
        self.invalidations += 1
        if self.monitor is not None:
            self.monitor.on_invalidate(self.pid, page, self.proc.now)

    def _on_invalidate(self, delivery: Delivery) -> None:
        page = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self._local_invalidate(page)
        manager = self.manager_of(page)
        t_ready = delivery.arrival + service
        t = self.udp.send(self.pid, manager, CAT_INV_ACK, page,
                          _CTL_BYTES, t_ready=t_ready)
        self.proc.charge_service(service + (t - t_ready))

    def _on_inv_ack(self, delivery: Delivery) -> None:
        page = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        state = self._managed(page)
        state.awaiting_acks -= 1
        if state.awaiting_acks == 0 and state.current is not None:
            _, _, requester, box = state.current
            self._transfer(page, requester, box, write=True,
                           at=delivery.arrival + service)

    def _transfer(self, page: int, requester: int, box, write: bool,
                  at: float) -> None:
        """Route the page (and, for writes, its ownership) to the
        requester; the manager's bookkeeping is already updated."""
        state = self._managed(page)
        owner = state.owner
        if write:
            state.owner = requester
        if self.monitor is not None:
            self.monitor.on_grant(self.pid, page,
                                  "write" if write else "read", requester,
                                  owner, frozenset(state.copyset), at)
        if owner == requester:
            # Upgrade in place: the owner's copy is current -- the manager
            # sends just the grant, no page data.
            self._deliver_page(requester, box, page, data=False,
                               write=write, at=at)
        elif owner == self.pid:
            self._serve_page(page, requester, box, write=write, at=at)
        else:
            self.udp.send(self.pid, owner, CAT_FETCH,
                          (page, requester, box, write),
                          _REQ_BYTES, t_ready=at)

    def _on_fetch(self, delivery: Delivery) -> None:
        page, requester, box, write = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._serve_page(page, requester, box, write=write,
                         at=delivery.arrival + service)

    def _serve_page(self, page: int, requester: int, box, write: bool,
                    at: float) -> None:
        """Owner side: ship the page; demote or drop the local copy."""
        data = bytes(self.pt.page_view(page).tobytes())
        self.pages_sent += 1
        if write:
            self._local_invalidate(page)
        elif self.state[page] == WRITE:
            self.state[page] = READ
            if self.monitor is not None:
                self.monitor.on_demote(self.pid, page, at)
        self._deliver_page(requester, box, page, data=True,
                           write=write, at=at, payload=data)

    def _deliver_page(self, requester: int, box, page: int,
                      data: bool, write: bool, at: float,
                      payload: Optional[bytes] = None) -> None:
        """Send the page/grant from this processor to the requester."""
        body = (payload if data else None, write)
        nbytes = (self.cost.page_size if data else 0) + _CTL_BYTES
        if requester == self.pid:
            # Local upgrade at the manager/owner: no message at all.
            box.put(body, at)
            return
        t = self.udp.send(self.pid, requester, CAT_PAGE, (box, body),
                          nbytes, t_ready=at)
        self.proc.charge_service(max(0.0, t - at))

    def _on_done(self, delivery: Delivery) -> None:
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._finish(delivery.payload,
                     at=delivery.arrival + service)

    def _finish(self, page: int, at: Optional[float] = None) -> None:
        state = self._managed(page)
        state.current = None
        state.busy = False
        self._start_next(page, at if at is not None else self.proc.now)