"""The single-writer page directory, and IVY's ownership transfer over it.

:class:`DirectoryCore` is the sequentially-consistent protocol both SC
runtimes run.  Pages live in one of three local states -- INVALID, READ,
WRITE -- and each page has a fixed *manager* (page number modulo
application processors) that serializes requests one at a time: a
faulting processor sends a request, the manager queues it, serves the
head of the queue (invalidating other copies before a write grant), the
requester installs the page and reports done, and the manager moves on.
What "serve" and "install" move is the data plane, and that is all a
runtime adds:

* :class:`IvyCore` (here) keeps the data with an *owner*: the manager
  tracks owner and copyset and forwards the request to the owner, who
  ships the whole page.  Write transfers always ship the full page
  (Li's original elides the data on an upgrade-in-place; we keep the one
  case that is unconditionally safe: the owner upgrading its own copy).
* :class:`repro.scabd.core.ScAbdCore` keeps the data in a replica quorum:
  the manager tracks a version tag, writers flush, readers quorum-read.

All protocol work happens at runtime level (message handlers); the
faulting application thread blocks on a mailbox until its grant arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from repro.sim.engine import YIELD
from repro.sim.network import Delivery
from repro.tmk.sharedmem import DsmCore

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.tmk.sharedmem import DsmSystem

__all__ = ["DirectoryCore", "DirectoryEntry", "IvyCore"]

INVALID, READ, WRITE = 0, 1, 2

CAT_REQUEST = "ivy_request"        # faulting proc -> manager
CAT_FETCH = "ivy_fetch"            # manager -> owner
CAT_PAGE = "ivy_page"              # owner/manager -> faulting proc
CAT_INVALIDATE = "ivy_invalidate"  # manager -> copyset member
CAT_INV_ACK = "ivy_inv_ack"        # member -> manager
CAT_DONE = "ivy_done"              # faulting proc -> manager (next in queue)

REQ_BYTES = 32
CTL_BYTES = 16


@dataclass
class DirectoryEntry:
    """Manager-side bookkeeping for one page."""

    #: Processors holding a valid (READ or WRITE) copy.
    copyset: Set[int]
    busy: bool = False
    queue: List[tuple] = field(default_factory=list)
    #: In-flight invalidation/demotion acks for the current request.
    awaiting_acks: int = 0
    #: The request being served: ``(kind, page, requester, box)``.
    current: Optional[tuple] = None


class DirectoryCore(DsmCore):
    """Per-processor page states, fault path and manager-side queue.

    A runtime names its messages (``cat_request``/``cat_grant``/
    ``cat_done``), its labels, and supplies :meth:`_new_entry`,
    :meth:`_serve` and :meth:`_install`.
    """

    prefers_piecewise_writes = True

    #: Message categories: faulting proc -> manager, grant -> faulting
    #: proc, faulting proc -> manager (serve the next request).
    cat_request: str
    cat_grant: str
    cat_done: str
    #: ``name`` appears in error text, ``label`` in ``page_fault`` events
    #: and mailbox labels, ``manager_role`` in what a blocked thread waits on.
    name: str
    label: str
    manager_role: str

    def __init__(self, proc: "Processor", system: "DsmSystem") -> None:
        super().__init__(proc, system)
        #: Local access state per page (INVALID/READ/WRITE); the page
        #: table's valid bit is unused.  Grown with the heap.
        self.state = bytearray([READ]) * self.pt.npages
        #: Manager-side state for the pages this processor manages.
        self.directory: Dict[int, DirectoryEntry] = {}

        # Diagnostics.
        self.read_faults = 0
        self.write_faults = 0
        self.invalidations = 0

        proc.register(self.cat_request, self._on_request)
        proc.register(self.cat_grant, self._on_grant)
        proc.register(self.cat_done, self._on_done)

    def grow(self, npages: int) -> None:
        super().grow(npages)
        self.state.extend([READ] * (npages - len(self.state)))

    @property
    def fault_count(self) -> int:
        return self.read_faults + self.write_faults

    def manager_of(self, page: int) -> int:
        return page % self.system.nclients

    def _entry(self, page: int) -> DirectoryEntry:
        entry = self.directory.get(page)
        if entry is None:
            # Initially everyone has a (zero-filled) read copy.
            entry = self.directory[page] = self._new_entry(
                set(range(self.system.nclients)))
        return entry

    # ------------------------------------------------------------------
    # What a runtime supplies
    # ------------------------------------------------------------------
    def _new_entry(self, copyset: Set[int]) -> DirectoryEntry:
        """The manager's initial record for a page."""
        raise NotImplementedError

    def _serve(self, page: int, entry: DirectoryEntry, at: float) -> None:
        """Manager side: serve ``entry.current``, the request at the head
        of the queue -- clear the way (invalidate, demote), then
        :meth:`_send_grant`.  Handler context: must not block."""
        raise NotImplementedError

    def _install(self, page: int, detail):
        """Faulting side (generator, may block): make the local copy
        current, given the grant's runtime-specific ``detail``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Application-facing access checks
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
            f"P{self.pid}: {self.name} access over {len(pages)} pages "
            "livelocked under page contention (1000 acquisition rounds)")

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
        events = proc.events
        if events is not None:
            events.page_fault(self.pid, page, want_write, self.label, proc.now)
        box = proc.mailbox()
        manager = self.manager_of(page)
        box.waiting_on = f"P{manager} ({self.manager_role})"
        request = ("write" if want_write else "read", page, self.pid, box)
        if manager == self.pid:
            self._enqueue(request, at=proc.now)
        else:
            t = self.udp.send(self.pid, manager, self.cat_request, request,
                              REQ_BYTES, t_ready=proc.now)
            proc.set_now(t)
        granted_write, detail = yield from box.wait(
            f"{self.label} page {page}")
        yield from self._install(page, detail)
        self.state[page] = WRITE if granted_write else READ
        if events is not None:
            events.install(self.pid, page, granted_write, proc.now)
        # Tell the manager the transfer completed so it can serve the
        # next queued request for this page.
        if manager == self.pid:
            self._finish(page, at=proc.now)
        else:
            t = self.udp.send(self.pid, manager, self.cat_done, page,
                              CTL_BYTES, t_ready=proc.now)
            proc.set_now(t)

    def _on_grant(self, delivery: Delivery) -> None:
        box, grant = delivery.payload
        box.put(grant, delivery.arrival + delivery.recv_cpu)

    def _drop_copy(self, page: int, at: float) -> None:
        self.state[page] = INVALID
        self.invalidations += 1
        if self.proc.events is not None:
            self.proc.events.invalidate(self.pid, page, at)

    def _interrupt(self, delivery: Delivery) -> float:
        """Charge a handler's receive + interrupt CPU; returns the time
        its reaction can leave."""
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        return delivery.arrival + service

    # ------------------------------------------------------------------
    # Manager side
    # ------------------------------------------------------------------
    def _on_request(self, delivery: Delivery) -> None:
        self._enqueue(delivery.payload, at=self._interrupt(delivery))

    def _enqueue(self, request: tuple, at: float) -> None:
        page = request[1]
        entry = self._entry(page)
        entry.queue.append(request)
        if not entry.busy:
            self._start_next(page, at)

    def _start_next(self, page: int, at: float) -> None:
        entry = self._entry(page)
        if not entry.queue:
            entry.busy = False
            return
        entry.busy = True
        entry.current = entry.queue.pop(0)
        self._serve(page, entry, at)

    def _send_grant(self, requester: int, box, write: bool, detail,
                    nbytes: int, at: float) -> None:
        """Wake the requester's fault with ``(write, detail)``."""
        grant = (write, detail)
        if requester == self.pid:
            # Granted at the requester itself: no message at all.
            box.put(grant, at)
            return
        t = self.udp.send(self.pid, requester, self.cat_grant, (box, grant),
                          nbytes, t_ready=at)
        self.proc.charge_service(max(0.0, t - at))

    def _on_done(self, delivery: Delivery) -> None:
        self._finish(delivery.payload, at=self._interrupt(delivery))

    def _finish(self, page: int, at: float) -> None:
        entry = self._entry(page)
        entry.current = None
        entry.busy = False
        self._start_next(page, at)


@dataclass
class _OwnedPage(DirectoryEntry):
    #: Who holds the current data; starts at the manager.
    owner: int = field(kw_only=True)


class IvyCore(DirectoryCore):
    """IVY: the page's data travels with its ownership."""

    wire_system = "ivy"
    cat_request, cat_grant, cat_done = CAT_REQUEST, CAT_PAGE, CAT_DONE
    name, label, manager_role = "IVY", "ivy", "page manager"

    def __init__(self, proc: "Processor", system: "DsmSystem") -> None:
        super().__init__(proc, system)
        self.pages_sent = 0
        proc.register(CAT_FETCH, self._on_fetch)
        proc.register(CAT_INVALIDATE, self._on_invalidate)
        proc.register(CAT_INV_ACK, self._on_inv_ack)

    def _new_entry(self, copyset: Set[int]) -> _OwnedPage:
        return _OwnedPage(copyset, owner=self.pid)

    def _install(self, page: int, data: Optional[bytes]):
        if data is not None:
            view = self.pt.page_view(page)
            view[:] = np.frombuffer(data, dtype=np.uint8)
            self.proc.compute(self.cost.copy_cost(self.cost.page_size))
        yield from ()

    # ------------------------------------------------------------------
    # Manager side
    # ------------------------------------------------------------------
    def _serve(self, page: int, entry: _OwnedPage, at: float) -> None:
        kind, _, requester, box = entry.current
        if kind == "read":
            entry.copyset.add(requester)
            self._transfer(page, requester, box, write=False, at=at)
            return
        # Write: invalidate every other copy first.
        targets = sorted(entry.copyset - {requester})
        entry.copyset = {requester}
        entry.awaiting_acks = len(targets)
        t = at
        for member in targets:
            if member == self.pid:
                self._drop_copy(page, self.proc.now)
                entry.awaiting_acks -= 1
                continue
            t = self.udp.send(self.pid, member, CAT_INVALIDATE,
                              page, CTL_BYTES, t_ready=t)
        if entry.awaiting_acks == 0:
            self._transfer(page, requester, box, write=True, at=t)

    def _on_invalidate(self, delivery: Delivery) -> None:
        page = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self._drop_copy(page, self.proc.now)
        manager = self.manager_of(page)
        t_ready = delivery.arrival + service
        t = self.udp.send(self.pid, manager, CAT_INV_ACK, page,
                          CTL_BYTES, t_ready=t_ready)
        self.proc.charge_service(service + (t - t_ready))

    def _on_inv_ack(self, delivery: Delivery) -> None:
        page = delivery.payload
        at = self._interrupt(delivery)
        entry = self._entry(page)
        entry.awaiting_acks -= 1
        if entry.awaiting_acks == 0 and entry.current is not None:
            _, _, requester, box = entry.current
            self._transfer(page, requester, box, write=True, at=at)

    def _transfer(self, page: int, requester: int, box, write: bool,
                  at: float) -> None:
        """Route the page (and, for writes, its ownership) to the
        requester; the manager's bookkeeping is already updated."""
        entry = self._entry(page)
        owner = entry.owner
        if write:
            entry.owner = requester
        if self.proc.events is not None:
            self.proc.events.grant(self.pid, page,
                                   "write" if write else "read", requester,
                                   owner, frozenset(entry.copyset), at)
        if owner == requester:
            # Upgrade in place: the owner's copy is current -- the manager
            # sends just the grant, no page data.
            self._send_grant(requester, box, write, None, CTL_BYTES, at)
        elif owner == self.pid:
            self._serve_page(page, requester, box, write=write, at=at)
        else:
            self.udp.send(self.pid, owner, CAT_FETCH,
                          (page, requester, box, write),
                          REQ_BYTES, t_ready=at)

    def _on_fetch(self, delivery: Delivery) -> None:
        page, requester, box, write = delivery.payload
        self._serve_page(page, requester, box, write=write,
                         at=self._interrupt(delivery))

    def _serve_page(self, page: int, requester: int, box, write: bool,
                    at: float) -> None:
        """Owner side: ship the page; demote or drop the local copy."""
        data = bytes(self.pt.page_view(page).tobytes())
        self.pages_sent += 1
        if write:
            self._drop_copy(page, self.proc.now)
        elif self.state[page] == WRITE:
            self.state[page] = READ
            if self.proc.events is not None:
                self.proc.events.demote(self.pid, page, at)
        self._send_grant(requester, box, write, data,
                         self.cost.page_size + CTL_BYTES, at)
