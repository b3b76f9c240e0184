"""TreadMarks locks: static managers, request forwarding, silent releases.

"Each lock has a statically assigned manager.  The manager records which
processor has most recently requested the lock.  All lock acquire requests
are directed to the manager and, if necessary, forwarded to the processor
that last requested the lock.  A lock release does not cause any
communication."

Message pattern per remote acquire:

* requester -> manager (``lock_request``), unless the requester *is* the
  manager;
* manager -> last requester (``lock_forward``), unless the manager is the
  last requester itself;
* last releaser -> requester (``lock_grant``), dispatched immediately if
  the lock is free, or at release time if it is held.  The grant piggybacks
  the write notices (interval records) the requester has not yet seen --
  this is the *only* consistency traffic locks generate.

Re-acquiring a lock this processor was the last to hold is free (no
messages), matching real TreadMarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.core import B_STALL_SYNC, B_WIRE
from repro.sim.engine import YIELD
from repro.sim.network import Delivery
from repro.tmk.protocol import (CAT_LOCK_FORWARD, CAT_LOCK_GRANT,
                                CAT_LOCK_REQUEST, CAT_MCS_LINK, CAT_MCS_SWAP,
                                CAT_MCS_TAIL, LockGrant, LockRequest, McsLink,
                                McsSwap, McsTail)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.tmk.api import TmkSystem
    from repro.tmk.consistency import LrcCore

__all__ = ["LockSubsystem", "McsLockSubsystem"]

#: CPU cost of an acquire/release that stays local (no messages).
_LOCAL_LOCK_CPU = 5e-6


@dataclass
class _HolderState:
    """This processor's relationship with one lock."""

    #: True if this processor is the lock's current end-of-chain owner
    #: (last to have been granted it, and not since surrendered).
    owns: bool = False
    #: True while the application holds the lock (between acquire/release).
    holding: bool = False
    #: True while this processor's own acquire request is outstanding (the
    #: manager may forward the next request to us before we are granted).
    awaiting: bool = False
    #: A forwarded request waiting for our release.
    waiter: Optional[LockRequest] = None


class LockSubsystem:
    """Per-processor lock logic (manager + holder + acquirer roles).

    :meth:`acquire` is the one acquire skeleton (local re-acquire fast
    path, grant merge, the observers' hooks); a protocol supplies
    :meth:`_request_grant` and its ``_detail`` suffix for span details.
    """

    _detail = ""

    def __init__(self, proc: "Processor", core: "LrcCore",
                 system: "TmkSystem") -> None:
        self.proc = proc
        self.core = core
        self.system = system
        self.pid = proc.pid
        self.cost = proc.cluster.cost
        self.nprocs = proc.cluster.nprocs
        #: Manager role: lock -> most recent requester (initially the
        #: manager itself, which "owns" every lock it manages at startup).
        self._last_requester: Dict[int, int] = {}
        self._state: Dict[int, _HolderState] = {}
        #: Diagnostics: virtual seconds spent blocked in lock_acquire.
        self.wait_time = 0.0
        self.acquires = 0
        self.local_acquires = 0
        proc.register(CAT_LOCK_REQUEST, self._on_request)
        proc.register(CAT_LOCK_FORWARD, self._on_forward)
        proc.register(CAT_LOCK_GRANT, self._on_grant)

    # ------------------------------------------------------------------
    def _lock_state(self, lock: int) -> _HolderState:
        state = self._state.get(lock)
        if state is None:
            # The manager starts as the owner of each lock it manages.
            state = _HolderState(owns=self.system.lock_manager(lock) == self.pid)
            self._state[lock] = state
        return state

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def acquire(self, lock: int):
        proc = self.proc
        yield YIELD
        self.core.close_interval()
        state = self._lock_state(lock)
        self.acquires += 1
        if state.holding:
            raise RuntimeError(f"P{self.pid}: recursive acquire of lock {lock}")
        obs = proc.obs
        if state.owns:
            # Last holder re-acquiring: free, no messages, no new notices.
            state.holding = True
            proc.compute(_LOCAL_LOCK_CPU)
            self.local_acquires += 1
            proc.trace("lock_acquire", f"lock={lock} local")
            if obs is not None:
                obs.instant(proc.now, self.pid, "lock_local",
                            f"lock={lock}")
            if self.core.sanitizer is not None:
                self.core.sanitizer.on_lock_acquired(self.pid, lock)
            return

        state.awaiting = True
        t_wait_start = proc.now
        if obs is not None:
            obs.begin(proc.now, self.pid, "lock_acquire", B_STALL_SYNC,
                      f"lock={lock}{self._detail}")
        grant: LockGrant = yield from self._request_grant(lock)
        self.wait_time += proc.now - t_wait_start
        self.core.merge(grant.records, grant.vc, piggybacked=grant.diffs)
        state.awaiting = False
        state.owns = True
        state.holding = True
        if obs is not None:
            obs.end(proc.now, self.pid)
        proc.trace("lock_acquire",
                   f"lock={lock} from=P{grant.granter}{self._detail} "
                   f"notices={sum(len(r.pages) for r in grant.records)}")
        if self.core.sanitizer is not None:
            self.core.sanitizer.on_lock_acquired(self.pid, lock, grant)

    def _request_grant(self, lock: int):
        """Ask for the lock; returns the generator that waits for (and
        returns) its grant -- the mailbox's own, no frame in between."""
        proc = self.proc
        box = proc.mailbox()
        request = LockRequest(lock=lock, requester=self.pid,
                              vc=tuple(self.core.vc), reply=box)
        manager = self.system.lock_manager(lock)
        if manager == self.pid:
            # We manage this lock: route straight to the last requester.
            self._route(request, at=proc.now, charge_thread=True)
        else:
            obs = proc.obs
            if obs is not None:
                obs.begin(proc.now, self.pid, "send", B_WIRE,
                          f"lock_request->P{manager}")
            t_free = self.core.udp.send(
                self.pid, manager, CAT_LOCK_REQUEST, request,
                request.nbytes(self.cost, self.nprocs), t_ready=proc.now)
            proc.set_now(t_free)
            if obs is not None:
                obs.end(proc.now, self.pid)
        return box.wait(f"grant of lock {lock}")

    def release(self, lock: int):
        proc = self.proc
        yield YIELD
        state = self._lock_state(lock)
        if not state.holding:
            raise RuntimeError(f"P{self.pid}: release of unheld lock {lock}")
        self.core.close_interval()
        state.holding = False
        proc.compute(_LOCAL_LOCK_CPU)
        proc.trace("lock_release", f"lock={lock}")
        if self.core.sanitizer is not None:
            self.core.sanitizer.on_lock_release(self.pid, lock)
        if state.waiter is not None:
            request, state.waiter = state.waiter, None
            state.owns = False
            self._grant(request, t_ready=proc.now, charge_thread=True)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def reclaim(self, dead: int) -> list:
        """Reclaim every lock this processor manages whose request chain
        ends at the crashed processor ``dead``.

        Without this, the manager would keep forwarding acquire requests
        to the dead node forever (the forwards are silently dropped), so
        an orphaned lock could never be acquired again.  Reclaiming
        resets the chain to the manager itself -- the recovery analogue
        of the manager re-issuing the lock token.  Any request from the
        dead node still queued behind a held lock is discarded.  Returns
        the reclaimed lock ids.
        """
        reclaimed = []
        for lock, last in list(self._last_requester.items()):
            if last != dead:
                continue
            self._last_requester[lock] = self.pid
            state = self._lock_state(lock)
            state.owns = True
            reclaimed.append(lock)
            self.proc.trace("lock_reclaim", f"lock={lock} dead=P{dead}")
        for state in self._state.values():
            if state.waiter is not None and state.waiter.requester == dead:
                state.waiter = None
        return reclaimed

    # ------------------------------------------------------------------
    # Manager role
    # ------------------------------------------------------------------
    def _on_request(self, delivery: Delivery) -> None:
        request: LockRequest = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self._route(request, at=delivery.arrival + service,
                    charge_thread=False, service=service)

    def _route(self, request: LockRequest, at: float, charge_thread: bool,
               service: float = 0.0) -> None:
        """Manager logic: forward to the last requester (possibly ourself)."""
        lock = request.lock
        assert self.system.lock_manager(lock) == self.pid
        target = self._last_requester.get(lock, self.pid)
        if target == request.requester:
            if charge_thread:
                raise AssertionError(
                    f"P{request.requester} requested lock {lock} it still owns")
            # A re-delivered request for a lock we already routed to this
            # requester: idempotent no-op (the original is in flight).
            self.proc.charge_service(service)
            self.proc.trace("dup_suppress",
                            f"lock_request key={request.dedup_key()}")
            return
        self._last_requester[lock] = request.requester
        if target == self.pid:
            # The manager is the end of the chain: act as holder directly.
            if charge_thread:
                self._holder_receive(request, at=at, charge_thread=True)
            else:
                self.proc.charge_service(service)
                self._holder_receive(request, at=at, charge_thread=False)
        else:
            obs = self.proc.obs
            if obs is not None:
                obs.instant(at, self.pid, "forward_hop",
                            f"lock={lock} ->P{target}")
            t_free = self.core.udp.send(
                self.pid, target, CAT_LOCK_FORWARD, request,
                request.nbytes(self.cost, self.nprocs), t_ready=at)
            if charge_thread:
                self.proc.set_now(t_free)
            else:
                self.proc.charge_service(service + (t_free - at))

    # ------------------------------------------------------------------
    # Holder role
    # ------------------------------------------------------------------
    def _on_forward(self, delivery: Delivery) -> None:
        request: LockRequest = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._holder_receive(request, at=delivery.arrival + service,
                             charge_thread=False)

    def _holder_receive(self, request: LockRequest, at: float,
                        charge_thread: bool) -> None:
        state = self._lock_state(request.lock)
        if not state.owns and not state.awaiting:
            raise AssertionError(
                f"P{self.pid}: forwarded request for lock {request.lock} "
                "it neither owns nor awaits")
        if state.holding or state.awaiting or state.waiter is not None:
            if state.waiter is not None:
                if state.waiter.dedup_key() == request.dedup_key():
                    # Re-delivered forward of the request already queued.
                    self.proc.trace("dup_suppress",
                                    f"lock_forward key={request.dedup_key()}")
                    return
                raise AssertionError(
                    f"P{self.pid}: two waiters for lock {request.lock}")
            state.waiter = request
            self.proc.trace("lock_queued",
                            f"lock={request.lock} waiter=P{request.requester}")
        else:
            state.owns = False
            self._grant(request, t_ready=at, charge_thread=charge_thread)

    def _grant(self, request: LockRequest, t_ready: float,
               charge_thread: bool) -> None:
        records = self.core.records_since(request.vc)
        grant = LockGrant(lock=request.lock, granter=self.pid,
                          vc=tuple(self.core.vc), records=records,
                          diffs=self._piggyback(records))
        if self.core.sanitizer is not None:
            self.core.sanitizer.on_grant_send(grant, self.pid, request.lock)
        obs = self.proc.obs
        if obs is not None and charge_thread:
            obs.begin(t_ready, self.pid, "send", B_WIRE,
                      f"lock_grant->P{request.requester}")
        t_free = self.core.udp.send(
            self.pid, request.requester, CAT_LOCK_GRANT,
            (request.reply, grant), grant.nbytes(self.cost, self.nprocs),
            t_ready=t_ready)
        if charge_thread:
            self.proc.set_now(t_free)
            if obs is not None:
                obs.end(t_free, self.pid)
        else:
            self.proc.charge_service(t_free - t_ready)
            if obs is not None:
                obs.serve(t_ready, t_free - t_ready, self.pid, "serve_grant",
                          f"lock={request.lock} to=P{request.requester}")
        self.proc.trace("lock_grant",
                        f"lock={request.lock} to=P{request.requester}")

    def _piggyback(self, records) -> Optional[Dict]:
        """The paper's future-work optimization: attach, within the
        configured byte budget, the diffs for the pages this grant is
        about to invalidate -- "overcoming the separation of
        synchronization and data movement"."""
        budget = self.system.config.piggyback_budget
        if budget <= 0:
            return None
        out: Dict = {}
        spent = 0
        cost = self.cost
        for record in records:
            for page in record.pages:
                group = {}
                group_bytes = 0
                complete = True
                for r in records:
                    if page not in r.pages:
                        continue
                    diff = self.core.diff_cache.get((r.id, page))
                    if diff is None:
                        complete = False
                        break
                    group[(r.id, page)] = diff
                    group_bytes += cost.diff_envelope_bytes + diff.wire_bytes
                if not complete or any(k in out for k in group):
                    continue
                if spent + group_bytes > budget:
                    continue
                out.update(group)
                spent += group_bytes
        return out or None

    # ------------------------------------------------------------------
    def _on_grant(self, delivery: Delivery) -> None:
        box, grant = delivery.payload
        box.put(grant, delivery.arrival + delivery.recv_cpu)


class McsLockSubsystem(LockSubsystem):
    """Distributed-queue locks (``TmkConfig.lock_kind="mcs"``).

    The static protocol ships an O(n)-sized vector time through the
    manager on every contended acquire (request in, forward out), so a
    hot lock's manager does O(n)-byte work per acquire and the forward
    chain is a serial hop through it.  MCS-style queueing makes the
    manager a pure tail pointer:

    * requester -> manager (``mcs_swap``, constant size): atomically
      swap the queue tail to the requester;
    * manager -> requester (``mcs_tail``, constant size): the previous
      tail -- the requester's predecessor in the queue;
    * requester -> predecessor (``mcs_link``): enqueue behind it.  This
      is the only message carrying the vector time, point to point;
    * predecessor -> requester (the ordinary ``lock_grant``), at its
      release (or immediately, if it already surrendered the lock).

    One extra constant-size hop versus the static protocol's best case,
    but the manager's per-acquire cost no longer scales with n, and a
    convoy on a hot lock hands off neighbor-to-neighbor instead of
    re-traversing the manager.  ``McsLink`` is shaped like a
    ``LockRequest`` (lock/requester/vc/reply), so the inherited holder
    role -- waiter queueing, grant selection, piggybacking, duplicate
    suppression -- is reused unchanged.

    Local re-acquires, releases, and the grant path are inherited; only
    the remote-acquire routing differs.  Defaults (``lock_kind="static"``)
    remain byte-identical to the seed.
    """

    _detail = " mcs"

    def __init__(self, proc: "Processor", core: "LrcCore",
                 system: "TmkSystem") -> None:
        super().__init__(proc, core, system)
        #: Manager role: lock -> current queue tail (initially the
        #: manager itself, mirroring the static protocol's ownership).
        self._tail: Dict[int, int] = {}
        proc.register(CAT_MCS_SWAP, self._on_swap)
        proc.register(CAT_MCS_TAIL, self._on_tail)
        proc.register(CAT_MCS_LINK, self._on_link)

    # ------------------------------------------------------------------
    def _swap_tail(self, lock: int, requester: int) -> int:
        """The manager's whole job: swap the tail, return the old one."""
        assert self.system.lock_manager(lock) == self.pid
        previous = self._tail.get(lock, self.pid)
        self._tail[lock] = requester
        return previous

    # ------------------------------------------------------------------
    # Application interface (remote-acquire path replaced)
    # ------------------------------------------------------------------
    def _request_grant(self, lock: int):
        proc = self.proc
        obs = proc.obs
        manager = self.system.lock_manager(lock)
        if manager == self.pid:
            # We manage this lock: the tail swap is a local operation.
            proc.compute(_LOCAL_LOCK_CPU)
            predecessor = self._swap_tail(lock, self.pid)
        else:
            swap_box = proc.mailbox()
            swap = McsSwap(lock=lock, requester=self.pid, reply=swap_box)
            if obs is not None:
                obs.begin(proc.now, self.pid, "send", B_WIRE,
                          f"mcs_swap->P{manager}")
            t_free = self.core.udp.send(
                self.pid, manager, CAT_MCS_SWAP, swap,
                swap.nbytes(self.cost), t_ready=proc.now)
            proc.set_now(t_free)
            if obs is not None:
                obs.end(proc.now, self.pid)
            tail: McsTail = yield from swap_box.wait(
                f"tail of lock {lock}")
            predecessor = tail.predecessor
        if predecessor == self.pid:
            raise AssertionError(
                f"P{self.pid}: swapped lock {lock}'s tail but was already "
                "the tail without owning it")

        grant_box = proc.mailbox()
        link = McsLink(lock=lock, requester=self.pid,
                       vc=tuple(self.core.vc), reply=grant_box)
        if obs is not None:
            obs.begin(proc.now, self.pid, "send", B_WIRE,
                      f"mcs_link->P{predecessor}")
        t_free = self.core.udp.send(
            self.pid, predecessor, CAT_MCS_LINK, link,
            link.nbytes(self.cost, self.nprocs), t_ready=proc.now)
        proc.set_now(t_free)
        if obs is not None:
            obs.end(proc.now, self.pid)
        return (yield from grant_box.wait(f"grant of lock {lock}"))

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def reclaim(self, dead: int) -> list:
        """Static reclaim plus: any queue whose tail is the dead node is
        reset to the manager (later swaps would otherwise link acquirers
        behind a predecessor that will never grant)."""
        reclaimed = super().reclaim(dead)
        for lock in sorted(self._tail):
            if self._tail[lock] != dead:
                continue
            self._tail[lock] = self.pid
            self._lock_state(lock).owns = True
            if lock not in reclaimed:
                reclaimed.append(lock)
            self.proc.trace("lock_reclaim", f"lock={lock} dead=P{dead} mcs")
        return reclaimed

    # ------------------------------------------------------------------
    # Manager role
    # ------------------------------------------------------------------
    def _on_swap(self, delivery: Delivery) -> None:
        swap: McsSwap = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        if self._tail.get(swap.lock, self.pid) == swap.requester:
            # Re-delivered swap: the original reply is in flight (a
            # requester has at most one acquire outstanding, and its own
            # tail entry is overwritten before any later acquire links).
            self.proc.trace("dup_suppress",
                            f"mcs_swap key={swap.dedup_key()}")
            return
        previous = self._swap_tail(swap.lock, swap.requester)
        reply = McsTail(lock=swap.lock, predecessor=previous)
        t_ready = delivery.arrival + service
        t_free = self.core.udp.send(
            self.pid, swap.requester, CAT_MCS_TAIL, (swap.reply, reply),
            reply.nbytes(self.cost), t_ready=t_ready)
        self.proc.charge_service(t_free - t_ready)

    def _on_tail(self, delivery: Delivery) -> None:
        box, tail = delivery.payload
        box.put(tail, delivery.arrival + delivery.recv_cpu)

    # ------------------------------------------------------------------
    # Holder role
    # ------------------------------------------------------------------
    def _on_link(self, delivery: Delivery) -> None:
        link: McsLink = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        # McsLink is LockRequest-shaped; the inherited holder role
        # (queueing, duplicate suppression, grant) applies as-is.
        self._holder_receive(link, at=delivery.arrival + service,
                             charge_thread=False)
