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
                                CAT_LOCK_REQUEST, LockGrant, LockRequest)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.tmk.api import TmkSystem
    from repro.tmk.consistency import LrcCore

__all__ = ["LockSubsystem"]

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
    """Per-processor lock logic (manager + holder + acquirer roles)."""

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
                      f"lock={lock}")
        box = proc.mailbox()
        request = LockRequest(lock=lock, requester=self.pid,
                              vc=tuple(self.core.vc), reply=box)
        manager = self.system.lock_manager(lock)
        if manager == self.pid:
            # We manage this lock: route straight to the last requester.
            self._route(request, at=proc.now, charge_thread=True)
        else:
            if obs is not None:
                obs.begin(proc.now, self.pid, "send", B_WIRE,
                          f"lock_request->P{manager}")
            t_free = self.core.udp.send(
                self.pid, manager, CAT_LOCK_REQUEST, request,
                request.nbytes(self.cost, self.nprocs), t_ready=proc.now)
            proc.set_now(t_free)
            if obs is not None:
                obs.end(proc.now, self.pid)
        grant: LockGrant = yield from box.wait(f"grant of lock {lock}")
        self.wait_time += proc.now - t_wait_start
        self.core.merge(grant.records, grant.vc, piggybacked=grant.diffs)
        state.awaiting = False
        state.owns = True
        state.holding = True
        if obs is not None:
            obs.end(proc.now, self.pid)
        proc.trace("lock_acquire",
                   f"lock={lock} from=P{grant.granter} "
                   f"notices={sum(len(r.pages) for r in grant.records)}")
        if self.core.sanitizer is not None:
            self.core.sanitizer.on_lock_acquired(self.pid, lock, grant)

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
