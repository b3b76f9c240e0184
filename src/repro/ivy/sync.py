"""Synchronization for the sequentially-consistent runtimes (IVY, SC-ABD).

Under sequential consistency, locks and barriers are *pure*
synchronization -- they carry no write notices, no vector timestamps, no
diffs.  The message patterns mirror the TreadMarks ones (static lock
managers with forwarding, a centralized barrier) so the protocols differ
only in what the paper studies: how memory consistency is maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.core import B_STALL_SYNC
from repro.sim.engine import Block, YIELD
from repro.sim.network import Delivery

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.ivy.core import DirectoryCore

__all__ = ["IvyBarrier", "IvyLocks"]

CAT_LOCK_REQ = "ivy_lock_request"
CAT_LOCK_FWD = "ivy_lock_forward"
CAT_LOCK_GRANT = "ivy_lock_grant"
CAT_BAR_ARRIVE = "ivy_barrier_arrival"
CAT_BAR_DEPART = "ivy_barrier_departure"

_SYNC_BYTES = 32
_LOCAL_CPU = 5e-6


def _sync_stall(proc: "Processor", kind: str, detail: str, body):
    """Run the generator ``body`` as one ``stall_sync`` span."""
    obs = proc.obs
    if obs is not None:
        obs.begin(proc.now, proc.pid, kind, B_STALL_SYNC, detail)
    yield from body
    if obs is not None:
        obs.end(proc.now, proc.pid)


@dataclass
class _LockState:
    owns: bool = False
    holding: bool = False
    awaiting: bool = False
    waiter: Optional[tuple] = None


class IvyLocks:
    """Static-manager forwarding locks (no consistency piggyback)."""

    def __init__(self, proc: "Processor", core: "DirectoryCore") -> None:
        self.proc = proc
        self.core = core
        self.pid = proc.pid
        #: Managers span only the application ranks: one on an SC-ABD
        #: replica server could crash and be masked, which would strand
        #: the synchronization state with it.
        self.nprocs = core.system.nclients
        self.cost = proc.cluster.cost
        self._last_requester: Dict[int, int] = {}
        self._state: Dict[int, _LockState] = {}
        self.wait_time = 0.0
        proc.register(CAT_LOCK_REQ, self._on_request)
        proc.register(CAT_LOCK_FWD, self._on_forward)
        proc.register(CAT_LOCK_GRANT, self._on_grant)

    def _lock_state(self, lock: int) -> _LockState:
        state = self._state.get(lock)
        if state is None:
            state = _LockState(owns=lock % self.nprocs == self.pid)
            self._state[lock] = state
        return state

    def acquire(self, lock: int):
        return _sync_stall(self.proc, "lock_acquire", f"lock={lock}",
                           self._acquire(lock))

    def _acquire(self, lock: int):
        proc = self.proc
        yield YIELD
        state = self._lock_state(lock)
        if state.holding:
            raise RuntimeError(f"P{self.pid}: recursive acquire of {lock}")
        if state.owns:
            state.holding = True
            proc.compute(_LOCAL_CPU)
            return
        box = proc.mailbox()
        request = (lock, self.pid, box)
        manager = lock % self.nprocs
        box.waiting_on = f"P{manager} (lock manager)"
        state.awaiting = True
        t0 = proc.now
        if manager == self.pid:
            self._route(request, at=proc.now)
        else:
            t = self.core.udp.send(self.pid, manager, CAT_LOCK_REQ, request,
                                   _SYNC_BYTES, t_ready=proc.now)
            proc.set_now(t)
        yield from box.wait(f"ivy lock {lock}")
        self.wait_time += proc.now - t0
        state.awaiting = False
        state.owns = True
        state.holding = True

    def release(self, lock: int):
        proc = self.proc
        yield YIELD
        state = self._lock_state(lock)
        if not state.holding:
            raise RuntimeError(f"P{self.pid}: release of unheld lock {lock}")
        state.holding = False
        proc.compute(_LOCAL_CPU)
        if state.waiter is not None:
            request, state.waiter = state.waiter, None
            state.owns = False
            self._grant(request, at=proc.now)

    # -- manager / holder handlers ---------------------------------------
    def _on_request(self, delivery: Delivery) -> None:
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._route(delivery.payload, at=delivery.arrival + service)

    def _route(self, request: tuple, at: float) -> None:
        lock, requester, box = request
        target = self._last_requester.get(lock, self.pid)
        self._last_requester[lock] = requester
        if target == self.pid:
            self._holder_receive(request, at)
        else:
            self.core.udp.send(self.pid, target, CAT_LOCK_FWD, request,
                               _SYNC_BYTES, t_ready=at)

    def _on_forward(self, delivery: Delivery) -> None:
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        self._holder_receive(delivery.payload, delivery.arrival + service)

    def _holder_receive(self, request: tuple, at: float) -> None:
        lock = request[0]
        state = self._lock_state(lock)
        if state.holding or state.awaiting or state.waiter is not None:
            if state.waiter is not None:
                raise AssertionError(f"P{self.pid}: two waiters on {lock}")
            state.waiter = request
        else:
            state.owns = False
            self._grant(request, at)

    def _grant(self, request: tuple, at: float) -> None:
        lock, requester, box = request
        if requester == self.pid:
            box.put(0, at)
            return
        self.core.udp.send(self.pid, requester, CAT_LOCK_GRANT, (box, 0),
                           _SYNC_BYTES, t_ready=at)

    def _on_grant(self, delivery: Delivery) -> None:
        box, _ = delivery.payload
        box.put(0, delivery.arrival + delivery.recv_cpu)


class IvyBarrier:
    """Centralized barrier, 2*(n-1) messages, no write notices."""

    def __init__(self, proc: "Processor", core: "DirectoryCore") -> None:
        self.proc = proc
        self.core = core
        self.pid = proc.pid
        self.nprocs = core.system.nclients
        self.cost = proc.cluster.cost
        self.manager = 0
        self._arrivals: Dict[int, List[Tuple[int, float]]] = {}
        self._manager_blocked: Dict[int, bool] = {}
        self._waiting = False
        self.wait_time = 0.0
        proc.register(CAT_BAR_ARRIVE, self._on_arrival)
        proc.register(CAT_BAR_DEPART, self._on_departure)

    def barrier(self, bid: int):
        return _sync_stall(self.proc, "barrier", f"bid={bid}",
                           self._barrier(bid))

    def _barrier(self, bid: int):
        proc = self.proc
        yield YIELD
        proc.compute(_LOCAL_CPU)
        if self.nprocs == 1:
            return
        events = proc.events
        if events is not None:
            events.barrier_arrive(self.pid, bid, proc.now)
        t0 = proc.now
        if self.pid == self.manager:
            arrivals = self._arrivals.setdefault(bid, [])
            if len(arrivals) == self.nprocs - 1:
                self._release(bid, max([proc.now] +
                                       [t for _, t in arrivals]))
            else:
                self._manager_blocked[bid] = True
                yield Block(f"ivy barrier {bid}",
                            "remaining barrier arrivals")
                self._manager_blocked[bid] = False
        else:
            t = self.core.udp.send(self.pid, self.manager, CAT_BAR_ARRIVE,
                                   (bid, self.pid), _SYNC_BYTES,
                                   t_ready=proc.now)
            proc.set_now(t)
            self._waiting = True
            yield Block(f"ivy barrier {bid}",
                        f"P{self.manager} (barrier manager)")
            self._waiting = False
        self.wait_time += proc.now - t0
        if events is not None:
            events.barrier_depart(self.pid, bid, proc.now)

    def _on_arrival(self, delivery: Delivery) -> None:
        bid, pid = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        arrivals = self._arrivals.setdefault(bid, [])
        arrivals.append((pid, delivery.arrival + service))
        if (len(arrivals) == self.nprocs - 1
                and self._manager_blocked.get(bid)):
            t_done = self._release(bid, max(t for _, t in arrivals))
            self.proc.unblock(t_done)

    def _release(self, bid: int, t_release: float) -> float:
        arrivals = self._arrivals.pop(bid)
        t = t_release
        for pid, _ in sorted(arrivals):
            t = self.core.udp.send(self.pid, pid, CAT_BAR_DEPART, bid,
                                   _SYNC_BYTES, t_ready=t)
        return t

    def _on_departure(self, delivery: Delivery) -> None:
        if not self._waiting:
            raise AssertionError(
                f"P{self.pid}: unexpected ivy barrier departure")
        self.proc.unblock(delivery.arrival + delivery.recv_cpu)
