"""PVM 3.3 group operations (pvm_joingroup and friends).

Real PVM manages *dynamic process groups* through a group server: tasks
join and leave named groups, and group-wide operations -- barrier,
broadcast, reduce, gather -- address members by (group, instance) rather
than task id.  The paper's nine applications manage without groups (the
authors hand-roll their chains and broadcasts), but the API is part of
the PVM 3.3 surface this library reproduces, and the group server's
centralization is itself instructive: every group barrier costs
2*(members-1) messages through one server, just like TreadMarks'
centralized barrier.

The group server lives on task 0, mirroring PVM's single ``pvmgs``
process.  All group traffic is ordinary PVM-accounted messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List

import numpy as np

from repro.sim.engine import Block, YIELD
from repro.sim.network import Delivery, TcpChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor

__all__ = ["GroupError", "PvmGroups", "attach_groups"]

_CAT_REQUEST = "pvm_grp_request"
_CAT_REPLY = "pvm_grp_reply"
_CAT_DATA = "pvm_grp_data"

#: Fixed size of a group-server control message.
_CONTROL_BYTES = 48

_REDUCERS: Dict[str, Callable] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": np.minimum,
    "max": np.maximum,
}


class GroupError(RuntimeError):
    """Misuse of the group interface."""


@dataclass
class _GroupState:
    """Server-side state of one named group."""

    members: List[int] = field(default_factory=list)
    #: Barrier bookkeeping: waiting (pid, mailbox-reply address) pairs.
    barrier_waiters: List[tuple] = field(default_factory=list)
    barrier_target: int = 0


class PvmGroups:
    """Per-processor group endpoint (``proc.pvm.groups``)."""

    def __init__(self, proc: "Processor") -> None:
        self.proc = proc
        self._tcp = TcpChannel(proc.cluster.net, system="pvm")
        self._server_state: Dict[str, _GroupState] = {}
        #: Client-side cache: group -> my instance number.
        self._instances: Dict[str, int] = {}
        proc.register(_CAT_REQUEST, self._serve)
        proc.register(_CAT_REPLY, self._on_reply)
        proc.register(_CAT_DATA, self._on_data)
        self._data_queue: List[Delivery] = []
        self._data_waiting = False

    # ------------------------------------------------------------------
    # Client plumbing: synchronous request to the group server (task 0)
    # ------------------------------------------------------------------
    @property
    def _server(self) -> int:
        return 0

    def _rpc(self, op: str, *args):
        proc = self.proc
        yield YIELD
        box = proc.mailbox()
        if proc.pid == self._server:
            # Local call into the server, charged a small CPU cost.
            proc.compute(20e-6)
            reply = self._handle(op, proc.pid, *args)
            if reply is _DEFERRED:
                reply = yield from box.wait(f"deferred {op}")
            return reply
        t = self._tcp.send(proc.pid, self._server, _CAT_REQUEST,
                           (box, op, proc.pid, args), _CONTROL_BYTES,
                           t_ready=proc.now)
        proc.set_now(t)
        result = yield from box.wait(f"group server reply to {op}")
        return result

    def _serve(self, delivery: Delivery) -> None:
        box, op, pid, args = delivery.payload
        cost = self.proc.cluster.cost
        service = delivery.recv_cpu + cost.interrupt_cpu
        t_ready = delivery.arrival + service
        reply = self._handle(op, pid, *args, reply_to=(box, t_ready))
        if reply is _DEFERRED:
            self.proc.charge_service(service)
            return
        t_free = self._tcp.send(self.proc.pid, pid, _CAT_REPLY,
                                (box, reply), _CONTROL_BYTES, t_ready=t_ready)
        self.proc.charge_service(service + (t_free - t_ready))

    def _on_reply(self, delivery: Delivery) -> None:
        box, reply = delivery.payload
        box.put(reply, delivery.arrival + delivery.recv_cpu)

    # ------------------------------------------------------------------
    # Server logic
    # ------------------------------------------------------------------
    def _handle(self, op: str, pid: int, *args, reply_to=None):
        groups = self._server_state
        if op == "join":
            (name,) = args
            state = groups.setdefault(name, _GroupState())
            if pid in state.members:
                return state.members.index(pid)
            state.members.append(pid)
            return len(state.members) - 1
        if op == "leave":
            (name,) = args
            state = groups.get(name)
            if state is None or pid not in state.members:
                return -1
            state.members.remove(pid)
            return 0
        if op == "size":
            (name,) = args
            state = groups.get(name)
            return len(state.members) if state else 0
        if op == "members":
            (name,) = args
            state = groups.get(name)
            return tuple(state.members) if state else ()
        if op == "barrier":
            name, count = args
            state = groups.get(name)
            if state is None or pid not in state.members:
                raise GroupError(f"barrier by non-member {pid} of {name!r}")
            state.barrier_waiters.append((pid, reply_to))
            state.barrier_target = count
            if len(state.barrier_waiters) >= count:
                self._release_barrier(name, state)
                return _DEFERRED if reply_to else 0
            return _DEFERRED
        raise GroupError(f"unknown group op {op!r}")

    def _release_barrier(self, name: str, state: _GroupState) -> None:
        waiters, state.barrier_waiters = state.barrier_waiters, []
        t = max((rt[1] for _, rt in waiters if rt is not None), default=0.0)
        for pid, reply_to in waiters:
            if reply_to is None:
                # The server's own processor: woken via its local mailbox.
                continue
            box, _ = reply_to
            if pid == self.proc.pid:
                box.put(0, t)
                continue
            t = self._tcp.send(self.proc.pid, pid, _CAT_REPLY, (box, 0),
                               _CONTROL_BYTES, t_ready=t)

    # ------------------------------------------------------------------
    # Public API (the pvm_* group calls)
    # ------------------------------------------------------------------
    def joingroup(self, name: str):
        """Join ``name``; returns this task's instance number."""
        inst = yield from self._rpc("join", name)
        self._instances[name] = inst
        return inst

    def lvgroup(self, name: str):
        yield from self._rpc("leave", name)
        self._instances.pop(name, None)

    def gsize(self, name: str):
        size = yield from self._rpc("size", name)
        return size

    def getinst(self, name: str) -> int:
        if name not in self._instances:
            raise GroupError(f"not a member of {name!r}")
        return self._instances[name]

    def members(self, name: str):
        out = yield from self._rpc("members", name)
        return out

    def barrier(self, name: str, count: int):
        """Block until ``count`` members of ``name`` have called barrier."""
        if name not in self._instances:
            raise GroupError(f"barrier on {name!r} before joingroup")
        proc = self.proc
        yield YIELD
        box = proc.mailbox()
        if proc.pid == self._server:
            proc.compute(20e-6)
            result = self._handle("barrier", proc.pid, name, count,
                                  reply_to=(box, proc.now))
            if result is _DEFERRED:
                yield from box.wait(f"group barrier {name!r}")
            return
        t = self._tcp.send(proc.pid, self._server, _CAT_REQUEST,
                           (box, "barrier", proc.pid, (name, count)),
                           _CONTROL_BYTES, t_ready=proc.now)
        proc.set_now(t)
        yield from box.wait(f"group barrier {name!r}")

    # -- data-plane collectives ------------------------------------------
    def _send_data(self, dst: int, payload, nbytes: int):
        proc = self.proc
        yield YIELD
        t = self._tcp.send(proc.pid, dst, _CAT_DATA, payload, nbytes,
                           t_ready=proc.now)
        proc.set_now(t)

    def _on_data(self, delivery: Delivery) -> None:
        self._data_queue.append(delivery)
        if self._data_waiting:
            self._data_waiting = False
            self.proc.unblock(delivery.arrival + delivery.recv_cpu)

    def _recv_data(self):
        proc = self.proc
        yield YIELD
        while not self._data_queue:
            self._data_waiting = True
            yield Block("group data", None)
        delivery = self._data_queue.pop(0)
        if delivery.arrival > proc.now:
            proc.set_now(delivery.arrival)
        proc.compute(delivery.recv_cpu)
        return delivery.payload

    def reduce(self, name: str, values, op: str = "sum",
               root_instance: int = 0):
        """pvm_reduce: combine members' arrays at the root instance.

        Returns the combined array at the root, ``None`` elsewhere.
        """
        if op not in _REDUCERS:
            raise GroupError(f"unknown reduction {op!r}")
        members = yield from self.members(name)
        root = members[root_instance]
        values = np.asarray(values)
        if self.proc.pid == root:
            out = values.copy()
            for _ in range(len(members) - 1):
                _, arr = yield from self._recv_data()
                out = _REDUCERS[op](out, arr)
            return out
        yield from self._send_data(root, (self.proc.pid, values.copy()),
                                   values.nbytes)
        return None

    def gather(self, name: str, values, root_instance: int = 0):
        """pvm_gather: concatenate members' arrays at the root, ordered
        by instance number."""
        members = yield from self.members(name)
        root = members[root_instance]
        values = np.asarray(values)
        if self.proc.pid == root:
            parts = {self.proc.pid: values.copy()}
            for _ in range(len(members) - 1):
                pid, arr = yield from self._recv_data()
                parts[pid] = arr
            return [parts[pid] for pid in members]
        yield from self._send_data(root, (self.proc.pid, values.copy()),
                                   values.nbytes)
        return None

    def bcast(self, name: str, values):
        """pvm_bcast from this member to the whole group; every member
        (including the sender) returns the array."""
        members = yield from self.members(name)
        values = np.asarray(values)
        for pid in members:
            if pid != self.proc.pid:
                yield from self._send_data(
                    pid, (self.proc.pid, values.copy()), values.nbytes)
        return values.copy()

    def recv_bcast(self):
        _, arr = yield from self._recv_data()
        return arr


class _Deferred:
    """Sentinel: the server will answer later (barrier release)."""


_DEFERRED = _Deferred()


def attach_groups(cluster: "Cluster") -> List[PvmGroups]:
    """Create one group endpoint per processor (sets ``proc.pvm.groups``
    when a Pvm endpoint exists, else ``proc.groups``)."""
    endpoints = []
    for proc in cluster.procs:
        groups = PvmGroups(proc)
        if proc.pvm is not None:
            proc.pvm.groups = groups
        proc.groups = groups
        endpoints.append(groups)
    return endpoints
