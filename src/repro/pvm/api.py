"""The PVM programming interface (pvm_send / pvm_recv and friends).

One :class:`Pvm` endpoint exists per simulated processor.  The interface
follows the paper's description of PVM 3.3:

* ``initsend`` creates a typed :class:`~repro.pvm.buffers.SendBuffer`;
* ``send`` is **non-blocking**: it dispatches the send buffer and returns
  as soon as the sender's CPU is free;
* ``recv`` is **blocking**: it waits for a matching message and returns a
  :class:`~repro.pvm.buffers.ReceiveBuffer`;
* ``nrecv`` is the non-blocking variant, returning ``None`` when no
  matching message has arrived yet;
* ``probe`` checks for a matching message without consuming it;
* ``mcast`` / ``bcast`` send one user-level message per destination (PVM 3
  multicast over direct routes degenerates to unicasts, which is what makes
  the all-to-all broadcast in Barnes-Hut saturate the ring).

Wildcards: ``src=-1`` and/or ``tag=-1`` match anything, earliest arrival
first, exactly like real PVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.obs.core import B_PROTOCOL, B_STALL_DATA, B_WIRE
from repro.pvm.buffers import DataFormat, ReceiveBuffer, SendBuffer
from repro.pvm.daemon import DaemonNetwork
from repro.sim.engine import Block, YIELD
from repro.sim.network import Delivery, TcpChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor

__all__ = ["Pvm", "PvmError", "attach_pvm"]

_CATEGORY = "pvm_msg"
#: Extra per-byte CPU for XDR encode/decode (disabled on homogeneous
#: clusters; the paper disables it).
_XDR_BYTE_CPU = 60e-9


class PvmError(RuntimeError):
    """Misuse of the PVM interface."""


@dataclass
class _Arrived:
    src: int
    tag: int
    segments: Tuple[Tuple[str, object], ...]
    fmt: DataFormat
    nbytes: int
    arrival: float
    recv_cpu: float


class Pvm:
    """Per-processor PVM endpoint (``proc.pvm``)."""

    def __init__(self, proc: "Processor", route: str = "direct",
                 daemons: Optional[DaemonNetwork] = None) -> None:
        if route not in ("direct", "daemon"):
            raise PvmError(f"unknown route {route!r}")
        if route == "daemon" and daemons is None:
            raise PvmError("daemon route requires a DaemonNetwork")
        self.proc = proc
        self.route = route
        self._daemons = daemons
        self._tcp = TcpChannel(proc.cluster.net, system="pvm")
        self._inbox: List[_Arrived] = []
        self._wait_spec: Optional[Tuple[int, int]] = None
        proc.register(_CATEGORY, self._on_message)

    # ------------------------------------------------------------------
    @property
    def mytid(self) -> int:
        """This process's task id (processor number)."""
        return self.proc.pid

    @property
    def nprocs(self) -> int:
        return self.proc.cluster.nprocs

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def initsend(self, fmt: DataFormat = DataFormat.RAW) -> SendBuffer:
        """Start a new send buffer (pvm_initsend)."""
        self.proc.compute(self.proc.cluster.cost.initsend_cpu)
        return SendBuffer(fmt)

    def send(self, dest: int, tag: int, buf: SendBuffer):
        """Dispatch ``buf`` to ``dest`` (non-blocking, pvm_send)."""
        yield from self._send_frozen(dest, tag, buf._freeze(), buf.fmt,
                                     buf.nbytes, buf.nitems)

    def mcast(self, dests: Sequence[int], tag: int, buf: SendBuffer):
        """Send to several destinations (pvm_mcast): one message each."""
        segments = buf._freeze()
        nbytes, nitems = buf.nbytes, buf.nitems
        for dest in dests:
            yield from self._send_frozen(dest, tag, segments, buf.fmt,
                                         nbytes, nitems)

    def bcast(self, tag: int, buf: SendBuffer):
        """Send to every *other* processor."""
        yield from self.mcast(
            [p for p in range(self.nprocs) if p != self.mytid], tag, buf)

    def _send_frozen(self, dest: int, tag: int, segments, fmt: DataFormat,
                     nbytes: int, nitems: int):
        if not (0 <= dest < self.nprocs):
            raise PvmError(f"bad destination tid {dest}")
        if dest == self.mytid:
            raise PvmError("PVM send to self is not used by these programs")
        proc = self.proc
        cost = proc.cluster.cost
        yield YIELD
        obs = proc.obs
        # Packing cost: one copy of the user data plus per-item overhead,
        # tripled per byte if XDR conversion is enabled.
        pack_cpu = cost.copy_cost(nbytes) + nitems * cost.pack_item_cpu
        if fmt is DataFormat.XDR:
            pack_cpu += nbytes * _XDR_BYTE_CPU
        if obs is not None:
            obs.begin(proc.now, proc.pid, "pack", B_PROTOCOL,
                      f"{nbytes}B tag={tag}")
        proc.compute(pack_cpu)
        if obs is not None:
            obs.end(proc.now, proc.pid)
            obs.begin(proc.now, proc.pid, "send", B_WIRE,
                      f"->P{dest} tag={tag} {nbytes}B")
        payload = (segments, fmt)
        if self.route == "direct":
            t_free = self._tcp.send(proc.pid, dest, _CATEGORY,
                                    (tag, payload), nbytes, t_ready=proc.now)
        else:
            assert self._daemons is not None
            t_free = self._daemons.forward(proc.pid, dest, _CATEGORY,
                                           (tag, payload), nbytes,
                                           t_ready=proc.now)
        proc.set_now(t_free)
        if obs is not None:
            obs.end(proc.now, proc.pid)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_message(self, delivery: Delivery) -> None:
        tag, (segments, fmt) = delivery.payload
        extra = 0.0
        if self.route == "daemon":
            # Destination-daemon processing plus the receive-side loopback
            # hop through the local pvmd (TCP stack per-byte costs again).
            cost = self.proc.cluster.cost
            per_byte = cost.copy_byte_cpu + cost.tcp_byte_cpu
            extra = 300e-6 + 2 * delivery.user_bytes * per_byte
        msg = _Arrived(src=delivery.src, tag=tag, segments=segments, fmt=fmt,
                       nbytes=delivery.user_bytes, arrival=delivery.arrival,
                       recv_cpu=delivery.recv_cpu + extra)
        if self.proc.events is not None:
            self.proc.events.message(delivery.src, self.proc.pid, tag,
                                     delivery.arrival)
        self._inbox.append(msg)
        if self._wait_spec is not None and self._matches(msg, *self._wait_spec):
            self._wait_spec = None
            self.proc.unblock(delivery.arrival)

    @staticmethod
    def _matches(msg: _Arrived, src: int, tag: int) -> bool:
        return (src == -1 or msg.src == src) and (tag == -1 or msg.tag == tag)

    def _take(self, src: int, tag: int) -> Optional[_Arrived]:
        for i, msg in enumerate(self._inbox):
            if self._matches(msg, src, tag):
                return self._inbox.pop(i)
        return None

    def recv(self, src: int = -1, tag: int = -1):
        """Blocking receive (pvm_recv); wildcards with ``-1``."""
        proc = self.proc
        yield YIELD
        obs = proc.obs
        if obs is not None:
            # PVM's sync-vs-data ambiguity in one span: whether this wait
            # is for a result or a go-ahead, it all lands in stall_data.
            obs.begin(proc.now, proc.pid, "pvm_recv", B_STALL_DATA,
                      f"src={src} tag={tag}")
        msg = self._take(src, tag)
        while msg is None:
            self._wait_spec = (src, tag)
            yield Block(f"pvm_recv(src={src}, tag={tag})",
                        ("any sender" if src == -1 else f"P{src}"))
            msg = self._take(src, tag)
        buf = self._consume(msg)
        if obs is not None:
            obs.end(proc.now, proc.pid)
        return buf

    def nrecv(self, src: int = -1, tag: int = -1):
        """Non-blocking receive (pvm_nrecv): ``None`` if nothing matched."""
        proc = self.proc
        yield YIELD
        msg = self._take(src, tag)
        if msg is None:
            return None
        return self._consume(msg)

    def probe(self, src: int = -1, tag: int = -1):
        """True if a matching message has arrived (pvm_probe)."""
        yield YIELD
        return any(self._matches(m, src, tag) for m in self._inbox)

    def _consume(self, msg: _Arrived) -> ReceiveBuffer:
        proc = self.proc
        if msg.arrival > proc.now:
            proc.set_now(msg.arrival)
        unpack_cpu = msg.recv_cpu
        if msg.fmt is DataFormat.XDR:
            unpack_cpu += msg.nbytes * _XDR_BYTE_CPU
        obs = proc.obs
        if obs is not None:
            obs.begin(proc.now, proc.pid, "unpack", B_PROTOCOL,
                      f"src=P{msg.src} tag={msg.tag} {msg.nbytes}B")
        proc.compute(unpack_cpu)
        if obs is not None:
            obs.end(proc.now, proc.pid)
        return ReceiveBuffer(msg.segments, msg.src, msg.tag, msg.fmt)

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Messages sitting in the inbox (diagnostics)."""
        return len(self._inbox)


def attach_pvm(cluster: "Cluster", route: str = "direct") -> List[Pvm]:
    """Create one :class:`Pvm` endpoint per processor (sets ``proc.pvm``)."""
    daemons = DaemonNetwork(cluster) if route == "daemon" else None
    endpoints = []
    for proc in cluster.procs:
        proc.pvm = Pvm(proc, route=route, daemons=daemons)
        endpoints.append(proc.pvm)
    return endpoints
