"""FDDI ring model with UDP and TCP transport channels.

The physical layer is a single shared medium: while one frame occupies the
ring no other frame may start, so under load transmissions serialize and the
network saturates (the paper observes exactly this for Barnes-Hut under PVM
at 8 processors).  On top of the ring sit two transports:

* :class:`UdpChannel` -- datagrams with fragmentation at the TreadMarks MTU.
  Statistics count *datagrams* and *payload plus protocol headers*, matching
  how the paper accounts TreadMarks traffic.
* :class:`TcpChannel` -- reliable streams between process pairs.  Statistics
  count *user-level messages* and *user data bytes*, matching how the paper
  accounts PVM traffic (TCP/IP framing still occupies the wire, it is just
  not charged to the user-data column).

Delivery is asynchronous: the channel posts an engine event at the arrival
virtual time, which hands a :class:`Delivery` record to the destination
processor's registered handler for the message category.

Fault model and reliability
---------------------------
When the :class:`~repro.sim.cluster.Cluster` installs an *active*
:class:`~repro.sim.faults.FaultPlan`, the perfect medium becomes honest:

* **UDP** grows the user-level reliability protocol real TreadMarks had:
  per-flow sequence numbers, a positive acknowledgement per datagram,
  timer-driven retransmission with exponential backoff and a retry cap
  (raising :class:`~repro.sim.faults.TransportError` when a peer stays
  unreachable), duplicate suppression, and per-flow in-order release so
  the runtimes above keep their FIFO guarantees.
* **TCP** models the kernel's reliability: a dropped segment is
  retransmitted after the (coarse) kernel RTO, so applications never see
  loss -- only added latency and wire traffic.

Both paths account the new machinery under dedicated stats categories
(:data:`CAT_RETRANSMIT`, :data:`CAT_DROP`, :data:`CAT_DUP`, :data:`CAT_ACK`)
and emit it as ``drop`` / ``retransmit`` / ``partition_hold`` /
``dup_suppress`` events (:mod:`repro.sim.trace`).  With no plan (or an
inactive one) the original fault-free code paths run unchanged, byte for
byte.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.sim.costmodel import CostModel
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, TransportError
from repro.sim.stats import MessageStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Events

__all__ = [
    "CAT_ACK",
    "CAT_DROP",
    "CAT_DUP",
    "CAT_RETRANSMIT",
    "Delivery",
    "Link",
    "Network",
    "TcpChannel",
    "UdpChannel",
]

#: Stats categories for the reliability machinery (per system).
CAT_RETRANSMIT = "retransmit"
CAT_DROP = "drop"
CAT_DUP = "dup_suppress"
CAT_ACK = "ack"


@dataclass(slots=True)
class Delivery:
    """One message as seen by the destination processor.

    ``slots=True``: one Delivery exists per simulated datagram, making
    this the most-allocated record in the simulator; slots cut both the
    per-instance memory and the attribute-access cost on the hot
    deliver/handle path.
    """

    src: int
    dst: int
    category: str
    payload: Any
    #: Bytes of user/application data carried (excludes protocol headers).
    user_bytes: int
    #: Virtual time the last fragment arrived at the destination NIC.
    arrival: float
    #: CPU time the destination must spend to receive (all fragments).
    recv_cpu: float


class Link:
    """The shared FDDI ring: serializes frame transmissions."""

    def __init__(self, cost: CostModel) -> None:
        self._cost = cost
        self.busy_until = 0.0
        #: Total time the medium has been occupied (for utilization reports).
        self.occupied = 0.0
        #: The cluster's event stream (over-commitment diagnostics).
        self.events: Optional["Events"] = None

    def transmit(self, ready: float, frame_bytes: int) -> float:
        """Put one frame on the ring; returns its arrival time."""
        occupy = self._cost.wire_time(frame_bytes)
        if self._cost.shared_medium:
            start = max(ready, self.busy_until)
            self.busy_until = start + occupy
        else:
            start = ready
        self.occupied += occupy
        return start + self._cost.wire_latency + occupy

    def transmit_background(self, ready: float, frame_bytes: int) -> float:
        """A frame injected out of call order (kernel TCP retransmission).

        It occupies wire time for utilization accounting but does not push
        ``busy_until`` into the future: timer-driven retransmits happen far
        ahead of the current send path, and serializing subsequent frames
        behind them would let one early loss stall the whole ring model.
        """
        occupy = self._cost.wire_time(frame_bytes)
        self.occupied += occupy
        return ready + self._cost.wire_latency + occupy

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which the ring carried a frame.

        A shared medium can never be more than 100% occupied; a ratio
        above 1.0 means wire time was over-accounted (or ``elapsed``
        under-measured) and is surfaced instead of silently clamped.
        """
        if elapsed <= 0:
            return 0.0
        ratio = self.occupied / elapsed
        if ratio > 1.0 + 1e-9:
            detail = (f"occupied {self.occupied:.6f}s in {elapsed:.6f}s "
                      f"elapsed (ratio {ratio:.3f})")
            warnings.warn(f"FDDI ring over-committed: {detail}",
                          RuntimeWarning, stacklevel=2)
            if self.events is not None:
                self.events.link_overcommit(detail, elapsed)
        return min(1.0, ratio)


@dataclass(slots=True)
class _PendingSend:
    """Sender-side state for one unacknowledged reliable datagram."""

    system: str
    src: int
    dst: int
    seq: int
    category: str
    payload: Any
    nbytes: int
    recv_cpu: float
    attempts: int = 0
    acked: bool = False


class Network:
    """The ring plus delivery plumbing shared by both transports."""

    def __init__(self, engine: Engine, cost: CostModel, stats: MessageStats,
                 faults: Optional[FaultPlan] = None) -> None:
        self.engine = engine
        self.cost = cost
        self.stats = stats
        self.link = Link(cost)
        #: Active fault plan, or None for the perfect fault-free medium.
        self.faults = faults if faults is not None and faults.active else None
        #: The cluster's event stream (repro.sim.trace) or None; set by
        #: ``Cluster.subscribe``.
        self.events: Optional["Events"] = None
        #: Observability facade (repro.obs.core.Obs) or None; set by the
        #: cluster so transmissions appear as complete wire spans.
        self.obs: Optional[Any] = None
        self._deliver: Optional[Callable[[Delivery], None]] = None
        #: Optional interrupt-style CPU charge hook: (pid, seconds) -> None.
        self._charge: Optional[Callable[[int, float], None]] = None
        # FIFO guarantee per (src, dst): arrivals never go backwards.
        self._last_arrival: Dict[Tuple[int, int], float] = {}
        # -- reliable-UDP sublayer state (used only when faults are active)
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._pending: Dict[Tuple[int, int, int], _PendingSend] = {}
        self._recv_next: Dict[Tuple[int, int], int] = {}
        self._recv_buf: Dict[Tuple[int, int],
                             Dict[int, Tuple[_PendingSend, float]]] = {}
        self._ack_seq: Dict[Tuple[int, int], int] = {}
        self._tcp_seq: Dict[Tuple[int, int], int] = {}

    def attach(self, deliver: Callable[[Delivery], None],
               charge: Optional[Callable[[int, float], None]] = None) -> None:
        """Install the cluster's delivery dispatcher (and CPU charge hook)."""
        self._deliver = deliver
        self._charge = charge

    def _charge_cpu(self, pid: int, dt: float) -> None:
        if self._charge is not None and dt > 0:
            self._charge(pid, dt)

    def _post_delivery(self, delivery: Delivery) -> None:
        if self._deliver is None:
            raise RuntimeError("network not attached to a cluster")
        pair = (delivery.src, delivery.dst)
        floor = self._last_arrival.get(pair, 0.0)
        if delivery.arrival < floor:
            delivery.arrival = floor
        self._last_arrival[pair] = delivery.arrival
        deliver = self._deliver
        self.engine.post(delivery.arrival, lambda: deliver(delivery))

    # ------------------------------------------------------------------
    # Reliable-UDP sublayer (active fault plan only)
    # ------------------------------------------------------------------
    def reliable_udp_send(self, system: str, src: int, dst: int,
                          category: str, payload: Any, nbytes: int,
                          t_ready: float) -> float:
        """Send one datagram under the user-level reliability protocol.

        Returns the time the sender's CPU is free, exactly like the
        fault-free path; delivery, acknowledgement, and retransmission all
        proceed through posted engine events.
        """
        cost = self.cost
        pair = (src, dst)
        seq = self._send_seq.get(pair, 0)
        self._send_seq[pair] = seq + 1
        fragments = cost.udp_fragments(nbytes)
        wire_bytes = nbytes + fragments * cost.udp_header_bytes
        self.stats.record(system, category, messages=fragments,
                          nbytes=wire_bytes, src=src, dst=dst)
        pending = _PendingSend(
            system=system, src=src, dst=dst, seq=seq, category=category,
            payload=payload, nbytes=nbytes,
            recv_cpu=fragments * cost.udp_recv_cpu + cost.copy_cost(nbytes))
        self._pending[(src, dst, seq)] = pending
        return self._udp_attempt(pending, t_ready)

    def _udp_attempt(self, pending: _PendingSend, t_ready: float) -> float:
        """One physical transmission of a reliable datagram.

        Puts the fragments on the ring, applies the fault plan's verdict,
        and arms the retransmission timer.  Returns the send-CPU-done time.
        """
        cost = self.cost
        plan = self.faults
        assert plan is not None
        remaining = max(pending.nbytes, 0)
        fragments = cost.udp_fragments(pending.nbytes)
        t = t_ready
        last_arrival = 0.0
        for _ in range(fragments):
            chunk = min(remaining, cost.udp_mtu) if remaining else 0
            remaining -= chunk
            t += cost.udp_send_cpu + cost.copy_cost(chunk)
            arrival = self.link.transmit(t, chunk + cost.udp_header_bytes)
            last_arrival = max(last_arrival, arrival)
        verdict = plan.decide(pending.src, pending.dst, pending.category,
                              seq=pending.seq, attempt=pending.attempts,
                              now=t_ready)
        pending.attempts += 1
        if verdict.drop:
            self.stats.record(pending.system, CAT_DROP, messages=fragments,
                              nbytes=0)
            if self.events is not None:
                self.events.drop(pending.src,
                                 f"{pending.category} seq={pending.seq} "
                                 f"dst=P{pending.dst} "
                                 f"attempt={pending.attempts}", t)
        else:
            arrival = last_arrival + verdict.delay
            self.engine.post(arrival,
                             lambda a=arrival: self._udp_arrive(pending, a))
            if verdict.duplicate:
                dup_at = arrival + cost.wire_latency
                self.engine.post(dup_at,
                                 lambda a=dup_at: self._udp_arrive(pending, a))
        rto = plan.rto * (plan.rto_backoff ** (pending.attempts - 1))
        t_fire = t + rto
        self.engine.post(t_fire,
                         lambda tf=t_fire: self._udp_retransmit(pending, tf))
        if self.obs is not None and not verdict.drop:
            self.obs.wire(t_ready, last_arrival - t_ready, pending.src,
                          f"{pending.category}->P{pending.dst} "
                          f"{pending.nbytes}B")
        return t

    def _udp_retransmit(self, pending: _PendingSend, t_fire: float) -> None:
        """Retransmission timer body (runs as an engine event)."""
        key = (pending.src, pending.dst, pending.seq)
        if pending.acked or key not in self._pending:
            return
        plan = self.faults
        assert plan is not None
        t_clear = plan.partition_clear_time(pending.src, pending.dst, t_fire)
        if t_clear is not None:
            # A transient partition covers this flow right now.  Hold the
            # timer until the window heals instead of burning the retry
            # budget into a spurious TransportError: the peer is known to
            # come back, so the protocol waits it out (attempts unchanged).
            if self.events is not None:
                self.events.partition_hold(
                    pending.src, f"{pending.category} seq={pending.seq} "
                    f"dst=P{pending.dst} until={t_clear:.6f}", t_fire)
            self.engine.post(t_clear,
                             lambda tc=t_clear: self._udp_retransmit(
                                 pending, tc))
            return
        if pending.attempts >= plan.retry_cap:
            if self.engine.finished:
                # The application already finished; a straggling
                # acknowledgement no longer matters.
                del self._pending[key]
                return
            raise TransportError(
                f"P{pending.src} -> P{pending.dst}: {pending.category} "
                f"seq={pending.seq} unacknowledged after "
                f"{pending.attempts} attempts")
        cost = self.cost
        fragments = cost.udp_fragments(pending.nbytes)
        wire_bytes = pending.nbytes + fragments * cost.udp_header_bytes
        self.stats.record(pending.system, CAT_RETRANSMIT, messages=fragments,
                          nbytes=wire_bytes, src=pending.src, dst=pending.dst)
        if self.events is not None:
            self.events.retransmit(
                pending.src, f"{pending.category} seq={pending.seq} "
                f"dst=P{pending.dst} attempt={pending.attempts + 1}", t_fire)
        t_done = self._udp_attempt(pending, t_fire)
        # The retransmit is driven by a timer interrupt: its CPU time is
        # stolen from whatever the sender was doing, like SIGIO service.
        self._charge_cpu(pending.src, t_done - t_fire)

    def _udp_arrive(self, pending: _PendingSend, arrival: float) -> None:
        """Receiver side: acknowledge, suppress duplicates, release FIFO."""
        pair = (pending.src, pending.dst)
        # Always (re-)acknowledge -- the previous ACK may have been lost.
        self._send_ack(pending, arrival)
        nxt = self._recv_next.get(pair, 0)
        buf = self._recv_buf.setdefault(pair, {})
        if pending.seq < nxt or pending.seq in buf:
            self.stats.record(pending.system, CAT_DUP, messages=1, nbytes=0)
            if self.events is not None:
                self.events.dup_suppress(
                    pending.dst, f"{pending.category} seq={pending.seq} "
                    f"src=P{pending.src}", arrival)
            return
        buf[pending.seq] = (pending, arrival)
        while nxt in buf:
            ready, t_arr = buf.pop(nxt)
            nxt += 1
            self._post_delivery(Delivery(
                src=ready.src, dst=ready.dst, category=ready.category,
                payload=ready.payload, user_bytes=ready.nbytes,
                arrival=max(t_arr, arrival), recv_cpu=ready.recv_cpu))
        self._recv_next[pair] = nxt

    def _send_ack(self, pending: _PendingSend, t_ready: float) -> None:
        """Positive acknowledgement, itself subject to the fault plan."""
        plan = self.faults
        assert plan is not None
        cost = self.cost
        pair = (pending.dst, pending.src)  # ACK flows dst -> src
        ack_seq = self._ack_seq.get(pair, 0)
        self._ack_seq[pair] = ack_seq + 1
        frame = plan.ack_bytes + cost.udp_header_bytes
        t = t_ready + cost.udp_send_cpu
        self._charge_cpu(pending.dst, cost.udp_send_cpu)
        arrival = self.link.transmit(t, frame)
        self.stats.record(pending.system, CAT_ACK, messages=1, nbytes=frame,
                          src=pending.dst, dst=pending.src)
        verdict = plan.decide(pending.dst, pending.src, CAT_ACK,
                              seq=ack_seq, attempt=0, now=t_ready)
        if verdict.drop:
            self.stats.record(pending.system, CAT_DROP, messages=1, nbytes=0)
            if self.events is not None:
                self.events.drop(pending.dst,
                                 f"ack seq={pending.seq} dst=P{pending.src}",
                                 t)
            return
        key = (pending.src, pending.dst, pending.seq)
        self.engine.post(arrival + verdict.delay,
                         lambda: self._on_ack(key))

    def _on_ack(self, key: Tuple[int, int, int]) -> None:
        pending = self._pending.pop(key, None)
        if pending is not None:
            pending.acked = True
            self._charge_cpu(pending.src, self.cost.udp_recv_cpu)

    def cancel_pending_to(self, node: int) -> int:
        """Abandon every unacknowledged reliable datagram to/from ``node``.

        Called when a failure detector declares ``node`` dead and a
        higher layer masks the failure (quorum replication): the pending
        sends will never be acknowledged, and without cancellation their
        retransmission timers would eventually exhaust the retry cap and
        raise a spurious :class:`TransportError` long after the failure
        was already handled.  Returns the number of sends cancelled.
        """
        stale = [key for key, p in self._pending.items()
                 if p.src == node or p.dst == node]
        for key in stale:
            self._pending.pop(key).acked = True
        return len(stale)


class UdpChannel:
    """Datagram transport used by the TreadMarks runtime."""

    def __init__(self, net: Network, system: str = "tmk") -> None:
        self.net = net
        self.system = system

    def send(self, src: int, dst: int, category: str, payload: Any,
             nbytes: int, *, t_ready: float) -> float:
        """Transmit ``nbytes`` of payload as one or more datagrams.

        Returns the virtual time at which the *sender's CPU* is free again;
        the caller is responsible for charging that time to the sender.
        Delivery is posted for the arrival of the last fragment.  With an
        active fault plan the datagram travels under the user-level
        reliability protocol instead (see the module docstring).
        """
        if self.net.faults is not None:
            return self.net.reliable_udp_send(self.system, src, dst,
                                              category, payload, nbytes,
                                              t_ready)
        net = self.net
        cost = net.cost
        remaining = max(nbytes, 0)
        fragments = cost.udp_fragments(nbytes)
        if fragments == 1:
            # Fast path: almost every TreadMarks message fits one MTU.
            t = t_ready + cost.udp_send_cpu + cost.copy_cost(remaining)
            last_arrival = net.link.transmit(
                t, remaining + cost.udp_header_bytes)
        else:
            t = t_ready
            last_arrival = 0.0
            for _ in range(fragments):
                chunk = min(remaining, cost.udp_mtu) if remaining else 0
                remaining -= chunk
                t += cost.udp_send_cpu + cost.copy_cost(chunk)
                arrival = net.link.transmit(t, chunk + cost.udp_header_bytes)
                last_arrival = max(last_arrival, arrival)
        wire_bytes = nbytes + fragments * cost.udp_header_bytes
        net.stats.record(self.system, category,
                         messages=fragments, nbytes=wire_bytes,
                         src=src, dst=dst)
        obs = net.obs
        if obs is not None:
            obs.wire(t_ready, last_arrival - t_ready, src,
                     f"{category}->P{dst} {nbytes}B")
        net._post_delivery(Delivery(
            src=src, dst=dst, category=category, payload=payload,
            user_bytes=nbytes, arrival=last_arrival,
            recv_cpu=fragments * cost.udp_recv_cpu + cost.copy_cost(nbytes)))
        return t


class TcpChannel:
    """Stream transport used by the PVM runtime (direct connections)."""

    def __init__(self, net: Network, system: str = "pvm") -> None:
        self.net = net
        self.system = system

    def send(self, src: int, dst: int, category: str, payload: Any,
             nbytes: int, *, t_ready: float) -> float:
        """Transmit one user-level message of ``nbytes`` user data.

        Counts a single user message regardless of size (the paper's PVM
        accounting); the wire still carries it as MTU-sized segments subject
        to ring contention.  Returns sender-CPU-free time.

        With an active fault plan, per-segment loss is repaired by the
        simulated kernel: the segment is retransmitted after the TCP RTO
        (exponential backoff, retry cap), delaying delivery but never
        surfacing loss to the application.
        """
        cost = self.net.cost
        plan = self.net.faults
        remaining = max(nbytes, 0)
        segments = max(1, -(-remaining // cost.tcp_segment))
        t = t_ready + cost.tcp_send_cpu
        per_byte = cost.copy_byte_cpu + cost.tcp_byte_cpu
        last_arrival = 0.0
        for _ in range(segments):
            chunk = min(remaining, cost.tcp_segment) if remaining else 0
            remaining -= chunk
            t += chunk * per_byte
            arrival = self.net.link.transmit(t, chunk + cost.tcp_header_bytes)
            if plan is not None:
                arrival = self._faulty_segment(plan, src, dst, category,
                                               chunk, t, arrival)
            last_arrival = max(last_arrival, arrival)
        self.net.stats.record(self.system, category,
                              messages=1, nbytes=nbytes, src=src, dst=dst)
        obs = self.net.obs
        if obs is not None:
            obs.wire(t_ready, last_arrival - t_ready, src,
                     f"{category}->P{dst} {nbytes}B")
        self.net._post_delivery(Delivery(
            src=src, dst=dst, category=category, payload=payload,
            user_bytes=nbytes, arrival=last_arrival,
            recv_cpu=cost.tcp_recv_cpu + nbytes * per_byte))
        return t

    def _faulty_segment(self, plan: FaultPlan, src: int, dst: int,
                        category: str, chunk: int, t_sent: float,
                        arrival: float) -> float:
        """Apply the fault plan to one TCP segment; returns its final
        arrival time after any kernel retransmissions."""
        net = self.net
        cost = net.cost
        pair = (src, dst)
        seq = net._tcp_seq.get(pair, 0)
        net._tcp_seq[pair] = seq + 1
        frame = chunk + cost.tcp_header_bytes
        attempt = 0
        t_retry = t_sent
        while True:
            # Each physical transmission is judged at *its own* send time
            # (the original at t_sent, retransmissions at t_retry), so a
            # transient partition opening mid-retransmit is seen as a
            # partition rather than as an unexplained string of losses.
            # The PRNG key excludes `now`, so probabilistic draws for a
            # given (seq, attempt) are unchanged by this.
            t_now = t_retry
            verdict = plan.decide(src, dst, category, seq=seq,
                                  attempt=attempt, now=t_now)
            if attempt > 0:
                net.stats.record(self.system, CAT_RETRANSMIT, messages=1,
                                 nbytes=frame, src=src, dst=dst)
                if net.events is not None:
                    net.events.retransmit(
                        src, f"tcp {category} seg={seq} dst=P{dst} "
                        f"attempt={attempt + 1}", t_retry)
            if verdict.duplicate and not verdict.drop:
                # The kernel discards duplicate segments silently.
                net.stats.record(self.system, CAT_DUP, messages=1, nbytes=0)
            if not verdict.drop:
                return arrival + verdict.delay
            net.stats.record(self.system, CAT_DROP, messages=1, nbytes=0)
            if net.events is not None:
                net.events.drop(src, f"tcp {category} seg={seq} dst=P{dst} "
                                f"attempt={attempt + 1}", t_retry)
            t_clear = plan.partition_clear_time(src, dst, t_now)
            if t_clear is not None:
                # The drop came from a transient partition, not congestion:
                # the kernel keeps retransmitting after the window heals,
                # and the wait does not count against the give-up cap.
                if net.events is not None:
                    net.events.partition_hold(
                        src, f"tcp {category} seg={seq} dst=P{dst} "
                        f"until={t_clear:.6f}", t_now)
                t_retry = max(t_clear, t_retry)
                arrival = net.link.transmit_background(t_retry, frame)
                continue
            attempt += 1
            if attempt >= plan.retry_cap:
                raise TransportError(
                    f"P{src} -> P{dst}: TCP segment {seq} ({category}) "
                    f"lost {attempt} times, connection reset")
            t_retry += plan.tcp_rto * (plan.rto_backoff ** (attempt - 1))
            arrival = net.link.transmit_background(t_retry, frame)
