"""Deterministic fault injection for the simulated network.

The paper's testbed is a *network of workstations*: TreadMarks runs over
raw UDP with a light-weight user-level reliability protocol, and PVM over
kernel TCP.  Neither medium is lossless in reality, so the simulator can
interpose a :class:`FaultPlan` between the transports and the FDDI ring
that drops, duplicates, reorders, and delays traffic -- plus per-node
"slow node" handicaps, *transient partitions* (a node unreachable for a
bounded window, then back), and *permanent crashes* (a node dies at a
virtual time and never returns; see :mod:`repro.sim.recovery` for the
failure detector built on top).

Determinism
-----------
Every decision is drawn from a PRNG keyed purely on *virtual-order*
quantities -- the plan seed, the (src, dst) flow, the message category,
the per-flow sequence number, and the transmission attempt -- never on
wall-clock time or on Python's randomized string hashing.  Two runs with
the same plan therefore make bit-for-bit identical decisions, so lossy
runs are exactly replayable; and because the retransmission attempt is
part of the key, a retried message gets a fresh draw instead of being
dropped forever.

The reliability protocol parameters (retransmit timeout, exponential
backoff, retry cap) ride along on the plan: they are only meaningful when
faults are active, since with a perfect medium the reliability sublayer
is bypassed entirely and accounting stays byte-identical to the fault-free
simulator.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Tuple

__all__ = ["FaultDecision", "FaultPlan", "TransportError"]

_MASK64 = (1 << 64) - 1


class TransportError(RuntimeError):
    """A message exhausted its retransmission budget (peer unreachable)."""


@dataclass(frozen=True)
class FaultDecision:
    """What the fault plan does to one transmission."""

    drop: bool = False
    duplicate: bool = False
    #: Extra delivery latency in virtual seconds (reorder/delay/slow-node).
    delay: float = 0.0


#: The no-op decision returned for traffic the plan does not touch.
_CLEAN = FaultDecision()


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, filtered schedule of network faults.

    Probabilities are per *message* for UDP datagrams (all fragments of a
    datagram live or die together) and per *segment* for TCP streams,
    which is where real loss happens in each stack.
    """

    seed: int = 0
    #: Probability a message/segment is dropped in the network.
    loss: float = 0.0
    #: Probability a delivered message arrives twice.
    duplicate: float = 0.0
    #: Probability a message is held back long enough to be overtaken.
    reorder: float = 0.0
    #: Probability a message picks up an extra queueing delay.
    delay: float = 0.0
    #: Uniform range (seconds) of the extra delay when it strikes.
    delay_range: Tuple[float, float] = (0.5e-3, 5e-3)
    #: Hold-back applied to reordered messages (a few frame times).
    reorder_delay: float = 1e-3
    #: Restrict probabilistic faults to these message categories
    #: (``None`` = every category).  Partitions, permanent crashes, and
    #: slow nodes always apply: a dead, unreachable, or slow host does
    #: not discriminate by payload.
    categories: Optional[FrozenSet[str]] = None
    #: Restrict probabilistic faults to one sender / receiver.
    src: Optional[int] = None
    dst: Optional[int] = None
    #: Restrict probabilistic faults to a virtual-time window [t0, t1).
    window: Optional[Tuple[float, float]] = None
    #: node -> extra per-message latency whenever that node sends/receives.
    slow_nodes: Tuple[Tuple[int, float], ...] = ()
    #: Transient partitions, ``(node, t0, t1)``: every message whose *send
    #: time* ``t`` satisfies ``t0 <= t < t1`` (``t1`` exclusive: a send at
    #: exactly ``t1`` goes through) is dropped, symmetrically -- both
    #: traffic *from* the partitioned node and traffic *to* it.  The node
    #: itself keeps computing and comes back at ``t1``; for a node that
    #: dies and never returns use :attr:`crash_at` instead.
    crash_windows: Tuple[Tuple[int, float, float], ...] = ()
    #: Permanent crashes, ``(node, t)``: at virtual time ``t`` the node's
    #: process dies -- its simulated thread is killed at its next runtime
    #: operation and every message sent at ``time >= t`` to or from it is
    #: dropped, forever.  At most one entry per node.  The cluster's
    #: failure detector (installed automatically) turns the resulting
    #: silence into a :class:`~repro.sim.recovery.NodeFailure` instead
    #: of a watchdog hang.
    crash_at: Tuple[Tuple[int, float], ...] = ()

    # -- user-level reliability protocol parameters ---------------------
    #: Initial retransmit timeout for the UDP reliability sublayer.
    rto: float = 2e-3
    #: Timeout multiplier per successive retry (exponential backoff).
    rto_backoff: float = 2.0
    #: Attempts before the transport gives up with :class:`TransportError`.
    retry_cap: int = 12
    #: Kernel TCP retransmission timeout (coarse, as in 1990s stacks).
    tcp_rto: float = 20e-3
    #: Payload bytes of a positive acknowledgement beyond the UDP header.
    ack_bytes: int = 8

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every comparison.
        if not (self.rto > 0 and self.tcp_rto > 0 and self.rto_backoff >= 1):
            raise ValueError("timeouts must be positive, backoff >= 1")
        lo, hi = self.delay_range
        if not (0.0 <= lo <= hi < math.inf
                and 0.0 <= self.reorder_delay < math.inf
                and self.ack_bytes >= 0):
            raise ValueError(
                "delay_range must be 0 <= lo <= hi, reorder_delay >= 0 "
                "(both finite) and ack_bytes >= 0")
        if self.retry_cap < 1:
            raise ValueError("retry_cap must be at least 1")
        # The last retransmit timeout of either transport must be a time:
        # ``float ** int`` raises OverflowError where ``*`` gives inf.
        timeouts = (self.rto, self.tcp_rto, self.rto_backoff)
        try:
            last = max(self.rto, self.tcp_rto) \
                * self.rto_backoff ** (self.retry_cap - 1)
        except OverflowError:
            last = math.inf
        if not all(map(math.isfinite, timeouts + (last,))):
            raise ValueError(
                "rto, tcp_rto and rto_backoff must be finite, and so must "
                "the last timeout, max(rto, tcp_rto) * rto_backoff ** "
                "(retry_cap - 1)")
        if isinstance(self.categories, (list, set, tuple)):
            object.__setattr__(self, "categories",
                               frozenset(self.categories))
        if isinstance(self.slow_nodes, Mapping):
            object.__setattr__(self, "slow_nodes",
                               tuple(sorted(self.slow_nodes.items())))
        object.__setattr__(self, "_slow", dict(self.slow_nodes))
        for node, t0, t1 in self.crash_windows:
            if node < 0:
                raise ValueError(f"transient partition node must be >= 0, "
                                 f"got {node}")
            if not 0.0 <= t0 < t1:
                raise ValueError(
                    f"transient partition window must satisfy 0 <= t0 < t1, "
                    f"got ({t0!r}, {t1!r})")
        if isinstance(self.crash_at, Mapping):
            object.__setattr__(self, "crash_at",
                               tuple(sorted(self.crash_at.items())))
        else:
            object.__setattr__(self, "crash_at",
                               tuple(sorted(self.crash_at)))
        seen = set()
        for node, t in self.crash_at:
            if node < 0 or not t >= 0.0:
                raise ValueError(
                    f"crash spec must be (node >= 0, time >= 0), "
                    f"got ({node!r}, {t!r})")
            if node in seen:
                raise ValueError(f"node {node} has more than one crash time")
            seen.add(node)

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True if this plan can perturb any traffic at all.

        An inactive plan is equivalent to no plan: the transports keep
        their fault-free fast path and accounting stays byte-identical.
        """
        return bool(self.loss or self.duplicate or self.reorder
                    or self.delay or self.slow_nodes or self.crash_windows
                    or self.crash_at)

    # ------------------------------------------------------------------
    def crash_time(self, node: int) -> Optional[float]:
        """The virtual time at which ``node`` dies, or ``None``."""
        for crashed, t in self.crash_at:
            if crashed == node:
                return t
        return None

    def partition_clear_time(self, src: int, dst: int,
                             now: float) -> Optional[float]:
        """When the transient partition covering this flow at ``now`` heals.

        Returns the latest ``t1`` over all :attr:`crash_windows` entries
        that cover ``src`` or ``dst`` at ``now``, or ``None`` if neither
        endpoint is transiently partitioned.  Permanent crashes
        (:attr:`crash_at`) are deliberately excluded: a retransmission into
        a dead-forever host must still burn the retry budget, whereas one
        into a bounded partition should be held until the window closes
        rather than spuriously exhausting the cap.
        """
        t_clear: Optional[float] = None
        for node, t0, t1 in self.crash_windows:
            if node in (src, dst) and t0 <= now < t1:
                t_clear = t1 if t_clear is None else max(t_clear, t1)
        return t_clear

    def _crashed(self, node: int, now: float) -> bool:
        for crashed, t0, t1 in self.crash_windows:
            if crashed == node and t0 <= now < t1:
                return True
        for crashed, t in self.crash_at:
            if crashed == node and now >= t:
                return True
        return False

    def _filtered(self, src: int, dst: int, category: str,
                  now: float) -> bool:
        """True if the probabilistic faults skip this transmission."""
        if self.categories is not None and category not in self.categories:
            return True
        if self.src is not None and src != self.src:
            return True
        if self.dst is not None and dst != self.dst:
            return True
        if self.window is not None and not (
                self.window[0] <= now < self.window[1]):
            return True
        return False

    def _key(self, src: int, dst: int, category: str, seq: int,
             attempt: int) -> int:
        """Stable 64-bit PRNG key; avoids ``hash(str)`` randomization."""
        key = self.seed & _MASK64
        cat = zlib.crc32(category.encode("utf-8"))
        for v in (src + 1, dst + 1, cat, seq, attempt):
            key = (key * 1000003 + (v & 0xFFFFFFFF)) & _MASK64
        return key

    def decide(self, src: int, dst: int, category: str, *, seq: int,
               attempt: int, now: float) -> FaultDecision:
        """The plan's verdict on one transmission attempt.

        ``seq`` is the transport's per-flow sequence number and ``attempt``
        the retransmission count, so every physical transmission gets an
        independent, reproducible draw.
        """
        if self._crashed(src, now) or self._crashed(dst, now):
            return FaultDecision(drop=True)
        slow = self._slow.get(src, 0.0) + self._slow.get(dst, 0.0)
        if self._filtered(src, dst, category, now):
            return FaultDecision(delay=slow) if slow else _CLEAN
        rng = random.Random(self._key(src, dst, category, seq, attempt))
        # Draw in a fixed order so each knob perturbs only its own fate.
        r_drop = rng.random()
        r_dup = rng.random()
        r_reorder = rng.random()
        r_delay = rng.random()
        extra = slow
        if r_reorder < self.reorder:
            extra += self.reorder_delay
        if r_delay < self.delay:
            lo, hi = self.delay_range
            extra += lo + (hi - lo) * rng.random()
        if r_drop < self.loss:
            return FaultDecision(drop=True, delay=extra)
        return FaultDecision(duplicate=r_dup < self.duplicate, delay=extra)
