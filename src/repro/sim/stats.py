"""Message and data accounting.

The paper's Table 2 counts, for an 8-processor run of each application:

* **TreadMarks** -- the *total number of UDP messages* (i.e. datagrams, after
  fragmentation at the TreadMarks MTU) and the *total amount of data*
  communicated (payload plus protocol headers);
* **PVM** -- the number of *user-level messages* and the amount of *user
  data* sent.

:class:`MessageStats` keeps both views.  Every transmission is recorded under
a :class:`StatKey` ``(system, category)`` so the per-mechanism breakdowns the
paper quotes in prose (synchronization messages vs. diff requests vs. diff
responses, etc.) can be reported too.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Tuple

__all__ = ["StatKey", "Counter", "MessageStats"]


class StatKey(NamedTuple):
    """Identifies one accounting bucket.

    ``system`` is ``"tmk"`` or ``"pvm"``; ``category`` names the protocol
    mechanism (``"barrier"``, ``"lock"``, ``"diff_request"``,
    ``"diff_response"``, ``"user_data"``, ...).

    A NamedTuple rather than a dataclass: one is constructed and hashed
    per recorded transmission, and tuple construction/hashing is several
    times cheaper than the dataclass equivalents.
    """

    system: str
    category: str


@dataclass
class Counter:
    """A (message count, byte count) pair."""

    messages: int = 0
    bytes: int = 0

    def add(self, messages: int, nbytes: int) -> None:
        self.messages += messages
        self.bytes += nbytes

    def __iadd__(self, other: "Counter") -> "Counter":
        self.messages += other.messages
        self.bytes += other.bytes
        return self


class MessageStats:
    """Aggregates message/byte counts for one simulated run."""

    def __init__(self) -> None:
        self._by_key: Dict[StatKey, Counter] = defaultdict(Counter)
        #: Per-(src, dst) message counts, for contention/saturation analysis.
        self._by_pair: Dict[Tuple[int, int], int] = defaultdict(int)

    def reset(self) -> None:
        """Discard everything recorded so far (start of measured window)."""
        self._by_key.clear()
        self._by_pair.clear()

    def snapshot(self) -> "MessageStats":
        """An independent copy (end of measured window)."""
        out = MessageStats()
        for key, counter in self._by_key.items():
            out._by_key[key] = Counter(counter.messages, counter.bytes)
        out._by_pair.update(self._by_pair)
        return out

    # ------------------------------------------------------------------
    def record(self, system: str, category: str, *, messages: int,
               nbytes: int, src: int = -1, dst: int = -1) -> None:
        """Record ``messages`` messages totalling ``nbytes`` bytes."""
        if messages < 0 or nbytes < 0:
            raise ValueError("negative message/byte count")
        self._by_key[StatKey(system, category)].add(messages, nbytes)
        if src >= 0 and dst >= 0:
            self._by_pair[(src, dst)] += messages

    def record_event(self, name: str, count: int) -> None:
        """Record ``count`` occurrences of a host-side event.

        Events live under the ``"analysis"`` pseudo-system with zero
        bytes, so they never mix into any real system's wire totals
        (``total("tmk")`` etc. are untouched).
        """
        if count < 0:
            raise ValueError("negative event count")
        self._by_key[StatKey("analysis", name)].add(count, 0)

    def events(self) -> Dict[str, int]:
        """name -> count map of recorded host-side events."""
        return {name: counter.messages
                for name, counter in self.by_category("analysis").items()}

    # ------------------------------------------------------------------
    def total(self, system: str) -> Counter:
        """Total messages/bytes recorded for one system."""
        out = Counter()
        for key, counter in self._by_key.items():
            if key.system == system:
                out += counter
        return out

    def by_category(self, system: str) -> Dict[str, Counter]:
        """Category -> counter map for one system (sorted by category)."""
        out: Dict[str, Counter] = {}
        for key in sorted(self._by_key, key=lambda k: (k.system, k.category)):
            if key.system == system:
                counter = self._by_key[key]
                out[key.category] = Counter(counter.messages, counter.bytes)
        return out

    def get(self, system: str, category: str) -> Counter:
        counter = self._by_key.get(StatKey(system, category), Counter())
        return Counter(counter.messages, counter.bytes)

    def categories(self, system: str) -> Iterable[str]:
        return sorted(k.category for k in self._by_key if k.system == system)

    def pair_messages(self) -> Dict[Tuple[int, int], int]:
        return dict(self._by_pair)

    def recovery(self) -> Dict[str, Counter]:
        """The failure detector's bucket (``heartbeat``).

        It lives under the ``"recovery"`` pseudo-system so the paper's
        per-system wire totals stay untouched; empty on a run with no
        crash scheduled.
        """
        return self.by_category("recovery")

    def replication(self) -> Dict[str, Counter]:
        """The SC-ABD quorum-replication buckets (``quorum_read``,
        ``quorum_read_reply``, ``quorum_write``, ``quorum_write_ack``,
        ``masked_failure``, plus reliability traffic on the replica
        links).

        They live under the ``"replication"`` pseudo-system -- like
        ``"recovery"`` and ``"analysis"`` -- so the paper's per-system
        wire totals stay untouched; all empty unless the cluster runs in
        failure-masking (``--replication.mode mask``) replication mode.
        """
        return self.by_category("replication")

    def reliability(self, system: str) -> Dict[str, Counter]:
        """The fault/reliability buckets for one system.

        ``retransmit`` and ``ack`` are real wire traffic (they also appear
        in :meth:`total`); ``drop`` and ``dup_suppress`` count events, with
        zero bytes.  All four are empty on a fault-free run.
        """
        out: Dict[str, Counter] = {}
        for category in ("drop", "retransmit", "dup_suppress", "ack"):
            counter = self._by_key.get(StatKey(system, category))
            if counter is not None:
                out[category] = Counter(counter.messages, counter.bytes)
        return out

    # ------------------------------------------------------------------
    def merge(self, other: "MessageStats") -> None:
        for key, counter in other._by_key.items():
            self._by_key[key] += counter
        for pair, count in other._by_pair.items():
            self._by_pair[pair] += count

    def summary(self, system: str) -> str:
        """Human-readable per-category breakdown."""
        lines = [f"{system} traffic:"]
        for category, counter in self.by_category(system).items():
            lines.append(
                f"  {category:<16} {counter.messages:>10d} msgs "
                f"{counter.bytes / 1024.0:>12.1f} KB")
        total = self.total(system)
        lines.append(
            f"  {'TOTAL':<16} {total.messages:>10d} msgs "
            f"{total.bytes / 1024.0:>12.1f} KB")
        return "\n".join(lines)
