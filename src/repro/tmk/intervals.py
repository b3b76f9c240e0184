"""Intervals, vector timestamps, and write notices.

Each processor's execution is divided into *intervals*, a new one beginning
at every synchronization operation.  Intervals are partially ordered by the
happens-before-1 relation; vector timestamps represent the partial order.
An interval that performed writes carries *write notices* -- the set of
pages it modified -- which invalidate remote copies when they propagate on
lock grants and barrier departures.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "IntervalId",
    "IntervalRecord",
    "NoticeIndex",
    "access_seen",
    "covers",
    "dominant_writers",
    "vc_max",
]

#: (creator processor, per-creator sequence number).
IntervalId = Tuple[int, int]


@dataclass(frozen=True)
class IntervalRecord:
    """One closed interval: who, when (vector time), and what it wrote."""

    creator: int
    seq: int
    #: The creator's vector time at interval close; ``vc[creator] == seq``.
    vc: Tuple[int, ...]
    #: Pages written during the interval (the write notices).
    pages: Tuple[int, ...]
    #: ``(creator, seq)``, precomputed: it keys every diff and request.
    id: IntervalId = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", (self.creator, self.seq))

    def precedes(self, other: "IntervalRecord") -> bool:
        """True if this interval happens-before ``other``.

        ``vc[p]`` counts closed intervals of ``p`` seen, so a cross-creator
        interval ``(c, s)`` is seen iff ``vc[c] > s``.
        """
        if self.creator == other.creator:
            return self.seq < other.seq
        return other.vc[self.creator] > self.seq


class NoticeIndex:
    """Every write notice of one run, filed once: page -> creator -> records.

    The creator appends each interval record here when it closes the
    interval; no other processor ever files it again.  A processor's
    *pending* notices for a page are derived on demand as "indexed records
    it knows and has not applied", so the index is a host-side
    acceleration only: what a processor sees is filtered by its own
    knowledge (which still travels in messages), and consulting the index
    never charges time or sends anything.
    """

    def __init__(self) -> None:
        #: page -> creator -> (seqs, records): that creator's records
        #: naming the page, in seq order, and their seqs to bisect on (a
        #: lock-based program can be far behind a writer's newest record).
        self._pages: Dict[int, Dict[int, Tuple[List[int],
                                               List[IntervalRecord]]]] = {}

    def add(self, record: IntervalRecord) -> None:
        pages = self._pages
        creator, seq = record.id
        for page in record.pages:
            by_creator = pages.get(page)
            if by_creator is None:
                pages[page] = {creator: ([seq], [record])}
            elif creator in by_creator:
                seqs, records = by_creator[creator]
                seqs.append(seq)
                records.append(record)
            else:
                by_creator[creator] = ([seq], [record])

    def pending(self, page: int, pid: int, known: Sequence[int],
                applied: Dict[int, int],
                take: bool = False) -> Dict[IntervalId, IntervalRecord]:
        """Foreign records naming ``page`` with ``applied[c] <= seq <
        known[c]``: known to processor ``pid``, diff not yet applied.

        ``applied`` is the processor's cursor for the page (per writer,
        the first seq not applied); ``take`` advances it past everything
        returned -- the caller is about to apply them all.
        """
        out: Dict[IntervalId, IntervalRecord] = {}
        for creator, (seqs, records) in self._pages.get(page, {}).items():
            hi = known[creator]
            lo = applied.get(creator, 0)
            if lo >= hi:
                continue
            if take:
                applied[creator] = hi
            if creator != pid:
                start = bisect_left(seqs, lo)
                for record in records[start:bisect_left(seqs, hi, start)]:
                    out[record.id] = record
        return out


def vc_max(a: Iterable[int], b: Iterable[int]) -> Tuple[int, ...]:
    """Component-wise maximum of two vector timestamps."""
    return tuple(map(max, a, b))


def access_seen(observer_vc, creator: int, seq: int) -> bool:
    """True if an access made in ``creator``'s (then-open) interval
    ``seq`` happens-before the current point of a processor whose vector
    time is ``observer_vc``.

    The access is ordered iff the observer has seen interval
    ``(creator, seq)`` *closed* -- i.e. a synchronization chain runs from
    the end of that interval to the observer (``vc[creator] > seq``).
    Accesses by the observer itself are ordered by program order; callers
    handle that case (the race detector compares distinct pids only).
    """
    return observer_vc[creator] > seq


def covers(record: IntervalRecord, iid: IntervalId) -> bool:
    """True if the creator of ``record`` is guaranteed to hold the diffs of
    interval ``iid``.

    A processor that closed interval ``record`` has seen (and therefore
    possesses the diffs of) every interval within ``record.vc``; its own
    intervals up to ``record.seq`` are trivially covered.
    """
    creator, seq = iid
    if creator == record.creator:
        return seq <= record.seq
    return record.vc[creator] > seq


def dominant_writers(
        needed: Dict[IntervalId, IntervalRecord]) -> Dict[int, List[IntervalId]]:
    """Choose which writers to ask for diffs, and for which intervals.

    "It is usually unnecessary to send diff requests to all the processors
    who have modified the page [...] TreadMarks sends diff requests to the
    subset of processors for which their most recent interval is not
    preceded by the most recent interval of another processor."

    Returns ``{writer -> [interval ids to request from it]}`` such that every
    needed interval is covered by exactly one chosen writer.  Deterministic:
    ties broken by processor id.
    """
    if not needed:
        return {}
    if len(needed) == 1:
        # One needed interval: its creator is trivially the only
        # (dominant) writer.  The general path below reduces to this.
        (iid,) = needed
        return {iid[0]: [iid]}
    # Latest needed interval per writer.
    latest: Dict[int, IntervalRecord] = {}
    for record in needed.values():
        cur = latest.get(record.creator)
        if cur is None or record.seq > cur.seq:
            latest[record.creator] = record
    # Usually one writer's latest interval follows every other writer's
    # (a lock chain, a barrier, or a single writer): that writer alone
    # covers everything.  Only it can have the largest vector-time sum.
    top = max(latest.values(), key=lambda record: sum(record.vc))
    if all(record is top or record.precedes(top)
           for record in latest.values()):
        return {top.creator: sorted(needed)}
    # Drop writers whose latest interval precedes another writer's latest.
    writers = sorted(latest)
    chosen: List[int] = []
    for w in writers:
        dominated = any(
            other != w and latest[w].precedes(latest[other])
            for other in writers)
        if not dominated:
            chosen.append(w)
    # Assign every needed interval to the lowest-numbered chosen writer that
    # covers it.
    assignment: Dict[int, List[IntervalId]] = {w: [] for w in chosen}
    for iid in sorted(needed):
        for w in chosen:
            if covers(latest[w], iid):
                assignment[w].append(iid)
                break
        else:  # pragma: no cover - protocol invariant
            raise AssertionError(f"no chosen writer covers interval {iid}")
    return {w: ids for w, ids in assignment.items() if ids}
