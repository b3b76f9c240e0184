"""Dynamic data-race detection for the TreadMarks DSM.

The protocol already computes the happens-before-1 partial order: each
processor's execution is a sequence of *intervals* delimited by
synchronization operations, with ``LrcCore.vc`` the live vector
timestamp over closed intervals.  The detector follows the same
construction -- the coherence-model-aware happens-before check of
Butelle & Coti (PAPERS.md) -- but cannot reuse ``LrcCore.vc`` verbatim:
the protocol closes an interval only if it performed *writes* (a clean
interval produces no notices and advances no clock entry), so a
read-only epoch ordered by a barrier would look concurrent and produce
false read-write reports.  The sanitizer therefore keeps its own *sync
clock*, one vector per processor, driven by the same synchronization
events: a processor publishes (increments its own entry and snapshots
its vector) at every lock release and barrier arrival, and joins
(element-wise max) the publisher's snapshot when it consumes a lock
grant or a barrier departure.  The ordering convention is the
protocol's own: an access by ``p`` at sync epoch ``s`` (= publishes by
``p`` so far) is ordered before ``q``'s current point iff ``q`` has
joined a later publish of ``p``
(:func:`repro.tmk.intervals.access_seen` -- ``vc[p] > s``).  Findings
still name the protocol interval of each access for cross-reference
with traces.

State is FastTrack-like, held per *byte range* in a shadow map of
disjoint segments: the last write epoch plus a read set of one epoch per
processor.  The sanitizer subscribes to the cluster's event stream
(:mod:`repro.sim.trace`): every ``SharedArray.read``/``write``/``add``
emits its touched byte runs (the same runs that drive fault/twin
behaviour) as an ``access`` event,
tagged with the caller's source location and the processor's most recent
synchronization operation, so a finding names both access sites, the
page, and the nearest synchronization on each side.

Modes (``AnalysisConfig.race_check``):

* ``"report"`` -- collect :class:`RaceFinding` objects, deduplicated by
  (kind, page, sites); read them from :meth:`Sanitizer.race_report`;
* ``"strict"`` -- raise :class:`RaceError` at the second racy access.

The sanitizer is observational only: it never calls ``compute`` or sends
messages, so message/byte/time accounting is identical with it attached.
Intentionally unsynchronized accesses (e.g. TSP's stale best-bound
pruning) are annotated in the application with ``read_racy``/``get_racy``
and are exempt from the happens-before check (the false-sharing tracker,
a subscriber of its own, still counts them).
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.false_sharing import FalseSharingTracker
from repro.sim.trace import Subscriber
from repro.tmk.intervals import access_seen

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

__all__ = [
    "AnalysisConfig",
    "RaceError",
    "RaceFinding",
    "Sanitizer",
    "attach_sanitizer",
]


class RaceError(RuntimeError):
    """Raised under ``race_check="strict"`` at the moment the second of
    two unordered conflicting accesses executes."""


@dataclass(frozen=True)
class AnalysisConfig:
    """What to observe (hashable: participates in run-cache keys)."""

    #: "off", "report" (collect findings), or "strict" (raise RaceError).
    race_check: str = "off"
    #: Track per-page writer byte sets and diff-byte attribution.
    false_sharing: bool = False

    def __post_init__(self) -> None:
        if self.race_check not in ("off", "report", "strict"):
            raise ValueError(f"unknown race_check mode {self.race_check!r}")

    @property
    def enabled(self) -> bool:
        return self.race_check != "off" or self.false_sharing


@dataclass(frozen=True)
class AccessRecord:
    """One side of a race: who, where in the code, and when."""

    pid: int
    #: Sync-clock epoch at the time of access (publishes by ``pid`` so far).
    seq: int
    #: Protocol interval id ``(pid, LrcCore.vc[pid])``, for trace lookup.
    interval: Tuple[int, int]
    #: Source location of the application-level access.
    site: str
    #: The processor's most recent synchronization operation.
    sync: str
    write: bool

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return (f"P{self.pid} {kind} at {self.site}, interval "
                f"({self.interval[0]},{self.interval[1]}), after {self.sync}")


@dataclass(frozen=True)
class RaceFinding:
    """Two conflicting accesses not ordered by happens-before."""

    kind: str  # "write-write", "read-write", or "write-read"
    start: int
    end: int
    page: int
    array: str
    earlier: AccessRecord
    later: AccessRecord

    def describe(self) -> str:
        return (f"{self.kind} race on bytes [{self.start:#x},{self.end:#x}) "
                f"of page {self.page} ({self.array}):\n"
                f"  earlier: {self.earlier.describe()}\n"
                f"  later:   {self.later.describe()}")


class _Cell:
    """Shadow state for one byte range: last write + one read per pid."""

    __slots__ = ("write", "reads")

    def __init__(self, write: Optional[AccessRecord] = None,
                 reads: Optional[Dict[int, AccessRecord]] = None) -> None:
        self.write = write
        self.reads: Dict[int, AccessRecord] = reads if reads is not None else {}

    def clone(self) -> "_Cell":
        return _Cell(self.write, dict(self.reads))


class _ShadowMap:
    """Disjoint byte segments ``[start, end) -> _Cell`` over the shared
    segment, split on demand as accesses carve new boundaries."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._segs: List[List] = []  # [start, end, cell], sorted by start

    def cover(self, start: int, end: int) -> List[_Cell]:
        """Cells exactly tiling ``[start, end)``, splitting overlapping
        segments at the boundaries and creating empty cells for gaps."""
        out: List[_Cell] = []
        i = bisect_right(self._starts, start) - 1
        if i >= 0 and self._segs[i][1] <= start:
            i += 1
        if i < 0:
            i = 0
        pos = start
        while pos < end:
            if i < len(self._segs):
                s, e, cell = self._segs[i]
            else:
                s = end  # sentinel: everything remaining is a gap
            if s > pos:
                # Gap [pos, min(s, end)).
                gap_end = min(s, end)
                cell = _Cell()
                self._starts.insert(i, pos)
                self._segs.insert(i, [pos, gap_end, cell])
                out.append(cell)
                pos = gap_end
                i += 1
                continue
            # Segment starts at or before pos.
            if s < pos:
                # Split off the untouched left part.
                self._segs[i][1] = pos
                cell = cell.clone()
                i += 1
                self._starts.insert(i, pos)
                self._segs.insert(i, [pos, e, cell])
                s = pos
            if e > end:
                # Split off the untouched right part.
                self._segs[i][1] = end
                self._starts.insert(i + 1, end)
                self._segs.insert(i + 1, [end, e, cell.clone()])
                e = end
            out.append(self._segs[i][2])
            pos = e
            i += 1
        return out

    def segments(self) -> List[Tuple[int, int, _Cell]]:
        return [(s, e, c) for s, e, c in self._segs]


#: Runtime-layer path fragments skipped when attributing an access site.
#: Anchored under the ``repro`` package so application or test files in
#: similarly named directories are never skipped.
_SKIP_FRAGMENTS = tuple(
    os.sep + "repro" + os.sep + layer + os.sep
    for layer in ("tmk", "ivy", "scabd", "analysis", "sim")
)


class Sanitizer(Subscriber):
    """Cluster-global race check over the TreadMarks event stream.

    One instance per simulated run, observing every processor (the
    happens-before check compares accesses *across* processors);
    ``cores`` are the processors' ``LrcCore`` objects, whose vector time
    names each access's interval.
    """

    def __init__(self, cluster: "Cluster", config: AnalysisConfig,
                 cores, heap=None, fs=None) -> None:
        self.config = config
        self.cluster = cluster
        self.page_size = cluster.cost.page_size
        self.nprocs = cluster.nprocs
        self._cores = cores
        self._heap = heap
        self._shadow = _ShadowMap()
        self._last_sync: List[str] = ["<program start>"] * cluster.nprocs
        #: Sync clock: one vector per processor (see module docstring).
        self._svc: List[List[int]] = [[0] * cluster.nprocs
                                      for _ in range(cluster.nprocs)]
        #: (pid, lock) -> snapshot published at pid's last release of lock.
        self._lock_snapshot: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: id(LockGrant) -> releaser snapshot riding that grant.  The
        #: grant object is the HB edge's identity; entries are popped when
        #: the acquirer consumes the grant.
        self._grant_snapshot: Dict[int, Tuple[int, ...]] = {}
        #: (bid, episode) -> element-wise max of all arrival snapshots.
        self._barrier_acc: Dict[Tuple[int, int], List[int]] = {}
        self._barrier_arrivals: Dict[int, int] = {}
        self._barrier_departs: Dict[int, int] = {}
        self._site_cache: Dict[Tuple[object, int], str] = {}
        self._seen: set = set()
        #: Findings in detection order (deduplicated by site pair).
        self.findings: List[RaceFinding] = []
        #: Event counters (reported via MessageStats.record_event at finish).
        self.accesses_checked = 0
        self.runs_checked = 0
        #: The run's false-sharing tracker (a subscriber of its own), for
        #: the reports; None unless ``config.false_sharing``.
        self.fs = fs
        self._check = config.race_check != "off"
        self._strict = config.race_check == "strict"

    # ------------------------------------------------------------------
    # Event stream (emitted by the tmk layer; observational only)
    # ------------------------------------------------------------------
    def on_access(self, pid: int, runs, write: bool, racy: bool,
                  time: float) -> None:
        """One ``SharedArray`` access: ``runs`` are the touched byte
        ranges, exactly as reported to the fault layer."""
        if not runs:
            return
        self.accesses_checked += 1
        self.runs_checked += len(runs)
        if not self._check or racy:
            return
        svc = self._svc[pid]
        record = AccessRecord(pid=pid, seq=svc[pid],
                              interval=(pid, self._cores[pid].vc[pid]),
                              site=self._call_site(),
                              sync=self._last_sync[pid], write=write)
        for start, nbytes in runs:
            for cell in self._shadow.cover(start, start + nbytes):
                self._check_cell(cell, record, svc, start, start + nbytes)

    def note_sync(self, pid: int, desc: str) -> None:
        """A synchronization operation completed on ``pid`` (used for the
        'nearest synchronization' attribution in findings)."""
        self._last_sync[pid] = desc

    # ------------------------------------------------------------------
    # Sync clock (driven by the lock and barrier subsystems)
    # ------------------------------------------------------------------
    def _publish(self, pid: int) -> Tuple[int, ...]:
        vc = self._svc[pid]
        vc[pid] += 1
        return tuple(vc)

    def _join(self, pid: int, snapshot) -> None:
        vc = self._svc[pid]
        for i, s in enumerate(snapshot):
            if s > vc[i]:
                vc[i] = s

    def on_lock_release(self, pid: int, lock: int, time: float) -> None:
        """``pid`` released ``lock``: publish, and remember the snapshot
        for the grant that will carry this release to the next holder."""
        self._lock_snapshot[(pid, lock)] = self._publish(pid)
        self.note_sync(pid, f"lock_release({lock})")

    def on_lock_grant(self, pid: int, lock: int, requester: int, grant,
                      time: float) -> None:
        """A grant left ``pid``: attach the snapshot of its last release
        of ``lock`` (None if it never released it -- the initial owner
        granting a never-acquired lock creates no HB edge)."""
        snapshot = self._lock_snapshot.get((pid, lock))
        if snapshot is not None:
            self._grant_snapshot[id(grant)] = snapshot

    def on_lock_acquired(self, pid: int, lock: int, grant,
                         time: float) -> None:
        """``pid`` holds ``lock``; join the granting release's snapshot
        (no-op for the free local re-acquire: program order suffices)."""
        if grant is not None:
            snapshot = self._grant_snapshot.pop(id(grant), None)
            if snapshot is not None:
                self._join(pid, snapshot)
        self.note_sync(pid, f"lock_acquire({lock})")

    def on_barrier_arrive(self, pid: int, bid: int, time: float) -> None:
        """``pid`` arrived at barrier ``bid``: publish into the episode's
        accumulator.  The engine is cooperative and every thread arrives
        before any departs, so the accumulator is complete by first use."""
        count = self._barrier_arrivals.get(bid, 0)
        self._barrier_arrivals[bid] = count + 1
        key = (bid, count // self.nprocs)
        snapshot = self._publish(pid)
        acc = self._barrier_acc.get(key)
        if acc is None:
            self._barrier_acc[key] = list(snapshot)
        else:
            for i, s in enumerate(snapshot):
                if s > acc[i]:
                    acc[i] = s

    def on_barrier_release(self, pid: int, bid: int, role: str,
                           time: float) -> None:
        """``pid`` left barrier ``bid``: join every arrival's snapshot."""
        count = self._barrier_departs.get(bid, 0)
        self._barrier_departs[bid] = count + 1
        key = (bid, count // self.nprocs)
        self._join(pid, self._barrier_acc[key])
        if (count + 1) % self.nprocs == 0:
            del self._barrier_acc[key]
        self.note_sync(pid, f"barrier({bid})")

    # ------------------------------------------------------------------
    # Happens-before check (FastTrack-style epochs per shadow cell)
    # ------------------------------------------------------------------
    def _check_cell(self, cell: _Cell, rec: AccessRecord, svc,
                    start: int, end: int) -> None:
        """``svc`` is the accessor's live sync-clock vector; a prior
        access at epoch ``seq`` is ordered iff ``svc[its pid] > seq``."""
        w = cell.write
        if rec.write:
            if w is not None and w.pid != rec.pid and \
                    not access_seen(svc, w.pid, w.seq):
                self._report("write-write", w, rec, start, end)
            for q, r in cell.reads.items():
                if q != rec.pid and not access_seen(svc, q, r.seq):
                    self._report("read-write", r, rec, start, end)
            cell.write = rec
            if cell.reads:
                cell.reads = {}
        else:
            if w is not None and w.pid != rec.pid and \
                    not access_seen(svc, w.pid, w.seq):
                self._report("write-read", w, rec, start, end)
            cell.reads[rec.pid] = rec

    def _report(self, kind: str, earlier: AccessRecord, later: AccessRecord,
                start: int, end: int) -> None:
        key = (kind, earlier.pid, earlier.site, later.pid, later.site,
               start // self.page_size)
        if key in self._seen:
            return
        self._seen.add(key)
        finding = RaceFinding(kind=kind, start=start, end=end,
                              page=start // self.page_size,
                              array=self.array_at(start),
                              earlier=earlier, later=later)
        self.findings.append(finding)
        if self._strict:
            raise RaceError(finding.describe())

    # ------------------------------------------------------------------
    # Attribution helpers
    # ------------------------------------------------------------------
    def _call_site(self) -> str:
        """Source location of the first frame outside the DSM runtime."""
        frame = sys._getframe(2)
        while frame is not None:
            filename = frame.f_code.co_filename
            if not any(part in filename for part in _SKIP_FRAGMENTS):
                break
            frame = frame.f_back
        if frame is None:  # pragma: no cover - app frame always exists
            return "<unknown>"
        key = (frame.f_code, frame.f_lineno)
        site = self._site_cache.get(key)
        if site is None:
            short = "/".join(frame.f_code.co_filename.split(os.sep)[-2:])
            site = f"{short}:{frame.f_lineno} ({frame.f_code.co_name})"
            self._site_cache[key] = site
        return site

    def array_at(self, addr: int) -> str:
        """Name of the named shared allocation covering ``addr``."""
        if self._heap is not None:
            for name, (base, shape, dtype) in self._heap._named.items():
                nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                if base <= addr < base + nbytes:
                    return f"array {name!r}"
        return "unnamed allocation"

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def summary(self) -> str:
        lines = [
            "sanitizer:",
            f"  mode              {self.config.race_check}"
            f"{' + false-sharing' if self.fs is not None else ''}",
            f"  accesses checked  {self.accesses_checked}",
            f"  byte runs         {self.runs_checked}",
            f"  races found       {len(self.findings)}",
        ]
        return "\n".join(lines)

    def race_report(self) -> str:
        if not self.findings:
            return "race check: no data races detected"
        parts = [f"race check: {len(self.findings)} finding(s)"]
        parts += [f.describe() for f in self.findings]
        return "\n\n".join(parts)

    def false_sharing_report(self) -> str:
        if self.fs is None:
            return "false-sharing analysis not enabled"
        return self.fs.report(array_name=self.array_at)

    def finish(self, stats) -> None:
        """Record event counters into the run's statistics (under the
        'analysis' pseudo-system: never mixed into wire totals)."""
        stats.record_event("san_accesses", self.accesses_checked)
        stats.record_event("san_races", len(self.findings))
        if self.fs is not None:
            stats.record_event("san_diff_bytes_false",
                               self.fs.total_false_bytes())


def attach_sanitizer(cluster: "Cluster", endpoints,
                     config: AnalysisConfig) -> Sanitizer:
    """Subscribe a sanitizer (and, if configured, a false-sharing
    tracker) to a TreadMarks cluster's event stream.

    ``endpoints`` is the list returned by ``attach_tmk``.  Only the
    TreadMarks runtime carries the vector timestamps the happens-before
    check needs; attaching to PVM or IVY runs is a caller error.
    """
    fs = None
    if config.false_sharing:
        fs = FalseSharingTracker(cluster.cost.page_size)
        cluster.subscribe(fs)
    sanitizer = Sanitizer(cluster, config, [tmk.core for tmk in endpoints],
                          heap=endpoints[0].system.heap if endpoints else None,
                          fs=fs)
    cluster.subscribe(sanitizer)
    return sanitizer
