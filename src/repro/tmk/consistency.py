"""The lazy release consistency (LRC) core.

One :class:`LrcCore` per processor.  It owns:

* the processor's paged copy of the shared segment (:class:`PageTable`);
* its vector time and the interval records it knows about, one list per
  creator (a creator's seqs are contiguous: write-free intervals make no
  record, and every sender ships a suffix of what it knows);
* *pending write notices*: for each invalidated page, the intervals whose
  diffs have not yet been fetched.  They are not stored: the run's one
  :class:`NoticeIndex` (``system.notices``) files each record once, by
  its creator, and ``_pending`` derives a page's set at fault time from
  this processor's knowledge and its per-page ``_applied`` cursor;
* the *diff cache*: every diff this processor created or received.  The
  protocol invariant -- "if a processor has modified a page during an
  interval then it must have all the diffs of all intervals that precede
  it" -- holds because a write to an invalidated page first faults and
  fetches all pending diffs.

Consistency information moves only at synchronization (lock grant, barrier
departure) as batches of :class:`IntervalRecord`; data moves only on demand
(page fault -> diff request/response), exactly the separation the paper
identifies as the root of TreadMarks' extra messages.

Substitution note (see DESIGN.md): diffs are *created eagerly* when an
interval closes and *fetched lazily* on fault.  Message counts and byte
volumes match the lazy-invalidate protocol; eager creation pins diff
contents at the causally-correct point, which is necessary because
simulated processors can run ahead of one another in virtual time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.core import B_PROTOCOL, B_STALL_DATA
from repro.sim.engine import YIELD
from repro.sim.network import Delivery
from repro.tmk.diffs import Diff, coalesce, make_diffs
from repro.tmk.intervals import (IntervalId, IntervalRecord, dominant_writers,
                                 vc_max)
from repro.tmk.protocol import (CAT_DIFF_REQUEST, CAT_DIFF_RESPONSE,
                                CAT_ERC_NOTICE, DiffRequest, DiffResponse,
                                ErcNotice)
from repro.tmk.sharedmem import DsmCore

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.tmk.api import TmkSystem

__all__ = ["LrcCore"]


def _union_bytes(diffs: List[Diff]) -> int:
    """Distinct page bytes covered by a set of same-page diffs."""
    spans = sorted((offset, offset + len(data))
                   for diff in diffs for offset, data in diff.runs)
    total = 0
    end = -1
    for lo, hi in spans:
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class LrcCore(DsmCore):
    """Per-processor LRC state machine and diff server."""

    def __init__(self, proc: "Processor", system: "TmkSystem") -> None:
        super().__init__(proc, system)
        self.nprocs = proc.cluster.nprocs
        #: The page-op kernel backend (repro.kernels); host-side speed
        #: only -- every backend is byte-identical to the pure reference.
        self.kernels = proc.cluster.kernels

        #: Vector time: ``vc[p]`` = number of closed intervals of p this
        #: processor has seen (own entry: number of own closed intervals).
        self.vc: List[int] = [0] * self.nprocs
        #: Known records per creator, contiguous in seq from 0: record
        #: ``(c, s)`` is ``known[c][s]``, and ``_next[c]`` (its length) is
        #: the first seq of creator c not known.
        self.known: List[List[IntervalRecord]] = [[] for _ in range(self.nprocs)]
        self._next: List[int] = [0] * self.nprocs
        #: page -> {writer -> first seq not applied}: with ``_next``, the
        #: window of ``system.notices`` still awaiting a diff fetch.
        self._applied: Dict[int, Dict[int, int]] = defaultdict(dict)
        #: (interval id, page) -> diff, never evicted: like the paper's
        #: TreadMarks, this one never collects garbage.
        self.diff_cache: Dict[Tuple[IntervalId, int], Diff] = {}
        #: Locally-created diffs whose creation CPU has not been charged
        #: yet (charged at first service, mirroring lazy diff creation).
        self._uncharged: set = set()

        # Diagnostics the tests and benchmark prose reports rely on.
        self.fault_count = 0
        self.diffs_applied = 0
        self.diff_bytes_applied = 0
        self.fault_wait_time = 0.0
        #: Faults avoided because a grant piggybacked the needed diffs.
        self.piggyback_hits = 0

        self.eager = system.config.protocol == "eager"
        proc.register(CAT_DIFF_REQUEST, self._on_diff_request)
        proc.register(CAT_DIFF_RESPONSE, self._on_diff_response)
        if self.eager:
            proc.register(CAT_ERC_NOTICE, self._on_erc_notice)

    # ------------------------------------------------------------------
    # Interval management
    # ------------------------------------------------------------------
    def close_interval(self) -> Optional[IntervalRecord]:
        """Close the current interval if it performed any writes.

        Creates the interval's diffs (against the twins), records its write
        notices, and advances this processor's vector-time entry.  Called at
        lock acquire, lock release, and barrier arrival.
        """
        dirty = self.pt.dirty_pages()
        if not dirty:
            return None
        seq = self.vc[self.pid]
        # One batched comparison for the whole interval's dirty pages.
        diffs = make_diffs(dirty, [self.pt.page_view(p) for p in dirty],
                           [self.pt.twin(p) for p in dirty],
                           backend=self.kernels)
        record = IntervalRecord(creator=self.pid, seq=seq,
                                vc=tuple(self.vc), pages=tuple(dirty))
        for page, diff in zip(dirty, diffs):
            self.pt.drop_twin(page)
            self.diff_cache[(record.id, page)] = diff
            # CPU accounting is deferred to first service: real TreadMarks
            # creates a diff lazily, when it is first requested, so pages
            # whose diffs nobody fetches cost no diffing time.  (The diff
            # *contents* are pinned here; see the eager-creation note in
            # the module docstring.)
            self._uncharged.add((record.id, page))
        events = self.proc.events
        if events is not None:
            events.interval_close(self.pid, record, dirty, self.proc.now)
        self._learn(record)
        self.system.notices.add(record)
        self.vc[self.pid] = seq + 1
        obs = self.proc.obs
        if obs is not None:
            obs.instant(self.proc.now, self.pid, "interval_close",
                        f"seq={seq} npages={len(dirty)}")
        if self.eager:
            self._broadcast_notice(record)
        return record

    def _broadcast_notice(self, record: IntervalRecord) -> None:
        """Eager RC: push this interval's write notices to everyone now
        (Munin-style), instead of waiting for the next acquire."""
        notice = ErcNotice(record=record, creator_count=self.vc[self.pid])
        for peer in range(self.nprocs):
            if peer != self.pid:
                self.proc.send(self.udp, peer, CAT_ERC_NOTICE, notice,
                               notice.nbytes(self.cost, self.nprocs))

    def _on_erc_notice(self, delivery: Delivery) -> None:
        notice: ErcNotice = delivery.payload
        record = notice.record
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        if not self._learn(record):
            return
        self.pt.invalidate_pages(record.pages, allow_dirty=True)
        # Only the sender's own entry advances: per-pair FIFO guarantees
        # we hold all of its earlier records; third-party knowledge still
        # flows through synchronization.
        if notice.creator_count > self.vc[record.creator]:
            self.vc[record.creator] = notice.creator_count

    def _learn(self, record: IntervalRecord) -> bool:
        """File ``record`` under its creator; False if already known."""
        behind = record.seq - self._next[record.creator]
        if behind < 0:
            return False
        if behind:
            raise AssertionError(
                f"P{self.pid}: out-of-order interval record {record.id}")
        self.known[record.creator].append(record)
        self._next[record.creator] += 1
        return True

    def records_since(self, their_vc: Tuple[int, ...]) -> List[IntervalRecord]:
        """All known records the holder of ``their_vc`` has not seen."""
        out: List[IntervalRecord] = []
        for records, seen, nxt in zip(self.known, their_vc, self._next):
            # Seqs are contiguous from 0, so the unseen ones are the last few.
            if seen < nxt:
                out.extend(records[seen:])
        return out

    def _pending(self, page: int,
                 take: bool = False) -> Dict[IntervalId, IntervalRecord]:
        """Write notices for ``page`` this processor knows of but whose
        diffs it has not applied; ``take`` marks them all as being
        applied now.  Derived, so compute it once per fetch round."""
        return self.system.notices.pending(
            page, self.pid, self._next, self._applied[page], take)

    def merge(self, records: List[IntervalRecord],
              their_vc: Tuple[int, ...],
              piggybacked: Optional[Dict] = None) -> None:
        """Incorporate write notices received at an acquire.

        Invalidates locally-cached pages named by unseen records and updates
        the vector time.  Must run with an empty dirty set (the caller
        closes its interval before any acquire), which the page table
        asserts -- except under eager RC, where asynchronous notices may
        already have invalidated pages mid-interval.

        ``piggybacked`` is the optional ``{(interval id, page): diff}``
        data a lock grant carried (the paper's future-work optimization);
        pages whose entire pending set it satisfies are patched and
        revalidated on the spot, saving the later fault round trip.
        """
        learn, pid = self._learn, self.pid
        fresh = [r for r in records if learn(r) and r.creator != pid]
        for record in fresh:
            self.pt.invalidate_pages(record.pages, self.eager)
        vc_before = self.vc
        self.vc = list(vc_max(vc_before, their_vc))
        events = self.proc.events
        if events is not None:
            # ``vc`` is rebound, never mutated here: the old list is the
            # before-image.
            events.merge(pid, records, their_vc, tuple(vc_before),
                         tuple(self.vc), self.proc.now)
        if piggybacked:
            self._apply_piggybacked(
                {page for record in fresh for page in record.pages},
                piggybacked)

    def _apply_piggybacked(self, pages: set, piggybacked: Dict) -> None:
        """Patch and revalidate pages fully satisfied by grant data."""
        events = self.proc.events
        by_page: Dict[int, Dict] = {}
        for (iid, page), diff in piggybacked.items():
            by_page.setdefault(page, {})[iid] = diff
        for page in sorted(pages):
            needed = self._pending(page)
            if not needed:
                continue
            available = by_page.get(page, {})
            if not set(needed).issubset(available):
                continue  # some writer's diff missing: fault later
            packed = []
            cpu = 0.0
            for iid in sorted(needed,
                              key=lambda i: (needed[i].vc, i[0])):
                diff = available[iid]
                packed.append(diff.packed)
                self.diff_cache[(iid, page)] = diff
                self.diffs_applied += 1
                self.diff_bytes_applied += diff.data_bytes
                if events is not None:
                    events.diff_applied(self.pid, page, diff, self.proc.now)
                cpu += (self.cost.diff_apply_cpu
                        + diff.data_bytes * self.cost.diff_apply_byte_cpu)
            self._apply_packed(page, packed)
            obs = self.proc.obs
            if obs is not None:
                obs.begin(self.proc.now, self.pid, "diff_apply", B_PROTOCOL,
                          f"page={page} piggybacked")
            self.proc.compute(cpu)
            if obs is not None:
                obs.end(self.proc.now, self.pid)
            self._pending(page, take=True)
            self.pt.validate(page)
            self.piggyback_hits += 1
            if events is not None:
                events.piggyback_apply(self.pid, page, self.proc.now)

    def _apply_packed(self, page: int, packed: List[bytes]) -> None:
        """Patch ``page`` with encoded diffs, in list order: one kernel
        call for the view, and one for the twin when there is one (eager
        RC can invalidate a dirty page; patching the twin too keeps the
        eventual local diff free of remote words)."""
        apply_batch = self.kernels.apply_diff_batch
        apply_batch(self.pt.page_view(page), packed)
        if self.pt.has_twin(page):
            apply_batch(self.pt.twin(page), packed)

    # ------------------------------------------------------------------
    # Access faults
    # ------------------------------------------------------------------
    def runs_all_valid(self, runs) -> bool:
        """Synchronous fast check: every page of every run readable now.

        When this returns True the access needs no faults, so callers can
        skip the generator path entirely -- no yields happen between this
        check and the access under cooperative scheduling.
        """
        pt = self.pt
        valid = pt.valid
        psize = pt.page_size
        for start, nbytes in runs:
            if nbytes <= 0:
                continue
            first = start // psize
            last = (start + nbytes - 1) // psize
            if first == last:  # the overwhelmingly common case
                if not valid[first]:
                    return False
            elif self.kernels.fault_scan(valid, first, last + 1):
                return False
        return True

    def runs_all_writable(self, runs) -> bool:
        """Synchronous fast check: every page readable *and* twinned."""
        pt = self.pt
        valid = pt.valid
        twins = pt._twins
        psize = pt.page_size
        for start, nbytes in runs:
            if nbytes <= 0:
                continue
            for page in range(start // psize,
                              (start + nbytes - 1) // psize + 1):
                if not valid[page] or page not in twins:
                    return False
        return True

    def ensure_valid_runs(self, runs):
        """Validate every page the access touches (LRC pages are never
        stolen, so run-by-run handling is race-free)."""
        pt = self.pt
        psize = pt.page_size
        valid = pt.valid
        for start, nbytes in runs:
            if nbytes <= 0:
                continue
            first = start // psize
            last = (start + nbytes - 1) // psize
            # Fast path: one kernel scan instead of a per-page Python
            # loop.  Only the all-valid outcome may short-circuit -- once
            # a fault yields, eager-RC notices can invalidate *later*
            # pages of the range while we wait, so the slow path
            # re-checks each page.
            if not self.kernels.fault_scan(valid, first, last + 1):
                continue
            for page in range(first, last + 1):
                if not valid[page]:
                    yield from self._fault(page)

    def ensure_writable_runs(self, runs):
        """Validate and twin every page the access touches."""
        pt = self.pt
        valid = pt.valid
        for start, nbytes in runs:
            for page in pt.pages_for_range(start, nbytes):
                if not valid[page]:
                    yield from self._fault(page)
                if not pt.has_twin(page):
                    obs = self.proc.obs
                    if obs is not None:
                        obs.begin(self.proc.now, self.pid, "twin",
                                  B_PROTOCOL, f"page={page}")
                    pt.make_twin(page)
                    self.proc.compute(self.cost.twin_cpu)
                    if obs is not None:
                        obs.end(self.proc.now, self.pid)

    def _fault(self, page: int):
        """Bring an invalidated page up to date by fetching missing diffs.

        Under eager RC, new notices for this page can arrive *while the
        fault is waiting* for responses; the fetch loops until no pending
        notices remain, so the page is never validated with orphaned
        notices (which would leave it stale forever).
        """
        proc = self.proc
        yield YIELD
        needed = self._pending(page, take=True)
        if not needed:
            raise AssertionError(
                f"P{self.pid}: page {page} invalid with no pending notices")
        self.fault_count += 1
        obs = proc.obs
        if obs is not None:
            obs.begin(proc.now, self.pid, "page_fault", B_STALL_DATA,
                      f"page={page}")
        proc.compute(self.cost.fault_cpu)
        t_fault_start = proc.now
        while needed:
            yield from self._fetch_round(page, needed)
            # Lazy RC learns nothing while a fault waits.
            needed = self.eager and self._pending(page, take=True)
        self.pt.validate(page)
        self.fault_wait_time += proc.now - t_fault_start
        if obs is not None:
            obs.end(proc.now, self.pid)

    def _fetch_round(self, page: int,
                     needed: Dict[IntervalId, IntervalRecord]):
        """One request/response/apply round for a page's pending notices."""
        proc = self.proc
        obs = proc.obs
        events = proc.events
        if events is not None:
            events.diff_fetch(self.pid, page, needed, proc.now)
        if obs is not None:
            obs.begin(proc.now, self.pid, "diff_request", B_STALL_DATA,
                      f"page={page} intervals={len(needed)}")

        if self.eager:
            # The dominant-writer reduction relies on "saw the notice
            # before closing => fetched the diff", which eager delivery
            # breaks (a notice can land mid-interval, after the page was
            # written).  Ask each interval's creator directly -- creators
            # always hold their own diffs.
            assignment: Dict[int, List[IntervalId]] = {}
            for iid in sorted(needed):
                assignment.setdefault(iid[0], []).append(iid)
        else:
            assignment = dominant_writers(needed)
        boxes = []
        writers = (assignment if len(assignment) == 1
                   else sorted(assignment))
        for writer in writers:
            wanted = assignment[writer]
            box = proc.mailbox()
            box.waiting_on = f"P{writer} (diff holder)"
            request = DiffRequest(page=page, wanted=wanted,
                                  requester=self.pid, reply=box)
            if obs is not None:
                obs.note_diff_request(self.pid, request.nbytes(self.cost))
            proc.send(self.udp, writer, CAT_DIFF_REQUEST, request,
                      request.nbytes(self.cost))
            boxes.append(box)

        entries: Dict[IntervalId, Tuple[Tuple[int, ...], Diff]] = {}
        satisfied = set()
        for box in boxes:
            response: DiffResponse = yield from box.wait(
                f"diffs for page {page}")
            for iid, ivc, diff in response.entries:
                entries.setdefault(iid, (ivc, diff))
                satisfied.add(iid)
            if response.covers:
                # Coalesced response: the single merged diff stands in for
                # every covered interval (cache it under each id so this
                # processor can serve them later).
                merged = response.entries[0][2]
                for iid in response.covers:
                    satisfied.add(iid)
                    self.diff_cache[(iid, page)] = merged

        missing = set(needed) - satisfied
        if missing:
            raise AssertionError(
                f"P{self.pid}: diff responses for page {page} missing "
                f"intervals {sorted(missing)}")

        if obs is not None:
            # Diff-accumulation attribution: bytes arriving more than once
            # for the same page words in this fetch round.
            diffs = [diff for _, diff in entries.values()]
            total = sum(diff.data_bytes for diff in diffs)
            obs.note_fetch_round(self.pid, total, _union_bytes(diffs))

        packed = []
        cpu = 0.0
        # Apply in an order consistent with happens-before.
        order = (entries if len(entries) == 1
                 else sorted(entries, key=lambda i: (entries[i][0], i[0])))
        for iid in order:
            ivc, diff = entries[iid]
            packed.append(diff.packed)
            self.diff_cache[(iid, page)] = diff
            self.diffs_applied += 1
            self.diff_bytes_applied += diff.data_bytes
            if events is not None:
                events.diff_applied(self.pid, page, diff, proc.now)
            cpu += (self.cost.diff_apply_cpu
                    + diff.data_bytes * self.cost.diff_apply_byte_cpu)
        self._apply_packed(page, packed)
        if obs is not None:
            obs.begin(proc.now, self.pid, "diff_apply", B_PROTOCOL,
                      f"page={page} ndiffs={len(entries)}")
        self.proc.compute(cpu)
        if obs is not None:
            obs.end(proc.now, self.pid)
            obs.end(proc.now, self.pid)  # close the diff_request span

    # ------------------------------------------------------------------
    # Diff server (interrupt-model handlers)
    # ------------------------------------------------------------------
    def _on_diff_request(self, delivery: Delivery) -> None:
        request: DiffRequest = delivery.payload
        entries: List[Tuple[IntervalId, Tuple[int, ...], Diff]] = []
        create_cpu = 0.0
        for iid in request.wanted:
            diff = self.diff_cache.get((iid, request.page))
            if diff is None:
                raise AssertionError(
                    f"P{self.pid}: asked for diff ({iid}, page "
                    f"{request.page}) it does not hold")
            if (iid, request.page) in self._uncharged:
                self._uncharged.discard((iid, request.page))
                create_cpu += (self.cost.diff_create_cpu
                               + self.cost.page_size * self.cost.diff_scan_byte_cpu)
            creator, seq = iid
            entries.append((iid, self.known[creator][seq].vc, diff))
        covers = None
        if self.system.config.coalesce_diffs and len(entries) > 1:
            # Ablation: compose accumulated diffs before shipping (the
            # paper's proposed fix for diff accumulation on migratory
            # data); the response declares which intervals it satisfies.
            entries.sort(key=lambda e: (e[1], e[0][0]))
            covers = [iid for iid, _, _ in entries]
            merged = coalesce([diff for _, _, diff in entries])
            entries = [entries[-1][:2] + (merged,)]
        response = DiffResponse(page=request.page, entries=entries,
                                covers=covers)

        service = delivery.recv_cpu + self.cost.interrupt_cpu + create_cpu
        t_ready = delivery.arrival + service
        t_free = self.udp.send(self.pid, request.requester, CAT_DIFF_RESPONSE,
                               (request.reply, response),
                               response.nbytes(self.cost), t_ready=t_ready)
        self.proc.charge_service(service + (t_free - t_ready))
        obs = self.proc.obs
        if obs is not None:
            obs.serve(delivery.arrival, t_free - delivery.arrival, self.pid,
                      "serve_diff",
                      f"page={request.page} to=P{request.requester}")
        events = self.proc.events
        if events is not None:
            events.diff_served(self.pid, request.page, request.requester,
                               len(entries), self.proc.now)

    def _on_diff_response(self, delivery: Delivery) -> None:
        box, response = delivery.payload
        box.put(response, delivery.arrival + delivery.recv_cpu)
