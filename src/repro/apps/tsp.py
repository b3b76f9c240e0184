"""TSP -- traveling salesman by branch and bound.

"The major data structures are a pool of partially evaluated tours, a
priority queue containing pointers to tours in the pool, a stack of
pointers to unused tour elements in the pool, and the current shortest
path."  ``get_tour`` pops the most promising partial tour; if it is longer
than a threshold it is returned for exhaustive solving, otherwise it is
extended by one city and the promising extensions are pushed back.
``recursive_solve`` tries all permutations of the remaining cities (with
bound pruning) and updates the shortest tour under a lock.

* **TreadMarks**: all major structures are shared; ``get_tour`` is guarded
  by a lock, so the pool, priority queue and stack *migrate* between
  processors: >= 3 page faults per ``get_tour`` and, due to diff
  accumulation, ~ (n-1) diffs per fault -- the paper's explanation for the
  ~20-30% gap (Figure 6), along with contention for the ``get_tour`` lock.
* **PVM**: master/slave -- the master keeps all structures private and
  runs ``get_tour`` on request; only directly-solvable tours and shortest-
  path updates cross the network.

The optimal tour cost is deterministic and verified against the sequential
version.  (Pruning against a possibly-stale shared bound makes the *work*
timing-dependent in principle; the simulator is deterministic, so runs are
exactly reproducible.)

The same sub-problem -- first city, last city, remaining cities -- reaches
``recursive_solve`` many times in one run (a bench run meets ~1 200
distinct ones in ~6 700 calls), and its best completion does not depend
on the path's cost or the bound.  Every processor of a run therefore
shares one table of best completions in ``Cluster.memo``, keyed by the
distance matrix's bytes (DESIGN section 5m); the sequential oracle keeps
its own.  Each call is still charged its ``k!`` permutations.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.base import AppSpec, compute_polled, register

__all__ = ["TspParams", "APP"]

#: Virtual CPU seconds per permutation evaluated in recursive_solve
#: (each evaluates a full chain of remaining-city edges).
NODE_CPU = 35e-6
#: Virtual CPU seconds per extension generated in get_tour.
EXTEND_CPU = 8e-6
#: Default pool capacity (partial tours); overridable per problem size.
MAX_TOURS = 8192
_INF = np.iinfo(np.int32).max // 4
#: Bits reserved for the bound inside a packed priority key.
_PRIO_BITS = 22


def _prio(length: int, bound: int) -> int:
    """Packed queue priority: deeper partial tours are more promising
    (they are closer to solvable), ties broken by lower bound.  Packing
    into one int lets the shared-memory queue store it in a single cell."""
    if bound >= (1 << _PRIO_BITS):
        bound = (1 << _PRIO_BITS) - 1
    return ((64 - length) << _PRIO_BITS) | bound


def _prio_bound(key: int) -> int:
    return key & ((1 << _PRIO_BITS) - 1)


@dataclass(frozen=True)
class TspParams:
    ncities: int = 13
    #: get_tour returns paths longer than this; the rest is solved
    #: exhaustively by recursive_solve.
    threshold: int = 8
    #: Tour-pool capacity (the paper sizes it "large enough"; with
    #: deepest-first ordering the live frontier stays small).
    pool_slots: int = 1024
    seed: int = 577215

    @classmethod
    def tiny(cls) -> "TspParams":
        return cls(ncities=9, threshold=5)

    @classmethod
    def bench(cls) -> "TspParams":
        return cls(ncities=12, threshold=5)

    @classmethod
    def paper(cls) -> "TspParams":
        """19 cities, recursive_solve threshold 12."""
        return cls(ncities=19, threshold=12, pool_slots=2048)


def distance_matrix(params: TspParams) -> np.ndarray:
    """Symmetric integer distances from deterministic city coordinates."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    coords = rng.uniform(0, 1000, size=(params.ncities, 2))
    delta = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((delta ** 2).sum(axis=2)).astype(np.int32)
    np.fill_diagonal(dist, 0)
    return dist


def greedy_tour_cost(dist: np.ndarray) -> int:
    """Nearest-neighbour tour from city 0, improved with 2-opt: the
    initial upper bound every version starts from.  A tight incumbent
    keeps the best-first frontier bounded, as in any practical
    branch-and-bound TSP."""
    n = dist.shape[0]
    d = [[int(v) for v in row] for row in dist]
    visited = [0]
    while len(visited) < n:
        last = visited[-1]
        row = d[last]
        city = min((c for c in range(n) if c not in visited),
                   key=row.__getitem__)
        visited.append(city)
    # 2-opt until no improving exchange remains.
    tour = visited
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                a, b = tour[i - 1], tour[i]
                c, e = tour[j], tour[(j + 1) % n]
                if a == c or b == e:
                    continue
                delta = d[a][c] + d[b][e] - d[a][b] - d[c][e]
                if delta < 0:
                    tour[i: j + 1] = reversed(tour[i: j + 1])
                    improved = True
    cost = sum(d[tour[k]][tour[(k + 1) % n]] for k in range(n))
    return cost + 1



def remaining_slack(d: list, rem: List[int]) -> int:
    """Tight admissible completion estimate: every remaining city must be
    left through some edge toward another remaining city or city 0, so sum
    each remaining city's cheapest such edge.  Restricting the targets to
    the remaining set (rather than all cities) is what keeps the frontier
    of partial tours small."""
    if not rem:
        return 0
    targets = rem + [0]
    total = 0
    for r in rem:
        row = d[r]
        total += min(row[x] for x in targets if x != r)
    return total


def min_out_edges(dist: np.ndarray) -> np.ndarray:
    """Cheapest outgoing edge per city (for the admissible bound)."""
    masked = dist.astype(np.int64).copy()
    np.fill_diagonal(masked, np.iinfo(np.int64).max)
    return masked.min(axis=1)


def lower_bound(dist: np.ndarray, path: List[int], cost: int,
                min_out: Optional[np.ndarray] = None) -> int:
    """Admissible bound: path cost + cheapest outgoing edge of every
    remaining city.  O(len(path)) via the precomputed total."""
    if min_out is None:
        min_out = min_out_edges(dist)
    total = int(min_out.sum())
    return cost + total - int(min_out[path].sum())


class TourEngine:
    """The branch-and-bound logic shared by all three versions.

    Operates on plain Python state; the TreadMarks version mirrors this
    state into shared memory, the PVM master keeps it private.
    """

    def __init__(self, params: TspParams):
        self.params = params
        self.dist = distance_matrix(params)
        self.d = [[int(v) for v in row] for row in self.dist]
        self.min_out = [int(v) for v in min_out_edges(self.dist)]
        self.min_out_total = sum(self.min_out)
        self.queue: List[Tuple[int, int]] = []  # (bound, slot) heap
        self.pool: dict[int, Tuple[List[int], int]] = {}
        self.free: List[int] = list(range(params.pool_slots - 1, -1, -1))
        slot = self.free.pop()
        self.pool[slot] = ([0], 0)
        heapq.heappush(self.queue,
                       (_prio(1, self.min_out_total - self.min_out[0]), slot))

    def get_tour(self, best: int) -> Tuple[Optional[Tuple[List[int], int]], int, float]:
        """Pop-and-extend until a solvable path emerges.

        Returns (tour or None, extensions generated, virtual cost).
        """
        params, d = self.params, self.d
        extensions = 0
        while self.queue:
            # Pop the most promising partial tour: deepest first, then
            # lowest bound (ties by slot for determinism).
            key, slot = heapq.heappop(self.queue)
            bound = _prio_bound(key)
            path, cost = self.pool.pop(slot)
            self.free.append(slot)
            if bound >= best:
                continue  # pruned
            if len(path) > params.threshold:
                return (path, cost), extensions, extensions * EXTEND_CPU
            last = path[-1]
            row = d[last]
            rem = [c for c in range(params.ncities) if c not in path]
            slack = remaining_slack(d, rem)
            for city in rem:
                ncost = cost + row[city]
                nbound = ncost + slack
                if nbound >= best:
                    continue
                if not self.free:
                    raise RuntimeError("tour pool exhausted")
                nslot = self.free.pop()
                self.pool[nslot] = (path + [city], ncost)
                heapq.heappush(self.queue,
                               (_prio(len(path) + 1, nbound), nslot))
                extensions += 1
        return None, extensions, extensions * EXTEND_CPU


_PERM_CACHE: dict = {}


def _permutations(k: int) -> np.ndarray:
    """All permutations of range(k) as a (k!, k) index array (cached)."""
    perms = _PERM_CACHE.get(k)
    if perms is None:
        from itertools import permutations as _p
        perms = np.array(list(_p(range(k))), dtype=np.int64).reshape(-1, k)
        _PERM_CACHE[k] = perms
    return perms


def best_completion(dist: np.ndarray, first: int, last: int,
                    rem: Tuple[int, ...]) -> Tuple[int, List[int], int]:
    """The cheapest way from ``last`` through every city of ``rem`` back
    to ``first``: one vectorized sweep over all permutations of ``rem``.
    Returns (completion cost, city order, permutations evaluated); ties go
    to the first permutation in ``itertools.permutations`` order."""
    k = len(rem)
    if k == 0:
        return int(dist[last, first]), [], 1
    perms = _permutations(k)
    seqs = np.array(rem, dtype=np.int64)[perms]         # (k!, k)
    costs = np.zeros(perms.shape[0], dtype=np.int64)
    costs += dist[last, seqs[:, 0]]
    for i in range(k - 1):
        costs += dist[seqs[:, i], seqs[:, i + 1]]
    costs += dist[seqs[:, -1], first]
    win = int(np.argmin(costs))
    return int(costs[win]), seqs[win].tolist(), perms.shape[0]


def recursive_solve(dist: np.ndarray, path: List[int], cost: int,
                    best: int, table: Optional[dict] = None
                    ) -> Tuple[int, Optional[List[int]], int]:
    """Try all permutations of the remaining cities, as the paper
    describes ("tries all permutations of the remaining nodes
    recursively; it updates the shortest tour if a complete tour is found
    that is shorter than the current best tour").

    The best completion of a sub-problem -- (first city, last city,
    remaining cities) -- does not depend on the path's cost or the bound,
    so ``table`` keeps it: ``best_completion`` runs only when the table
    misses (host-side optimization; the virtual cost charged is still
    per permutation, on every call).  Returns (best cost found, best tour
    or None, permutations evaluated).
    """
    if table is None:
        table = {}
    rem = tuple(sorted(set(range(dist.shape[0])).difference(path)))
    key = (path[0], path[-1], rem)
    hit = table.get(key)
    if hit is None:
        hit = table[key] = best_completion(dist, *key)
    completion, order, nodes = hit
    if cost + completion < best:
        return cost + completion, list(path) + order, nodes
    return best, None, nodes


def run_table(proc, dist: np.ndarray) -> Tuple[list, dict]:
    """The run's distance rows as plain ints and its table of best
    completions, shared by every processor of ``proc``'s cluster (DESIGN
    section 5m).  The key is the matrix's bytes, so a processor holding a
    different matrix never reads completions computed for another."""
    key = dist.tobytes()
    memo = proc.cluster.memo
    entry = memo.get(__name__)
    if entry is None or entry[0] != key:
        entry = memo[__name__] = (key, [[int(v) for v in row] for row in dist],
                                  {})
    return entry[1:]


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: TspParams):
    meter.mark()
    engine = TourEngine(params)
    dist = engine.dist
    best = greedy_tour_cost(dist)
    best_tour: Optional[List[int]] = None
    table: dict = {}  # the oracle's own, never the run's
    while True:
        tour, _, cost = engine.get_tour(best)
        meter.compute(cost)
        if tour is None:
            break
        path, pcost = tour
        nbest, ntour, nodes = recursive_solve(dist, path, pcost, best, table)
        meter.compute(nodes * NODE_CPU)
        if nbest < best:
            best, best_tour = nbest, ntour
    return best


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
_LOCK_QUEUE = 0
_LOCK_BEST = 1


class _SharedTourState:
    """The pool/queue/stack/best mirrored into shared memory.

    Layout (all page-aligned, so each structure migrates separately --
    "it takes at least 3 page faults to obtain the tour pool, priority
    queue and tour stack"):

    * ``pool``  -- (MAX_TOURS, ncities+2) int32: length, cost, path...
    * ``queue`` -- (MAX_TOURS+1, 2) int32: row 0 is (size, _); then
      (bound, slot) entries
    * ``stack`` -- (MAX_TOURS+1,) int32: slot 0 is the count, then free slots
    * ``best``  -- (1,) int32
    """

    def __init__(self, tmk, params: TspParams):
        self.params = params
        c = params.ncities
        slots = params.pool_slots
        self.pool = tmk.shared_array("tsp_pool", (slots, c + 2), np.int32)
        self.queue = tmk.shared_array("tsp_queue", (slots + 1, 2), np.int32)
        self.stack = tmk.shared_array("tsp_stack", (slots + 1,), np.int32)
        self.best = tmk.shared_array("tsp_best", (1,), np.int32)

    def init_master(self, dist: np.ndarray):
        params = self.params
        yield from self.best.set(0, greedy_tour_cost(dist))
        # All slots free except slot 0, which holds the root tour.
        count = params.pool_slots - 1
        yield from self.stack.set(0, count)
        yield from self.stack.write(
            slice(1, count + 1),
            np.arange(params.pool_slots - 1, 0, -1, dtype=np.int32))
        row = np.zeros(params.ncities + 2, dtype=np.int32)
        row[0] = 1  # path length
        row[1] = 0  # cost
        row[2] = 0  # city 0
        yield from self.pool.write((slice(0, 1), slice(None)), row[None, :])
        yield from self.queue.write(
            (slice(0, 2), slice(None)),
            np.array([[1, 0],
                      [_prio(1, lower_bound(dist, [0], 0)), 0]],
                     dtype=np.int32))

    # -- under the queue lock -------------------------------------------
    def pop_best_entry(self):
        """Pop the entry with the smallest packed priority key (deepest
        partial tour, then lowest bound); returns (bound, slot)."""
        size = yield from self.queue.get((0, 0))
        size = int(size)
        if size == 0:
            return None
        entries = yield from self.queue.read(
            (slice(1, size + 1), slice(None)))
        col0 = entries[:, 0]
        cand = np.flatnonzero(col0 == col0.min())
        if cand.size == 1:
            idx = int(cand[0])
        else:  # ties on the packed key: lowest slot-column, then row order
            idx = int(cand[int(np.argmin(entries[cand, 1]))])
        key, slot = entries[idx].tolist()
        last = entries[size - 1]
        if idx != size - 1:
            yield from self.queue.write(
                (slice(idx + 1, idx + 2), slice(None)), last[None, :])
        yield from self.queue.set((0, 0), size - 1)
        return _prio_bound(key), slot

    def read_tour(self, slot: int):
        row = yield from self.pool.read(
            (slice(slot, slot + 1), slice(None)))
        row = row.reshape(-1)
        length, cost = int(row[0]), int(row[1])
        return row[2: 2 + length].tolist(), cost

    def free_slot(self, slot: int):
        count = yield from self.stack.get(0)
        count = int(count)
        yield from self.stack.set(count + 1, slot)
        yield from self.stack.set(0, count + 1)

    def alloc_slot(self):
        count = yield from self.stack.get(0)
        count = int(count)
        if count == 0:
            raise RuntimeError("tour pool exhausted")
        slot = yield from self.stack.get(count)
        slot = int(slot)
        yield from self.stack.set(0, count - 1)
        return slot

    def push_tour(self, path: List[int], cost: int, bound: int):
        slot = yield from self.alloc_slot()
        row = np.zeros(self.params.ncities + 2, dtype=np.int32)
        row[0] = len(path)
        row[1] = cost
        row[2: 2 + len(path)] = path
        yield from self.pool.write((slice(slot, slot + 1), slice(None)),
                                   row[None, :])
        size = yield from self.queue.get((0, 0))
        size = int(size)
        key = _prio(len(path), bound)
        yield from self.queue.write(
            (slice(size + 1, size + 2), slice(None)),
            np.array([[key, slot]], dtype=np.int32))
        yield from self.queue.set((0, 0), size + 1)


def _tmk_get_tour(tmk, proc, state: _SharedTourState, d: list):
    """The shared-memory get_tour, guarded by the queue lock."""
    params = state.params
    yield from tmk.lock_acquire(_LOCK_QUEUE)
    try:
        while True:
            entry = yield from state.pop_best_entry()
            if entry is None:
                return None
            bound, slot = entry
            path, cost = yield from state.read_tour(slot)
            yield from state.free_slot(slot)
            # Benign race: the bound is written under _LOCK_BEST, which
            # this path does not hold; a stale value only weakens pruning.
            best = yield from state.best.get_racy(0)
            best = int(best)
            if bound >= best:
                continue
            if len(path) > params.threshold:
                return path, cost
            extensions = 0
            last = path[-1]
            row = d[last]
            rem = [c for c in range(params.ncities) if c not in path]
            slack = remaining_slack(d, rem)
            for city in rem:
                ncost = cost + row[city]
                nbound = ncost + slack
                if nbound >= best:
                    continue
                yield from state.push_tour(path + [city], ncost, nbound)
                extensions += 1
            proc.compute(extensions * EXTEND_CPU)
    finally:
        yield from tmk.lock_release(_LOCK_QUEUE)


def tmk_main(proc, params: TspParams):
    tmk = proc.tmk
    dist = distance_matrix(params)
    d, table = run_table(proc, dist)
    state = _SharedTourState(tmk, params)
    if tmk.pid == 0:
        yield from state.init_master(dist)
    yield from tmk.barrier(0)
    if tmk.pid == 0:
        proc.cluster.start_measurement(proc)
    while True:
        tour = yield from _tmk_get_tour(tmk, proc, state, d)
        if tour is None:
            break
        path, cost = tour
        # Prune against the possibly-stale local copy of the bound
        # (benign race: the definitive check at the update is locked).
        local_best = yield from state.best.get_racy(0)
        local_best = int(local_best)
        nbest, ntour, nodes = recursive_solve(dist, path, cost, local_best,
                                              table)
        proc.compute(nodes * NODE_CPU)
        if nbest < local_best:
            yield from tmk.lock_acquire(_LOCK_BEST)
            current = yield from state.best.get(0)
            if nbest < int(current):
                yield from state.best.set(0, nbest)
            yield from tmk.lock_release(_LOCK_BEST)
    yield from tmk.barrier(1)
    final = yield from state.best.get(0)
    return int(final)


# ----------------------------------------------------------------------
# PVM (master/slave)
# ----------------------------------------------------------------------
_TAG_REQ = 40
_TAG_TOUR = 41
_TAG_BEST = 42
_TAG_DONE = 43


def _pvm_master(proc, params: TspParams):
    pvm = proc.pvm
    n = pvm.nprocs
    engine = TourEngine(params)
    dist = engine.dist
    _, table = run_table(proc, dist)
    best = greedy_tour_cost(dist)
    done_sent = 0

    if n == 1:
        # No slaves: the master's co-located slave does everything.
        while True:
            tour, _, cost = engine.get_tour(best)
            proc.compute(cost)
            if tour is None:
                return best
            path, pcost = tour
            nbest, _, nodes = recursive_solve(dist, path, pcost, best, table)
            proc.compute(nodes * NODE_CPU)
            best = min(best, nbest)

    def handle(buf):
        """Process one message; returns True if it was a work request."""
        nonlocal best, done_sent
        if buf.tag == _TAG_BEST:
            cand = int(buf.upkint(1)[0])
            best = min(best, cand)
            return False
        buf.upkint(1)
        tour, _, cost = engine.get_tour(best)
        proc.compute(cost)
        out = pvm.initsend()
        if tour is None:
            out.pkint([0])
            yield from pvm.send(buf.src, _TAG_DONE, out)
            done_sent += 1
        else:
            path, pcost = tour
            out.pkint([len(path), pcost, best])
            out.pkint(path)
            yield from pvm.send(buf.src, _TAG_TOUR, out)
        return True

    def poll():
        while True:
            buf = yield from pvm.nrecv(-1, -1)
            if buf is None:
                return
            yield from handle(buf)

    while done_sent < n - 1:
        # Drain whatever has arrived, then do a unit of the master's own
        # slave work (time-shared with request service) if the queue still
        # has promising tours.
        buf = yield from pvm.nrecv(-1, -1)
        if buf is not None:
            yield from handle(buf)
            continue
        tour, _, cost = engine.get_tour(best)
        yield from compute_polled(proc, cost, poll)
        if tour is not None:
            path, pcost = tour
            nbest, _, nodes = recursive_solve(dist, path, pcost, best, table)
            yield from compute_polled(proc, nodes * NODE_CPU, poll)
            best = min(best, nbest)
        else:
            buf = yield from pvm.recv(-1, -1)
            yield from handle(buf)
    return best


def _pvm_slave(proc, params: TspParams):
    pvm = proc.pvm
    dist = distance_matrix(params)
    _, table = run_table(proc, dist)
    best = greedy_tour_cost(dist)
    while True:
        buf = pvm.initsend()
        buf.pkint([pvm.mytid])
        yield from pvm.send(0, _TAG_REQ, buf)
        reply = yield from pvm.recv(0, -1)
        if reply.tag == _TAG_DONE:
            reply.upkint(1)
            return
        header = reply.upkint(3)
        length, cost, best = int(header[0]), int(header[1]), int(header[2])
        path = [int(v) for v in reply.upkint(length)]
        nbest, _, nodes = recursive_solve(dist, path, cost, best, table)
        proc.compute(nodes * NODE_CPU)
        if nbest < best:
            best = nbest
            out = pvm.initsend()
            out.pkint([best])
            yield from pvm.send(0, _TAG_BEST, out)


def pvm_main(proc, params: TspParams):
    pvm = proc.pvm
    if pvm.mytid == 0:
        proc.cluster.start_measurement(proc)
        result = yield from _pvm_master(proc, params)
        return result
    yield from _pvm_slave(proc, params)
    return None


APP = register(AppSpec(
    name="tsp",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=lambda par, seq: par == seq,
))
