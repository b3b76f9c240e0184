"""Barnes-Hut -- hierarchical N-body simulation (SPLASH).

Four phases per time step (paper section 3.7):

1. **MakeTree** -- every processor reads all shared body positions and
   builds the oct-tree in *private* memory (the cells are private; only the
   body array is shared).
2. **Get_my_bodies** -- costzone partitioning: each processor takes a set
   of *logically consecutive tree leaves*.  Owned bodies are adjacent in
   the Barnes-Hut tree but **not adjacent in memory** -- the root cause of
   TreadMarks' false sharing here.
3. **Force computation** -- no synchronization; each processor computes
   forces on its own bodies (reading everybody's positions).
4. **Update** -- owners write positions/velocities of their (scattered)
   bodies; the barrier after force computation ensures all reads finished.

* **TreadMarks**: scattered ownership means every body page has several
  writers, so a page fault triggers diff requests to several processors
  and pulls in unwanted data (paper: ~2-3x PVM's message count).
* **PVM**: "every processor broadcasts its bodies at the end of each
  iteration"; at 8 processors the simultaneous broadcasts saturate the
  FDDI ring -- both systems speed up poorly (Figure 10).

The first time step is a warm-up and excluded from measurement (the paper
times the last iterations only).

Host work: every simulated processor would build the same tree and walk
it for its own costzone.  :func:`shared_walk` builds and walks it once
per time step for all bodies, in the run's ``Cluster.memo`` keyed by the
bodies' bytes, and each processor takes its own rows and is charged
``BUILD_CPU`` per body plus ``INT_CPU`` per interaction of its own
bodies, as if it had walked alone (DESIGN section 5m).  The sequential
oracle builds and walks its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.base import AppSpec, register

__all__ = ["BhParams", "APP", "OctTree"]

#: Virtual CPU seconds per body-node interaction in the force phase.
INT_CPU = 0.8e-6
#: Virtual CPU seconds per body for one tree build.
BUILD_CPU = 5e-6
#: Bodies per leaf cell.
LEAF_CAP = 8
_THETA2 = 0.5 ** 2
_SOFT = 0.05
_DT = 1e-2


@dataclass(frozen=True)
class BhParams:
    nbodies: int = 1024
    steps: int = 4
    #: Steps excluded from the measured window (cold start).
    warmup: int = 1
    seed: int = 662607

    @classmethod
    def tiny(cls) -> "BhParams":
        return cls(nbodies=128, steps=2, warmup=0)

    @classmethod
    def bench(cls) -> "BhParams":
        return cls(nbodies=1024, steps=4, warmup=1)

    @classmethod
    def paper(cls) -> "BhParams":
        """4096 bodies, 6 steps, last 4 timed."""
        return cls(nbodies=4096, steps=6, warmup=2)


def initial_state(params: BhParams) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positions, velocities, masses) -- a Plummer-ish random ball."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    pos = rng.normal(0.0, 1.0, size=(params.nbodies, 3))
    vel = rng.normal(0.0, 0.05, size=(params.nbodies, 3))
    mass = rng.uniform(0.5, 1.5, size=params.nbodies)
    return pos, vel, mass


class OctTree:
    """A private Barnes-Hut oct-tree (cells live outside shared memory)."""

    __slots__ = ("children", "com", "mass", "size", "leaf_bodies", "dfs_order")

    def __init__(self, pos: np.ndarray, mass: np.ndarray) -> None:
        self.children: List[List[int]] = []   # 8 child node ids or -1
        self.com: List[np.ndarray] = []
        self.mass: List[float] = []
        self.size: List[float] = []
        self.leaf_bodies: List[np.ndarray] = []
        order: List[int] = []

        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        center = (lo + hi) / 2.0
        half = float((hi - lo).max()) / 2.0 + 1e-9

        def build(idx: np.ndarray, center: np.ndarray, half: float) -> int:
            node = len(self.mass)
            m = mass[idx]
            total = float(m.sum())
            self.children.append([-1] * 8)
            self.com.append((pos[idx] * m[:, None]).sum(axis=0) / total)
            self.mass.append(total)
            self.size.append(2.0 * half)
            if idx.size <= LEAF_CAP:
                self.leaf_bodies.append(idx)
                order.extend(int(i) for i in idx)
                return node
            self.leaf_bodies.append(np.empty(0, dtype=np.int64))
            octant = ((pos[idx, 0] > center[0]).astype(np.int64)
                      | ((pos[idx, 1] > center[1]).astype(np.int64) << 1)
                      | ((pos[idx, 2] > center[2]).astype(np.int64) << 2))
            for o in range(8):
                sub = idx[octant == o]
                if sub.size == 0:
                    continue
                offset = np.array([half / 2 if (o >> b) & 1 else -half / 2
                                   for b in range(3)])
                self.children[node][o] = build(sub, center + offset, half / 2)
            return node

        build(np.arange(pos.shape[0]), center, half)
        #: Bodies in tree (DFS leaf) order -- the costzone ordering.
        self.dfs_order = np.array(order, dtype=np.int64)


def compute_forces(tree: OctTree, pos: np.ndarray, mass: np.ndarray,
                   targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Accelerations on ``targets`` via the opening-criterion traversal.

    Returns (accelerations (len(targets), 3), interactions per target).
    Each target's sum runs in the tree's DFS order whatever other
    targets share the walk, so any subset of a walk's rows is
    byte-identical to walking that subset alone.
    """
    acc = np.zeros((targets.size, 3))
    counts = np.zeros(targets.size, dtype=np.int64)
    tpos = pos[targets]

    def visit(node: int, sel: np.ndarray) -> None:
        if sel.size == 0:
            return
        leaf = tree.leaf_bodies[node]
        if leaf.size > 0:
            # Direct body-body interactions, excluding self.
            spos = tpos[sel]
            sids = targets[sel]
            for b in leaf:
                db = pos[b] - spos
                rb2 = (db * db).sum(axis=1) + _SOFT
                notself = sids != b
                contrib = (mass[b] * db / (rb2 ** 1.5)[:, None])
                rows = sel[notself]
                acc[rows] += contrib[notself]
                counts[rows] += 1
            return
        d = tree.com[node] - tpos[sel]
        r2 = (d * d).sum(axis=1) + _SOFT
        accept = (tree.size[node] ** 2) < _THETA2 * r2
        hit = sel[accept]
        if hit.size:
            dh = tree.com[node] - tpos[hit]
            rh2 = (dh * dh).sum(axis=1) + _SOFT
            acc[hit] += tree.mass[node] * dh / (rh2 ** 1.5)[:, None]
            counts[hit] += 1
        rest = sel[~accept]
        if rest.size:
            for child in tree.children[node]:
                if child >= 0:
                    visit(child, rest)

    visit(0, np.arange(targets.size))
    return acc, counts


def shared_walk(proc, pos: np.ndarray, mass: np.ndarray
                ) -> Tuple[OctTree, np.ndarray, np.ndarray]:
    """The tree and every body's (acceleration, interaction count) for
    the bodies ``proc`` holds, built and walked once per run and step.

    Every processor builds the same tree from the same bodies; the first
    to arrive at a time step does the host work for all of them and
    leaves it in the run's memo (DESIGN section 5m).  The key is the
    content, so a processor holding different bodies walks on its own.
    Each processor is still charged the virtual cost of its own share.
    """
    key = (pos.tobytes(), mass.tobytes())
    memo = proc.cluster.memo
    entry = memo.get(__name__)
    if entry is None or entry[0] != key:
        tree = OctTree(pos, mass)
        acc, counts = compute_forces(tree, pos, mass,
                                     np.arange(pos.shape[0]))
        entry = memo[__name__] = (key, tree, acc, counts)
    return entry[1:]


def costzone_partition(tree: OctTree, pid: int, nprocs: int) -> np.ndarray:
    """Equal-count chunks of the tree's DFS leaf order (sorted for
    contiguous-run shared accesses)."""
    order = tree.dfs_order
    lo = pid * order.size // nprocs
    hi = (pid + 1) * order.size // nprocs
    return np.sort(order[lo:hi])


def contiguous_runs(sorted_idx: np.ndarray) -> List[Tuple[int, int]]:
    """Split sorted indices into maximal contiguous [lo, hi) runs."""
    if sorted_idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(sorted_idx) > 1) + 1
    runs = []
    for seg in np.split(sorted_idx, breaks):
        runs.append((int(seg[0]), int(seg[-1]) + 1))
    return runs


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: BhParams):
    pos, vel, mass = initial_state(params)
    all_bodies = np.arange(params.nbodies)
    for step in range(params.steps):
        if step == params.warmup:
            meter.mark()
        tree = OctTree(pos, mass)
        meter.compute(params.nbodies * BUILD_CPU)
        acc, counts = compute_forces(tree, pos, mass, all_bodies)
        meter.compute(int(counts.sum()) * INT_CPU)
        vel += acc * _DT
        pos = pos + vel * _DT
    return pos


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
def tmk_main(proc, params: BhParams):
    tmk = proc.tmk
    n = params.nbodies
    spos = tmk.shared_array("bh_pos", (n, 3), np.float64)
    svel = tmk.shared_array("bh_vel", (n, 3), np.float64)
    smass = tmk.shared_array("bh_mass", (n,), np.float64)
    if tmk.pid == 0:
        pos0, vel0, mass0 = initial_state(params)
        yield from spos.write((slice(None), slice(None)), pos0)
        yield from svel.write((slice(None), slice(None)), vel0)
        yield from smass.write(slice(0, n), mass0)
    yield from tmk.barrier(0)
    bid = 1
    for step in range(params.steps):
        if step == params.warmup and tmk.pid == 0:
            proc.cluster.start_measurement(proc)
        # MakeTree: read every shared body, build private cells.
        pos = yield from spos.read((slice(None), slice(None)))
        pos = np.asarray(pos)
        mass = yield from smass.read(slice(0, n))
        mass = np.asarray(mass)
        tree, all_acc, counts = shared_walk(proc, pos, mass)
        proc.compute(n * BUILD_CPU)
        yield from tmk.barrier(bid); bid += 1
        # Get_my_bodies (costzones) + force computation (no sync).
        mine = costzone_partition(tree, tmk.pid, tmk.nprocs)
        acc = all_acc[mine]
        proc.compute(int(counts[mine].sum()) * INT_CPU)
        yield from tmk.barrier(bid); bid += 1
        # Update my (memory-scattered) bodies, run by run -- the per-page
        # access pattern the paper's false-sharing analysis describes.
        runs = contiguous_runs(mine)
        new_vel = np.empty((mine.size, 3))
        at = 0
        for lo, hi in runs:
            k = hi - lo
            band = yield from svel.read((slice(lo, hi), slice(None)))
            new_vel[at: at + k] = band
            at += k
        new_vel += acc * _DT
        new_pos = pos[mine] + new_vel * _DT
        at = 0
        for lo, hi in runs:
            k = hi - lo
            yield from svel.write((slice(lo, hi), slice(None)),
                                  new_vel[at: at + k])
            yield from spos.write((slice(lo, hi), slice(None)),
                                  new_pos[at: at + k])
            at += k
        yield from tmk.barrier(bid); bid += 1
        last = (mine, new_pos)
    if tmk.pid == 0:
        proc.cluster.stop_measurement(proc)
    mine, new_pos = last
    return mine, new_pos.copy()


# ----------------------------------------------------------------------
# PVM
# ----------------------------------------------------------------------
_TAG_BODIES = 60


def pvm_main(proc, params: BhParams):
    pvm = proc.pvm
    me, nprocs = pvm.mytid, pvm.nprocs
    n = params.nbodies
    pos, vel, mass = initial_state(params)  # replicated private state
    for step in range(params.steps):
        if step == params.warmup and me == 0:
            proc.cluster.start_measurement(proc)
        tree, all_acc, counts = shared_walk(proc, pos, mass)
        proc.compute(n * BUILD_CPU)
        mine = costzone_partition(tree, me, nprocs)
        acc = all_acc[mine]
        proc.compute(int(counts[mine].sum()) * INT_CPU)
        vel[mine] += acc * _DT
        pos[mine] += vel[mine] * _DT
        if nprocs > 1:
            # "Every processor broadcasts its bodies at the end of each
            # iteration" -- the all-to-all that saturates the ring.
            buf = pvm.initsend()
            buf.pkdouble(pos[mine].reshape(-1))
            buf.pkdouble(vel[mine].reshape(-1))
            yield from pvm.bcast(_TAG_BODIES, buf)
            for _ in range(nprocs - 1):
                got = yield from pvm.recv(-1, _TAG_BODIES)
                theirs = costzone_partition(tree, got.src, nprocs)
                pos[theirs] = got.upkdouble(theirs.size * 3).reshape(-1, 3)
                vel[theirs] = got.upkdouble(theirs.size * 3).reshape(-1, 3)
        last = mine
    return last, pos[last].copy()


def _collect(results):
    n = sum(idx.size for idx, _ in results)
    out = np.zeros((n, 3))
    for idx, block in results:
        out[idx] = block
    return out


def _verify(par, seq) -> bool:
    return np.allclose(par, seq, rtol=1e-9, atol=1e-12)


APP = register(AppSpec(
    name="barnes_hut",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=_verify,
    collect=_collect,
))
