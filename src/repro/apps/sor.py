"""Red-Black Successive Over-Relaxation.

"The program divides the red and the black array into roughly equal size
bands of rows, assigning each band to a different processor.  Communication
occurs across the boundary rows."  One *iteration* is one color phase: the
red array is updated from the black array (or vice versa), so a processor
needs only its neighbors' boundary rows of the opposite color, once per
iteration -- giving the paper's per-iteration message counts (PVM: 2(n-1)
boundary-row messages; TreadMarks: 2(n-1) barrier messages plus 8(n-1)
diff request/response messages, since each boundary row spans one and a
half pages and therefore needs two diffs).

Two input regimes (paper Figures 2 and 3):

* **SOR-Zero** -- edge elements 1, interior 0.  Floating-point operations
  with zero operands are charged extra (the HP-735 handles the resulting
  denormalized values in software), so the processors holding the
  still-zero middle bands run slower: load imbalance, mediocre speedup for
  both systems.  TreadMarks ships *less data* than PVM because diffs of
  unchanged (still zero) boundary pages are empty.
* **SOR-NonZero** -- everything nonzero; balanced load, good speedups.

The first iteration is excluded from measurement, as in the paper (it also
absorbs TreadMarks' master-initialization redistribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.apps.base import AppSpec, register

__all__ = ["SorParams", "APP"]

#: Virtual CPU seconds per interior element update.
ELEM_CPU = 2.0e-6
#: Extra virtual CPU seconds per zero operand (software-handled denormals).
ZERO_EXTRA_CPU = 2.0e-6


@dataclass(frozen=True)
class SorParams:
    """Grid of ``rows`` x ``2*width`` doubles, split into red/black arrays
    of ``rows`` x ``width`` each; ``width`` = 768 makes each shared row
    occupy one and a half 4-KB pages, as in the paper."""

    rows: int = 512
    width: int = 768
    iterations: int = 40
    nonzero: bool = False

    @classmethod
    def tiny(cls, nonzero: bool = False) -> "SorParams":
        return cls(rows=64, width=96, iterations=6, nonzero=nonzero)

    @classmethod
    def bench(cls, nonzero: bool = False) -> "SorParams":
        return cls(rows=384, width=768, iterations=40, nonzero=nonzero)

    @classmethod
    def paper(cls, nonzero: bool = False) -> "SorParams":
        """2048 x 1536 floats, 51 iterations."""
        return cls(rows=2048, width=768, iterations=51, nonzero=nonzero)


def initial_rows(params: SorParams, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of one color array's initial contents, built
    without the rest of the grid (a PVM rank initializes only its band)."""
    grid = np.zeros((hi - lo, params.width), dtype=np.float64)
    if params.nonzero:
        # Deterministic, everywhere-nonzero, changes every iteration.
        i = np.arange(lo, hi)[:, None]
        j = np.arange(params.width)[None, :]
        grid[:] = 1.0 + 0.001 * ((i * 31 + j * 17) % 97)
    else:
        if lo == 0 < hi:
            grid[0, :] = 1.0
        if hi == params.rows > lo:
            grid[-1, :] = 1.0
        grid[:, 0] = 1.0
        grid[:, -1] = 1.0
    return grid


def initial_array(params: SorParams) -> np.ndarray:
    """Initial contents of one color array."""
    return initial_rows(params, 0, params.rows)


def band(pid: int, nprocs: int, rows: int) -> Tuple[int, int]:
    """Row range [lo, hi) owned by ``pid``."""
    lo = pid * rows // nprocs
    hi = (pid + 1) * rows // nprocs
    return lo, hi


def phase_kernel(src: np.ndarray, lo: int, hi: int,
                 rows: int) -> Tuple[np.ndarray, float]:
    """Update target rows [lo, hi) x interior columns from source rows
    [lo-1, hi] (passed with ghost rows clipped at the grid edge).

    ``src`` must contain rows ``max(lo-1, 0) .. min(hi, rows-1)`` of the
    opposite color.  Returns (new interior values for the updatable rows,
    virtual CPU cost).  Rows 0 and rows-1 and the edge columns are fixed
    boundary and never updated.
    """
    has_top_ghost = lo > 0
    first = max(lo, 1)
    last = min(hi, rows - 1)  # exclusive
    n_update = last - first
    if n_update <= 0:
        return np.empty((0, src.shape[1] - 2)), 0.0
    # Index of row `first` within src.
    base = first - (lo - 1 if has_top_ghost else lo)
    up = src[base - 1: base - 1 + n_update, 1:-1]
    down = src[base + 1: base + 1 + n_update, 1:-1]
    left = src[base: base + n_update, :-2]
    right = src[base: base + n_update, 2:]
    new = 0.25 * (up + down + left + right)
    mid = src[base: base + n_update, 1:-1]
    zeros = mid.size - int(np.count_nonzero(mid))
    cost = mid.size * ELEM_CPU + zeros * ZERO_EXTRA_CPU
    return new, cost


def _checksum(red: np.ndarray, black: np.ndarray) -> Tuple[float, float]:
    return (float(red.sum()), float(black.sum()))


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: SorParams):
    red = initial_array(params)
    black = initial_array(params)
    for it in range(params.iterations):
        target, src = (red, black) if it % 2 == 0 else (black, red)
        new, cost = phase_kernel(src, 0, params.rows, params.rows)
        target[1: params.rows - 1, 1:-1] = new
        meter.compute(cost)
        if it == 0:
            meter.mark()
    return red, black


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
def tmk_main(proc, params: SorParams):
    tmk = proc.tmk
    shape = (params.rows, params.width)
    red = tmk.shared_array("sor_red", shape, np.float64)
    black = tmk.shared_array("sor_black", shape, np.float64)
    if tmk.pid == 0:
        # Master initialization (the paper notes this TreadMarks/PVM
        # difference; the excluded first iteration absorbs it).
        init = initial_array(params)
        yield from red.write((slice(None), slice(None)), init)
        yield from black.write((slice(None), slice(None)), init)
    yield from tmk.barrier(0)
    lo, hi = band(tmk.pid, tmk.nprocs, params.rows)
    for it in range(params.iterations):
        target, src = (red, black) if it % 2 == 0 else (black, red)
        glo = max(lo - 1, 0)
        ghi = min(hi + 1, params.rows)
        src_rows = yield from src.read((slice(glo, ghi), slice(None)))
        new, cost = phase_kernel(src_rows, lo, hi, params.rows)
        proc.compute(cost)
        first = max(lo, 1)
        last = min(hi, params.rows - 1)
        if last > first:
            yield from target.write(
                (slice(first, last), slice(1, params.width - 1)), new)
        yield from tmk.barrier(1 + it)
        if it == 0 and tmk.pid == 0:
            proc.cluster.start_measurement(proc)
    # Each processor returns its own band (local, valid pages -- no
    # traffic); the harness stitches them outside the simulated program.
    red_band = yield from red.read((slice(lo, hi), slice(None)))
    black_band = yield from black.read((slice(lo, hi), slice(None)))
    return (lo, hi, red_band.copy(), black_band.copy())


# ----------------------------------------------------------------------
# PVM
# ----------------------------------------------------------------------
_TAG_DOWN = 1  # row sent to the next (higher-pid) processor
_TAG_UP = 2    # row sent to the previous processor
_TAG_RESULT = 3


def pvm_main(proc, params: SorParams):
    pvm = proc.pvm
    me, n = pvm.mytid, pvm.nprocs
    lo, hi = band(me, n, params.rows)
    glo = max(lo - 1, 0)
    ghi = min(hi + 1, params.rows)
    # Each processor initializes its own band plus ghost rows locally
    # ("data is initialized in a distributed manner in the PVM version").
    red = initial_rows(params, glo, ghi)
    black = red.copy()
    off = lo - glo  # index of row `lo` within the local arrays

    def exchange(target: np.ndarray):
        """Send own boundary rows of the freshly-updated color; receive
        ghost rows from the neighbors."""
        if me > 0:
            buf = pvm.initsend()
            buf.pkdouble(target[off])
            yield from pvm.send(me - 1, _TAG_UP, buf)
        if me < n - 1:
            buf = pvm.initsend()
            buf.pkdouble(target[off + (hi - lo) - 1])
            yield from pvm.send(me + 1, _TAG_DOWN, buf)
        if me > 0:
            got = yield from pvm.recv(me - 1, _TAG_DOWN)
            target[off - 1] = got.upkdouble(params.width)
        if me < n - 1:
            got = yield from pvm.recv(me + 1, _TAG_UP)
            target[off + (hi - lo)] = got.upkdouble(params.width)

    for it in range(params.iterations):
        target, src = (red, black) if it % 2 == 0 else (black, red)
        new, cost = phase_kernel(src, lo, hi, params.rows)
        proc.compute(cost)
        first = max(lo, 1)
        last = min(hi, params.rows - 1)
        if last > first:
            target[off + (first - lo): off + (last - lo), 1:-1] = new
        yield from exchange(target)
        if it == 0 and me == 0:
            proc.cluster.start_measurement(proc)
    return (lo, hi,
            red[off: off + (hi - lo)].copy(),
            black[off: off + (hi - lo)].copy())


def _collect(results):
    """Stitch per-processor bands into full arrays (out-of-band)."""
    rows = max(hi for _, hi, _, _ in results)
    width = results[0][2].shape[1]
    red = np.zeros((rows, width))
    black = np.zeros_like(red)
    for lo, hi, red_band, black_band in results:
        red[lo:hi] = red_band
        black[lo:hi] = black_band
    return red, black


def _verify(par, seq) -> bool:
    return (np.array_equal(par[0], seq[0]) and np.array_equal(par[1], seq[1]))


APP = register(AppSpec(
    name="sor",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=_verify,
    collect=_collect,
))
