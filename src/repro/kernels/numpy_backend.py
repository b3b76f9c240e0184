"""The vectorized numpy backend: the fast path where no C compiler exists.

Run detection is ``np.flatnonzero`` on word inequality plus boundary
arithmetic on the index vector; no per-word Python.  The batch variant
concatenates the whole batch into one buffer pair so the comparison,
the changed-word scan, *and* the run segmentation are each a single
numpy call for the entire interval close -- the per-page fixed cost
that made the old stacked implementation a wash (0.98x) is paid once
per batch instead of once per page.

Only the three ops numpy wins are defined here.  ``apply_diff`` /
``apply_diff_batch`` are memoryview writes numpy cannot improve on, and
``np.array_equal`` loses to a bytes compare on a 4 KB page (2.17 vs
0.91 us, BENCH_kernels.json), so those three are ``pure``'s functions.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels import pure
from repro.kernels.interface import WORD, KernelBackend, Runs

__all__ = ["BACKEND"]

#: Below this many pages, a Python loop beats numpy's fixed per-call cost.
_SCAN_LOOP_MAX = 8


def _runs_from_words(changed: np.ndarray, current: np.ndarray) -> Runs:
    """Word-index vector -> byte-granular runs over ``current``.

    One ``tobytes`` for the whole page, then plain ``bytes`` slicing per
    run: a bytes slice is several times cheaper than an ndarray slice +
    ``tobytes``, and the single page-sized memcpy is noise.
    """
    gaps = np.flatnonzero(changed[1:] - changed[:-1] > 1)
    firsts = np.empty(gaps.size + 1, dtype=np.intp)
    lasts = np.empty(gaps.size + 1, dtype=np.intp)
    firsts[0] = changed[0]
    firsts[1:] = changed[gaps + 1]
    lasts[-1] = changed[-1]
    lasts[:-1] = changed[gaps]
    buf = current.tobytes()
    return tuple(
        (first * WORD, buf[first * WORD: last * WORD + WORD])
        for first, last in zip(firsts.tolist(), lasts.tolist()))


def make_diff(current, twin) -> Runs:
    changed = np.flatnonzero(current.view(np.uint32) != twin.view(np.uint32))
    if changed.size == 0:
        return ()
    return _runs_from_words(changed, current)


def make_diff_batch(currents: Sequence, twins: Sequence) -> List[Runs]:
    n = len(currents)
    if n == 0:
        return []
    if n == 1:
        return [make_diff(currents[0], twins[0])]
    words_per_page = currents[0].size // WORD
    # One contiguous buffer pair for the whole batch: the copies are
    # memcpys, and everything after them is one numpy call per step.
    big_cur = np.concatenate(currents)
    big_twin = np.concatenate(twins)
    changed = np.flatnonzero(big_cur.view(np.uint32)
                             != big_twin.view(np.uint32))
    out: List[Runs] = [()] * n
    if changed.size == 0:
        return out
    # Segment the global changed-word vector, forcing a break wherever a
    # page boundary is crossed so no run spans two pages.
    page_of = changed // words_per_page
    breaks = np.flatnonzero((changed[1:] - changed[:-1] > 1)
                            | (page_of[1:] != page_of[:-1]))
    firsts = np.empty(breaks.size + 1, dtype=np.intp)
    lasts = np.empty(breaks.size + 1, dtype=np.intp)
    firsts[0] = changed[0]
    firsts[1:] = changed[breaks + 1]
    lasts[-1] = changed[-1]
    lasts[:-1] = changed[breaks]
    pages = (firsts // words_per_page).tolist()
    buf = big_cur.tobytes()
    page_bytes = words_per_page * WORD
    runs_of: List[list] = [[] for _ in range(n)]
    for first, last, page in zip(firsts.tolist(), lasts.tolist(), pages):
        start = first * WORD
        runs_of[page].append((start - page * page_bytes,
                              buf[start: last * WORD + WORD]))
    for i, runs in enumerate(runs_of):
        if runs:
            out[i] = tuple(runs)
    return out


def fault_scan(valid, lo: int, hi: int) -> List[int]:
    if hi - lo <= _SCAN_LOOP_MAX:
        return [page for page in range(lo, hi) if not valid[page]]
    window = np.frombuffer(valid, dtype=np.uint8)[lo:hi]
    return [lo + page for page in np.flatnonzero(window == 0).tolist()]


BACKEND = KernelBackend(
    name="numpy",
    make_diff=make_diff,
    make_diff_batch=make_diff_batch,
    apply_diff=pure.apply_diff,
    apply_diff_batch=pure.apply_diff_batch,
    twin_compare=pure.twin_compare,
    fault_scan=fault_scan,
)
