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

from typing import List, Optional, Sequence

import numpy as np

from repro.kernels import pure
from repro.kernels.interface import (EMPTY_DIFF, RUN_COUNT, RUN_HEADER, WORD,
                                     KernelBackend, Runs)

__all__ = ["BACKEND"]

#: Below this many pages, a Python loop beats numpy's fixed per-call cost.
_SCAN_LOOP_MAX = 8


def _pack_pages(changed: np.ndarray, current: np.ndarray,
                words_per_page: int, npages: int) -> List[Runs]:
    """Changed-word indices over ``npages`` concatenated pages -> one
    encoded diff per page.

    Run boundaries are numpy arithmetic on the index vector; then one
    ``tobytes`` for the whole buffer and, per run, a packed header plus
    a plain ``bytes`` slice (several times cheaper than an ndarray slice
    + ``tobytes``), joined once per dirty page.
    """
    # A run ends at a gap between changed words or at a page boundary.
    breaks = changed[1:] - changed[:-1] > 1
    if npages > 1:
        page_of = changed // words_per_page
        breaks |= page_of[1:] != page_of[:-1]
    breaks = np.flatnonzero(breaks)
    firsts = np.empty(breaks.size + 1, dtype=np.intp)
    lasts = np.empty(breaks.size + 1, dtype=np.intp)
    firsts[0] = changed[0]
    firsts[1:] = changed[breaks + 1]
    lasts[-1] = changed[-1]
    lasts[:-1] = changed[breaks]
    buf = current.tobytes()
    page_bytes = words_per_page * WORD
    header = RUN_HEADER.pack
    parts_of: List[Optional[list]] = [None] * npages
    for start, end in zip((firsts * WORD).tolist(),
                          (lasts * WORD + WORD).tolist()):
        page = start // page_bytes
        parts = parts_of[page]
        if parts is None:
            parts = parts_of[page] = [b""]  # the count, filled below
        parts.append(header(start - page * page_bytes, end - start))
        parts.append(buf[start:end])
    out: List[Runs] = [EMPTY_DIFF] * npages
    for page, parts in enumerate(parts_of):
        if parts is not None:
            parts[0] = RUN_COUNT.pack(len(parts) // 2)
            out[page] = b"".join(parts)
    return out


def make_diff(current, twin) -> Runs:
    changed = np.flatnonzero(current.view(np.uint32) != twin.view(np.uint32))
    if changed.size == 0:
        return EMPTY_DIFF
    return _pack_pages(changed, current, current.size // WORD, 1)[0]


def make_diff_batch(currents: Sequence, twins: Sequence) -> List[Runs]:
    n = len(currents)
    if n == 0:
        return []
    if n == 1:
        return [make_diff(currents[0], twins[0])]
    # One contiguous buffer pair for the whole batch: the copies are
    # memcpys, and everything after them is one numpy call per step.
    big_cur = np.concatenate(currents)
    big_twin = np.concatenate(twins)
    changed = np.flatnonzero(big_cur.view(np.uint32)
                             != big_twin.view(np.uint32))
    if changed.size == 0:
        return [EMPTY_DIFF] * n
    return _pack_pages(changed, big_cur, currents[0].size // WORD, n)


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
