"""Run-length encoded page diffs.

A diff is "a run-length encoding of the modifications made to a page,
generated by comparing the page to a copy saved prior to the modifications"
(the twin).  TreadMarks compares at machine-word granularity; we do the
same (4-byte words), which both matches the original and keeps the fast
backends honest.

This module is now a thin caller: run detection and patching live in
:mod:`repro.kernels` behind a frozen pure-function interface with
interchangeable backends (``pure`` reference, ``numpy`` vectorized,
optional ``compiled``).  What stays here is the :class:`Diff` value type
(page number + the diff's wire encoding, with the wire accounting
precomputed), argument validation with the historical error messages,
and ``coalesce``.

A diff is held as the one ``bytes`` the kernels produce and consume (see
:mod:`repro.kernels.interface`), not as run objects: every diff is kept
for the whole run (this TreadMarks never collects garbage), and a tuple
per run would cost more host memory than the run's own bytes.

Diffs are immutable once created, so the simulator can share one object
between the creator's cache and every receiver's cache.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels import KernelBackend, get_backend
from repro.kernels.interface import (RUN_COUNT, RUN_COUNT_BYTES,
                                     RUN_HEADER_BYTES, WORD, pack_runs,
                                     unpack_runs)

__all__ = ["Diff", "make_diff", "make_diffs", "coalesce"]

_DEFAULT = get_backend()


class Diff:
    """Modifications to one page, in their wire encoding (``packed``).

    ``data_bytes`` and ``wire_bytes`` are precomputed at construction --
    the protocol layer reads them on every request/response.  The
    encoding's leading run count makes both O(1).  ``Diff(page, runs)``
    also accepts ``(byte offset, replacement bytes)`` runs and packs them.
    """

    __slots__ = ("page", "packed", "data_bytes", "wire_bytes")

    page: int
    packed: bytes
    data_bytes: int
    wire_bytes: int

    def __init__(self, page: int,
                 runs: Union[bytes, Sequence[Tuple[int, bytes]]]) -> None:
        packed = runs if type(runs) is bytes else pack_runs(runs)
        (nruns,) = RUN_COUNT.unpack_from(packed)
        wire_bytes = len(packed) - RUN_COUNT_BYTES
        object.__setattr__(self, "page", page)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "wire_bytes", wire_bytes)
        object.__setattr__(self, "data_bytes",
                           wire_bytes - RUN_HEADER_BYTES * nruns)

    def __setattr__(self, name, value):
        raise AttributeError(f"Diff is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diff):
            return NotImplemented
        return self.page == other.page and self.packed == other.packed

    def __hash__(self) -> int:
        return hash((self.page, self.packed))

    def __repr__(self) -> str:
        return f"Diff(page={self.page!r}, runs={self.runs!r})"

    @property
    def runs(self) -> Tuple[Tuple[int, bytes], ...]:
        """The decoded ``((byte offset, replacement bytes), ...)``."""
        return unpack_runs(self.packed)

    @property
    def is_empty(self) -> bool:
        return self.wire_bytes == 0

    def apply(self, page_view: np.ndarray) -> int:
        """Patch ``page_view`` (uint8, page-sized) in place; returns bytes written."""
        return _DEFAULT.apply_diff(page_view, self.packed)


def make_diff(page: int, current: np.ndarray, twin: np.ndarray,
              backend: Optional[KernelBackend] = None) -> Diff:
    """Diff ``current`` against ``twin`` (both uint8, same length).

    Word-granular: a run covers every word that changed, extended to word
    boundaries, with adjacent changed words merged into a single run.
    """
    if current.shape != twin.shape:
        raise ValueError("page/twin size mismatch")
    nbytes = current.size
    if nbytes % WORD:
        raise ValueError(f"page size {nbytes} not a multiple of the word size")
    return Diff(page, (backend or _DEFAULT).make_diff(current, twin))


def make_diffs(pages: Sequence[int], currents: Sequence[np.ndarray],
               twins: Sequence[np.ndarray],
               backend: Optional[KernelBackend] = None) -> List[Diff]:
    """Diff a batch of equally-sized pages against their twins.

    Semantically ``[make_diff(p, c, t) for p, c, t in zip(...)]``, but the
    backend may amortize the comparison for the whole batch -- this is the
    interval-close path, where every dirty page of the closing interval is
    diffed at once.
    """
    if len(pages) != len(currents) or len(pages) != len(twins):
        raise ValueError("pages/currents/twins length mismatch")
    if not pages:
        return []
    kern = backend or _DEFAULT
    nbytes = currents[0].size
    if nbytes % WORD:
        raise ValueError(f"page size {nbytes} not a multiple of the word size")
    for current, twin in zip(currents, twins):
        if current.shape != twin.shape or current.size != nbytes:
            return [make_diff(p, c, t, backend=kern)  # ragged batch: per page
                    for p, c, t in zip(pages, currents, twins)]
    packed = kern.make_diff_batch(currents, twins)
    return [Diff(page, diff) for page, diff in zip(pages, packed)]


def _segment_bounds(idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a sorted index vector into maximal consecutive segments."""
    gaps = np.flatnonzero(idx[1:] - idx[:-1] > 1)
    firsts = np.empty(gaps.size + 1, dtype=np.intp)
    lasts = np.empty(gaps.size + 1, dtype=np.intp)
    firsts[0] = idx[0]
    firsts[1:] = idx[gaps + 1]
    lasts[-1] = idx[-1]
    lasts[:-1] = idx[gaps]
    return firsts, lasts


def coalesce(diffs: List[Diff]) -> Diff:
    """Merge several diffs of one page into a single equivalent diff.

    Later diffs in the list overwrite earlier ones (apply order).  This is
    the paper's proposed remedy for *diff accumulation*: rather than
    shipping every overlapping diff for migratory data, ship their
    composition.  Exposed as a TmkConfig ablation, not default behaviour.
    """
    if not diffs:
        raise ValueError("nothing to coalesce")
    page = diffs[0].page
    if any(d.page != page for d in diffs):
        raise ValueError("coalesce of diffs from different pages")
    # Compose on a scratch page: replay all runs, track touched bytes.
    runs_of = [d.runs for d in diffs]
    size = 0
    for runs in runs_of:
        for offset, data in runs:
            size = max(size, offset + len(data))
    scratch = np.zeros(size, dtype=np.uint8)
    touched = np.zeros(size, dtype=bool)
    for runs in runs_of:
        for offset, data in runs:
            scratch[offset: offset + len(data)] = np.frombuffer(data, dtype=np.uint8)
            touched[offset: offset + len(data)] = True
    idx = np.flatnonzero(touched)
    if idx.size == 0:
        return Diff(page, ())
    firsts, lasts = _segment_bounds(idx)
    runs: List[Tuple[int, bytes]] = []
    for first, last in zip(firsts.tolist(), lasts.tolist()):
        runs.append((first, scratch[first:last + 1].tobytes()))
    return Diff(page, tuple(runs))
