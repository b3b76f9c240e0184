"""The pure-Python reference backend.

This is the canonical statement of what every kernel must compute: no
numpy in the logic, just bytes and loops.  It is deliberately simple --
the ``numpy`` and ``compiled`` backends are proven byte-identical to it
by the property suite in ``tests/kernels``, so any question about edge
cases ("what does a run at the page's last word look like?") is settled
by reading this file.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.kernels.interface import (EMPTY_DIFF, RUN_COUNT, RUN_COUNT_BYTES,
                                     RUN_HEADER, RUN_HEADER_BYTES, WORD,
                                     KernelBackend, Runs, pack_runs)

__all__ = ["BACKEND"]


def _as_bytes(buf) -> bytes:
    return bytes(memoryview(buf).cast("B"))


def make_diff(current, twin) -> Runs:
    cur = _as_bytes(current)
    tw = _as_bytes(twin)
    if cur == tw:
        return EMPTY_DIFF
    runs = []
    start = None
    for off in range(0, len(cur), WORD):
        if cur[off:off + WORD] != tw[off:off + WORD]:
            if start is None:
                start = off
        elif start is not None:
            runs.append((start, cur[start:off]))
            start = None
    if start is not None:
        runs.append((start, cur[start:]))
    return pack_runs(runs)


def make_diff_batch(currents: Sequence, twins: Sequence) -> List[Runs]:
    return [make_diff(c, t) for c, t in zip(currents, twins)]


def _apply(view: memoryview, packed: Runs) -> int:
    size = len(packed)
    limit = len(view)
    header = RUN_HEADER.unpack_from
    try:
        (count,) = RUN_COUNT.unpack_from(packed)
        pos = RUN_COUNT_BYTES
        for _ in range(count):
            offset, length = header(packed, pos)
            pos += RUN_HEADER_BYTES
            end = offset + length
            if offset < 0 or length < 0 or end > limit:
                raise ValueError("run exceeds page bounds")
            if pos + length > size:
                raise ValueError("diff truncated")
            view[offset:end] = packed[pos:pos + length]
            pos += length
    except struct.error:
        raise ValueError("diff truncated") from None
    if pos != size:
        raise ValueError("diff has trailing bytes")
    return size - RUN_COUNT_BYTES - RUN_HEADER_BYTES * count


def apply_diff(page_view, packed: Runs) -> int:
    return _apply(memoryview(page_view).cast("B"), packed)


def apply_diff_batch(page_view, packed_list: Sequence[Runs]) -> int:
    view = memoryview(page_view).cast("B")
    written = 0
    for packed in packed_list:
        written += _apply(view, packed)
    return written


def twin_compare(current, twin) -> bool:
    return _as_bytes(current) == _as_bytes(twin)


def fault_scan(valid, lo: int, hi: int) -> List[int]:
    return [page for page in range(lo, hi) if not valid[page]]


BACKEND = KernelBackend(
    name="pure",
    make_diff=make_diff,
    make_diff_batch=make_diff_batch,
    apply_diff=apply_diff,
    apply_diff_batch=apply_diff_batch,
    twin_compare=twin_compare,
    fault_scan=fault_scan,
)
