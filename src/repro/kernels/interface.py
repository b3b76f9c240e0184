"""The frozen kernel interface: pure functions over raw page buffers.

A *kernel backend* supplies the handful of byte-level operations every
page-based DSM runtime in this repo is built on.  The contract is frozen
so backends are interchangeable and independently testable:

``make_diff(current, twin) -> packed``
    Word-granular run detection: compare two equally-sized uint8 buffers
    (length a multiple of :data:`WORD`) and return the diff in its wire
    encoding (:data:`Runs`, below).  A run covers every word that
    changed, extended to word boundaries, with adjacent changed words
    merged.  Equal buffers return :data:`EMPTY_DIFF`.

``make_diff_batch(currents, twins) -> [packed, ...]``
    Semantically ``[make_diff(c, t) for c, t in zip(currents, twins)]``
    over equally-sized pages; backends may amortize the comparison.

``apply_diff(page_view, packed) -> int``
    Patch a writable uint8 buffer in place; returns bytes written.  A
    truncated encoding, trailing bytes, or a run past the end of the
    buffer raise ``ValueError``.

``apply_diff_batch(page_view, packed_list) -> int``
    Apply several diffs in list order to one buffer; returns total bytes.

``twin_compare(current, twin) -> bool``
    ``True`` when the buffers are byte-identical (the page is clean).

``fault_scan(valid, lo, hi) -> [page, ...]``
    Indices ``p`` in ``[lo, hi)`` with ``valid[p]`` falsy, ascending.
    ``valid`` is a byte-per-page table (``bytearray`` in practice).

**The wire encoding.**  A diff is one immutable ``bytes``: a 4-byte
little-endian run count, then per run, in ascending offset order, an
8-byte header (little-endian int32 byte offset, int32 length:
:data:`RUN_HEADER_BYTES`) followed by the run's replacement bytes.  The
count comes first so a diff's sizes need no scan: its wire size is
``len(packed) - RUN_COUNT_BYTES`` and its payload is that minus
``RUN_HEADER_BYTES`` per run.  :func:`pack_runs` and :func:`unpack_runs`
convert to and from ``((offset, bytes), ...)`` for the few readers that
want the runs themselves.

Inputs to ``make_diff`` are validated by the callers
(:mod:`repro.tmk.diffs` keeps the historical error messages); kernels
may assume the preconditions hold.  Every backend must be byte-identical
to the ``pure`` reference -- ``tests/kernels`` asserts this property over
random contents.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

__all__ = ["EMPTY_DIFF", "KernelBackend", "RUN_COUNT", "RUN_COUNT_BYTES",
           "RUN_HEADER", "RUN_HEADER_BYTES", "Runs", "WORD", "pack_runs",
           "run_count", "unpack_runs"]

#: Comparison granularity in bytes (one PA-RISC word).
WORD = 4
#: Bytes of run header (offset + length) counted per run on the wire.
RUN_HEADER_BYTES = 8
#: Bytes of the run count that leads every encoded diff.  Not counted in
#: a diff's wire size: the per-diff envelope
#: (``CostModel.diff_envelope_bytes``) already accounts for its length.
RUN_COUNT_BYTES = 4

#: One diff in its wire encoding (see the module docstring).
Runs = bytes

#: The encoding's two fixed-size fields: the leading run count and the
#: per-run (offset, length) header.
RUN_COUNT = struct.Struct("<I")
RUN_HEADER = struct.Struct("<ii")

#: The encoding of a diff with no runs.
EMPTY_DIFF = RUN_COUNT.pack(0)


def pack_runs(runs: Iterable[Tuple[int, bytes]]) -> Runs:
    """Encode ``(offset, replacement bytes)`` runs, in the order given."""
    parts = [b""]
    for offset, data in runs:
        parts.append(RUN_HEADER.pack(offset, len(data)))
        parts.append(bytes(data))
    parts[0] = RUN_COUNT.pack((len(parts) - 1) // 2)
    return b"".join(parts)


def run_count(packed: Runs) -> int:
    """Number of runs in an encoded diff."""
    return RUN_COUNT.unpack_from(packed)[0]


def unpack_runs(packed: Runs) -> Tuple[Tuple[int, bytes], ...]:
    """Decode an encoded diff into ``((offset, bytes), ...)``."""
    runs = []
    pos = RUN_COUNT_BYTES
    for _ in range(run_count(packed)):
        offset, length = RUN_HEADER.unpack_from(packed, pos)
        pos += RUN_HEADER_BYTES
        runs.append((offset, packed[pos:pos + length]))
        pos += length
    return tuple(runs)


@dataclass(frozen=True)
class KernelBackend:
    """One interchangeable implementation of the page-ops contract."""

    name: str
    make_diff: Callable[..., Runs]
    make_diff_batch: Callable[[Sequence, Sequence], List[Runs]]
    apply_diff: Callable[..., int]
    apply_diff_batch: Callable[..., int]
    twin_compare: Callable[..., bool]
    fault_scan: Callable[..., List[int]]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<KernelBackend {self.name!r}>"
