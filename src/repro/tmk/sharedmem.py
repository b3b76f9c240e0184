"""Shared memory allocation and software access detection.

Real TreadMarks detects shared accesses with the VM hardware (mprotect +
SIGSEGV).  The simulator substitutes *software* detection: shared data is
declared as :class:`SharedArray` objects whose accessors consult the page
table before touching memory.  Page granularity, twins, faults, and false
sharing behave identically; only the trap mechanism differs (DESIGN.md
section 2).

Application discipline (enforced by returning read-only views): reads go
through ``read``, writes through ``write``/``add``.  Every accessor may
fault and therefore block, so each is a generator the caller delegates to
(``rows = yield from arr.read(key)``); there is no subscript sugar,
because ``arr[key]`` cannot yield to the engine.  A view obtained before
a synchronization operation must be re-read afterwards, just as a real
DSM program must not cache shared values in registers across
synchronization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

import numpy as np

from repro.sim.network import UdpChannel
from repro.tmk.pages import ADDRESS_SPACE, PageTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster, Processor

__all__ = ["DsmCore", "DsmEndpoint", "DsmSystem", "SharedArray",
           "SharedHeap"]


class SharedHeap:
    """Cluster-global allocator for the shared address space (Tmk_malloc).

    All processors see the same address for the same allocation because
    allocation metadata is global -- the analogue of TreadMarks programs
    allocating from the master and distributing pointers.  Allocation is
    bump-pointer from address 0 up to ``bound``; each processor's per-page
    state follows the watermark through the ``on_grow`` callbacks.
    """

    def __init__(self, bound: int, page_size: int) -> None:
        self.bound = bound
        self.page_size = page_size
        self._next = 0
        self._named: Dict[str, Tuple[int, Tuple[int, ...], np.dtype]] = {}
        #: Called with :attr:`pages` after every allocation.
        self.on_grow: List[Callable[[int], None]] = []

    @property
    def used(self) -> int:
        """Allocation watermark: bytes of the address space handed out so
        far."""
        return self._next

    @property
    def pages(self) -> int:
        """Pages the allocations so far overlap."""
        return -(-self._next // self.page_size)

    def malloc(self, nbytes: int, align: int | None = None) -> int:
        """Allocate ``nbytes``; page-aligned by default.

        Page alignment is the default so that distinct arrays do not share
        pages; pass a smaller ``align`` to reproduce intra-page false
        sharing between allocations deliberately.
        """
        align = self.page_size if align is None else align
        if align < 1:
            raise ValueError("alignment must be positive")
        addr = -(-self._next // align) * align
        if addr + nbytes > self.bound:
            raise MemoryError(
                f"shared address space exhausted: need {nbytes} bytes at "
                f"{addr}, the bound is {self.bound} bytes")
        self._next = addr + nbytes
        for grow in self.on_grow:
            grow(self.pages)
        return addr

    def named(self, name: str, shape: Tuple[int, ...], dtype: np.dtype,
              align: int | None = None) -> int:
        """Idempotent named allocation: first caller allocates, the rest
        get the same address (shape/dtype must agree)."""
        if name in self._named:
            addr, got_shape, got_dtype = self._named[name]
            if got_shape != shape or got_dtype != dtype:
                raise ValueError(
                    f"shared array {name!r} redeclared with different "
                    f"shape/dtype: {got_shape}/{got_dtype} vs {shape}/{dtype}")
            return addr
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        addr = self.malloc(nbytes, align)
        self._named[name] = (addr, shape, np.dtype(dtype))
        return addr


class SharedArray:
    """A typed window into the shared segment with page-fault semantics."""

    def __init__(self, tmk: "DsmEndpoint", addr: int, shape: Tuple[int, ...],
                 dtype: np.dtype) -> None:
        self.tmk = tmk
        self.addr = addr
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        mem = tmk.core.pt.mem
        self._view = mem[addr: addr + self.nbytes].view(self.dtype).reshape(self.shape)
        self._base_ptr = self._view.__array_interface__["data"][0]
        # Precomputed geometry for the arithmetic fast paths in
        # _touched_runs (the view is always C-contiguous).
        self._ndim = len(self.shape)
        self._itemsize = self.dtype.itemsize
        self._row_bytes = (self._view.strides[0] if self._ndim
                           else self._itemsize)

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(key: Any) -> Any:
        """Turn integer indices into 1-length slices so selections are
        always ndarrays (byte ranges are computed from the selection)."""
        tkey = type(key)
        if tkey is slice:
            return key
        if tkey is int:
            if key == -1:
                return slice(-1, None)
            return slice(key, key + 1)
        if tkey is tuple:
            return tuple(SharedArray._normalize(k) for k in key)
        if isinstance(key, (int, np.integer)):
            k = int(key)
            if k == -1:
                return slice(k, None)
            return slice(k, k + 1)
        return key

    def _touched_runs(self, key: Any) -> list:
        """Contiguous byte runs [(start, nbytes), ...] of the shared
        segment actually touched by ``self._view[key]``.

        Exact for sliced/strided selections: the contiguous innermost
        suffix of the selection forms one run per outer index, so a
        transpose-style strided write touches only the pages holding its
        own slices -- which is what determines the fault and twin pattern.
        """
        # Arithmetic fast paths for the overwhelmingly common selections
        # (raw ints and unit-step slices): no slice objects are
        # normalized, no numpy sub-view is materialized, and no
        # __array_interface__ dict is built -- all three were top entries
        # in the access-path profile.  Byte runs are identical to what
        # the general path below computes.  Raw keys are accepted (this
        # is what _read/write pass); anything the fast paths do not
        # recognize is normalized and handled generally.
        tkey = type(key)
        if tkey is int:
            if 0 <= key and self._ndim:
                # One first-axis element: spans exactly one row's bytes
                # (C-contiguous view), whatever the remaining dims are.
                row = self._row_bytes
                return [(self.addr + key * row, row)]
        elif tkey is slice:
            if (key.step is None or key.step == 1) and self._ndim:
                start, stop, _ = key.indices(self.shape[0])
                if stop <= start:
                    return []
                row = self._row_bytes
                return [(self.addr + start * row, (stop - start) * row)]
        elif tkey is tuple and len(key) == 2 and self._ndim == 2:
            k0, k1 = key
            t0, t1 = type(k0), type(k1)
            row = self._row_bytes
            item = self._itemsize
            if t0 is int and 0 <= k0:
                if t1 is int and 0 <= k1:
                    return [(self.addr + k0 * row + k1 * item, item)]
                if t1 is slice and (k1.step is None or k1.step == 1):
                    c0, c1, _ = k1.indices(self.shape[1])
                    if c1 <= c0:
                        return []
                    return [(self.addr + k0 * row + c0 * item,
                             (c1 - c0) * item)]
            elif t0 is slice and (k0.step is None or k0.step == 1):
                if t1 is slice and (k1.step is None or k1.step == 1):
                    r0, r1, _ = k0.indices(self.shape[0])
                    c0, c1, _ = k1.indices(self.shape[1])
                    if r1 <= r0 or c1 <= c0:
                        return []
                    if c0 == 0 and c1 == self.shape[1]:
                        return [(self.addr + r0 * row, (r1 - r0) * row)]
                    chunk = (c1 - c0) * item
                    base = self.addr + c0 * item
                    return [(base + r * row, chunk) for r in range(r0, r1)]
                if t1 is int and 0 <= k1:
                    r0, r1, _ = k0.indices(self.shape[0])
                    if r1 <= r0:
                        return []
                    base = self.addr + k1 * item
                    return [(base + r * row, item) for r in range(r0, r1)]
        key = self._normalize(key)
        # Advanced (integer-array) indexing on the first axis: numpy makes
        # a copy, so compute runs from the index values directly (one run
        # per maximal group of consecutive rows).
        first = key[0] if isinstance(key, tuple) else key
        if isinstance(first, (list, np.ndarray)):
            idx = np.asarray(first)
            if idx.dtype == bool:
                idx = np.flatnonzero(idx)
            if idx.size == 0:
                return []
            idx = np.unique(idx.astype(np.int64))
            if idx[0] < 0 or idx[-1] >= self.shape[0]:
                raise IndexError(
                    f"fancy index out of range: {idx[0]}..{idx[-1]}")
            row_bytes = self._view.strides[0]
            breaks = np.flatnonzero(np.diff(idx) > 1) + 1
            runs = []
            for seg in np.split(idx, breaks):
                lo, hi = int(seg[0]), int(seg[-1]) + 1
                runs.append((self.addr + lo * row_bytes,
                             (hi - lo) * row_bytes))
            return runs

        sub = self._view[key]
        if not isinstance(sub, np.ndarray):
            raise TypeError(f"unsupported shared index {key!r}")
        if sub.size == 0:
            return []
        ptr = sub.__array_interface__["data"][0]
        shape, strides = sub.shape, sub.strides
        if any(st < 0 for st in strides):
            # Negative strides are rare; fall back to the full envelope.
            extent = sub.itemsize
            start = ptr
            for size, stride in zip(shape, strides):
                extent += (size - 1) * abs(stride)
                if stride < 0:
                    start += (size - 1) * stride
            return [(self.addr + (start - self._base_ptr), extent)]
        # Peel off the contiguous suffix of dimensions.
        chunk = sub.itemsize
        d = len(shape)
        while d > 0 and strides[d - 1] == chunk:
            chunk *= shape[d - 1]
            d -= 1
        base = self.addr + (ptr - self._base_ptr)
        if d == 0:
            return [(base, chunk)]
        # Enumerate the outer index space's byte offsets.
        offsets = np.zeros(1, dtype=np.int64)
        for size, stride in zip(shape[:d], strides[:d]):
            offsets = (offsets[:, None]
                       + np.arange(size, dtype=np.int64)[None, :] * stride
                       ).reshape(-1)
        offsets.sort()
        # Merge offsets whose runs touch or overlap (dense inner slices).
        runs = []
        run_start = run_end = None
        for off in offsets:
            start = base + int(off)
            if run_start is None:
                run_start, run_end = start, start + chunk
            elif start <= run_end:
                run_end = max(run_end, start + chunk)
            else:
                runs.append((run_start, run_end - run_start))
                run_start, run_end = start, start + chunk
        runs.append((run_start, run_end - run_start))
        return runs

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, key: Any = slice(None)):
        """Read access: faults in any invalid page, returns a read-only view.

        Returns the inner generator directly (``yield from`` accepts any
        iterable), avoiding one delegating generator frame per read --
        reads are the single most frequent shared-memory operation.
        """
        return self._read(key, racy=False)

    def read_racy(self, key: Any = slice(None)):
        """Annotated intentionally-unsynchronized read.

        Identical to :meth:`read` in faults, messages, and cost; the only
        difference is that the race sanitizer treats it as a declared
        benign race (e.g. TSP pruning against a possibly-stale bound) and
        exempts it from the happens-before check.  The false-sharing
        analyzer still records it.
        """
        return self._read(key, racy=True)

    def _read(self, key: Any, racy: bool):
        runs = self._touched_runs(key)
        core = self.tmk.core
        # Fast path (LRC only): a synchronous all-valid check skips the
        # per-run generator chain for the fault-free common case.
        if not core.runs_all_valid(runs):
            yield from core.ensure_valid_runs(runs)
        emit_access = core.emit_access
        if emit_access is not None:
            emit_access(core.pid, runs, False, racy, core.proc.now)
        view = self._view[key]
        if isinstance(view, np.ndarray):
            view = view.view()
            view.setflags(write=False)
        return view

    def get(self, key: Any):
        """Read one element (Python scalar)."""
        value = yield from self.read(key)
        if isinstance(value, np.ndarray):
            raise TypeError(f"get() with non-scalar index {key!r}")
        return value

    def get_racy(self, key: Any):
        """Read one element without synchronization (annotated benign
        race; see :meth:`read_racy`)."""
        value = yield from self.read_racy(key)
        if isinstance(value, np.ndarray):
            raise TypeError(f"get_racy() with non-scalar index {key!r}")
        return value

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, key: Any, values: Any):
        """Write access: validates + twins every covered page, then stores.

        Single-writer cores (IVY, SC-ABD) set ``prefers_piecewise_writes``: a
        multi-page store is then performed page piece by page piece, each
        under momentary ownership -- like real per-store traps -- because
        holding many contended pages simultaneously can livelock.
        """
        runs = self._touched_runs(key)
        core = self.tmk.core
        emit_access = core.emit_access
        if emit_access is not None:
            emit_access(core.pid, runs, True, False, core.proc.now)
        if core.prefers_piecewise_writes:
            done = yield from self._piecewise_write(self._normalize(key),
                                                    runs, values)
            if done:
                return
        if not core.runs_all_writable(runs):
            yield from core.ensure_writable_runs(runs)
        self._view[key] = values

    def _piecewise_write(self, norm: Any, runs: list, values: Any):
        """Store run by run, page piece by page piece.  Returns False when
        the selection shape rules it out (negative strides, fancy index
        in caller-defined order), letting the caller fall back."""
        first = norm[0] if isinstance(norm, tuple) else norm
        if isinstance(first, (list, np.ndarray)):
            return False
        sub = self._view[norm]
        if not isinstance(sub, np.ndarray) or sub.size == 0:
            return sub is not None and getattr(sub, "size", 1) == 0
        if any(st < 0 for st in sub.strides):
            return False
        data = np.broadcast_to(np.asarray(values, dtype=self.dtype),
                               sub.shape)
        flat = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if flat.size != sum(n for _, n in runs):
            return False  # exotic overlap: fall back to the atomic path
        core = self.tmk.core
        mem = core.pt.mem
        page = core.cost.page_size
        at = 0
        for start, nbytes in runs:
            pos = start
            end = start + nbytes
            while pos < end:
                piece = min(end, (pos // page + 1) * page) - pos
                yield from core.ensure_writable_runs(((pos, piece),))
                mem[pos: pos + piece] = flat[at: at + piece]
                at += piece
                pos += piece
        return True

    def set(self, key: Any, value: Any):
        """Write one element (alias of write for symmetric style)."""
        yield from self.write(key, value)

    def add(self, key: Any, values: Any):
        """Read-modify-write: ``self[key] += values`` with full fault checks."""
        runs = self._touched_runs(key)
        core = self.tmk.core
        emit_access = core.emit_access
        if emit_access is not None:
            # A read-modify-write conflicts with everything a write does
            # (prior reads and writes alike), so one write event suffices.
            emit_access(core.pid, runs, True, False, core.proc.now)
        if not core.runs_all_writable(runs):
            yield from core.ensure_writable_runs(runs)
        self._view[key] += values

    # ------------------------------------------------------------------
    def pages(self) -> range:
        """Pages this array spans (for tests and reports)."""
        page = self.tmk.core.cost.page_size
        first = self.addr // page
        last = (self.addr + max(self.nbytes, 1) - 1) // page
        return range(first, last + 1)

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SharedArray addr={self.addr:#x} shape={self.shape} "
                f"dtype={self.dtype}>")


class DsmSystem:
    """Cluster-global state every page-based runtime starts from: the
    shared heap, bounded by the address space each processor reserves,
    and the number of application processors."""

    def __init__(self, cluster: "Cluster", bound: int = ADDRESS_SPACE) -> None:
        self.cluster = cluster
        self.heap = SharedHeap(bound, cluster.cost.page_size)
        #: Processors 0 .. nclients-1 run the application and take part
        #: in synchronization and page management (SC-ABD appends its
        #: replica servers after them).
        self.nclients = cluster.nprocs

    def attach(self, endpoint_cls: type) -> List[Any]:
        """One ``endpoint_cls`` per application processor, set as
        ``proc.tmk`` -- the attribute the applications use, whichever
        runtime is attached."""
        endpoints = []
        for proc in self.cluster.procs[:self.nclients]:
            proc.tmk = endpoint_cls(proc, self)
            endpoints.append(proc.tmk)
        return endpoints


class DsmCore:
    """One processor's consistency protocol, as :class:`SharedArray` and
    the endpoint see it: the paged copy of the shared address space, the
    channel its messages go out on, and the access checks.

    A protocol implements :meth:`ensure_valid_runs` and
    :meth:`ensure_writable_runs` (generators; they fault pages in and may
    block).  Everything else is optional and declared here with the
    default that means "no fast path".
    """

    #: Stats system the protocol's own traffic is accounted under.
    wire_system = "tmk"
    #: True makes ``SharedArray.write`` store a multi-page selection page
    #: piece by page piece, each under momentary ownership -- what a
    #: single-writer protocol needs, because holding many contended pages
    #: at once can livelock.
    prefers_piecewise_writes = False

    def __init__(self, proc: "Processor", system: DsmSystem) -> None:
        self.proc = proc
        self.system = system
        self.pid = proc.pid
        self.cost = proc.cluster.cost
        self.pt = PageTable(self.cost.page_size, system.heap.bound)
        self.pt.grow(system.heap.pages)
        system.heap.on_grow.append(self.grow)
        self.udp = UdpChannel(proc.cluster.net, system=self.wire_system)
        #: The event stream's ``access`` handler, or None while nothing
        #: consumes accesses (kept by ``Cluster.mirror_access``).
        self.emit_access = None
        proc.cluster.mirror_access(self)

    def grow(self, npages: int) -> None:
        """Extend the per-page state to the heap's ``npages`` pages."""
        self.pt.grow(npages)

    def runs_all_valid(self, runs) -> bool:
        """Synchronous check that a read of ``runs`` cannot fault; False
        sends the access through :meth:`ensure_valid_runs`."""
        return False

    def runs_all_writable(self, runs) -> bool:
        """As :meth:`runs_all_valid`, for a store."""
        return False

    def ensure_valid_runs(self, runs):
        raise NotImplementedError

    def ensure_writable_runs(self, runs):
        raise NotImplementedError


class DsmEndpoint:
    """``proc.tmk`` on every page-based runtime (TreadMarks, IVY,
    SC-ABD): identity, allocation, synchronization and the diagnostics.
    A runtime's subclass only builds its ``core``, ``locks`` and
    ``barriers``."""

    core: DsmCore
    locks: Any
    barriers: Any

    def __init__(self, proc: "Processor", system: DsmSystem) -> None:
        self.proc = proc
        self.system = system
        self._arrays: Dict[str, SharedArray] = {}

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def nprocs(self) -> int:
        """The *application* processor count: work partitioning and
        barrier membership never include service processors."""
        return self.system.nclients

    def malloc(self, nbytes: int, align: int | None = None) -> int:
        """Raw shared allocation; returns the shared address."""
        return self.system.heap.malloc(nbytes, align)

    def array_at(self, addr: int, shape: Tuple[int, ...],
                 dtype) -> SharedArray:
        """A typed shared window over an existing allocation."""
        return SharedArray(self, addr, shape, np.dtype(dtype))

    def shared_array(self, name: str, shape: Tuple[int, ...], dtype,
                     align: int | None = None) -> SharedArray:
        """Named idempotent allocation: every processor calling with the
        same name receives a window onto the same shared bytes."""
        arr = self._arrays.get(name)
        if arr is None:
            addr = self.system.heap.named(name, tuple(shape), np.dtype(dtype),
                                          align)
            arr = SharedArray(self, addr, tuple(shape), np.dtype(dtype))
            self._arrays[name] = arr
        return arr

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def barrier(self, bid: int):
        """Stall until every processor reaches barrier ``bid``."""
        yield from self.barriers.barrier(bid)

    def lock_acquire(self, lock: int):
        yield from self.locks.acquire(lock)

    def lock_release(self, lock: int):
        yield from self.locks.release(lock)

    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        return self.core.fault_count

    @property
    def lock_wait_time(self) -> float:
        return self.locks.wait_time

    @property
    def barrier_wait_time(self) -> float:
        return self.barriers.wait_time
