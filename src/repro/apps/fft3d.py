"""3-D FFT (NAS FT kernel): spectral PDE solver with transposes.

The array is distributed along its first dimension; the first two 1-D FFT
passes are local, then "the resulting array is transposed" so the third
pass becomes local too.  "The processors communicate with each other at
the transpose because each processor accesses a different set of elements
afterwards."

* **TreadMarks**: each processor writes its slab's columns *transposed*
  into the shared destination array -- strided writes that touch every
  destination page, so each page is modified by several writers (the
  multiple-writer protocol merges the twins' diffs).  After the barrier a
  processor faults on its own slab's pages and sends a diff request to
  every writer of each page: almost the same *data* volume as PVM (thanks
  to release consistency the diffs contain exactly the written words), but
  many more *messages* under the page-based invalidate protocol
  (Figure 11).  When slab boundaries fall mid-page, a page written by one
  processor is read by two, and the same diff is shipped twice -- the
  paper's false-sharing anomaly at processor counts that do not divide
  the array axes evenly.
* **PVM**: the transpose is explicit messages -- "we must figure out where
  each part of the A array goes and where each part of the B array comes
  from", the index arithmetic the paper calls much harder to write.  One
  message per (sender, receiver) pair per transpose.

Per iteration: evolve in frequency space, inverse-transform along the
local axis, transpose back, finish the inverse transform -- one measured
transpose per direction.  The initial forward 3-D FFT (and its data
distribution) is excluded from measurement, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.base import AppSpec, register

__all__ = ["FftParams", "APP"]

#: Virtual CPU seconds per point per 1-D FFT pass.
FFT_CPU = 4.0e-6
#: Virtual CPU seconds per point for the frequency-space evolution.
EVOLVE_CPU = 0.2e-6
_EVOLVE = 0.98


@dataclass(frozen=True)
class FftParams:
    n1: int = 64
    n2: int = 64
    n3: int = 32
    iterations: int = 4
    seed: int = 173205

    @classmethod
    def tiny(cls) -> "FftParams":
        return cls(n1=16, n2=12, n3=8, iterations=2)

    @classmethod
    def bench(cls) -> "FftParams":
        """64 x 64 x 32: like the paper's size, slab boundaries align with
        pages at power-of-two processor counts; at 3, 5, 6, 7 processors
        slices straddle pages mid-row and the same diff is shipped to two
        readers -- the paper's false-sharing anomaly."""
        return cls(n1=64, n2=64, n3=32, iterations=4)

    @classmethod
    def paper(cls) -> "FftParams":
        """128 x 128 x 64 double-precision complex, 6 iterations (half of
        NAS class A, as the paper scaled down for swap space)."""
        return cls(n1=128, n2=128, n3=64, iterations=6)

    @property
    def points(self) -> int:
        return self.n1 * self.n2 * self.n3


def initial_field(params: FftParams) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(params.seed))
    re = rng.uniform(-1, 1, size=(params.n1, params.n2, params.n3))
    im = rng.uniform(-1, 1, size=(params.n1, params.n2, params.n3))
    return re + 1j * im


def slab(pid: int, nprocs: int, extent: int) -> Tuple[int, int]:
    lo = pid * extent // nprocs
    hi = (pid + 1) * extent // nprocs
    return lo, hi


def _fft_cost(npoints: int, passes: int) -> float:
    return npoints * passes * FFT_CPU


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
def sequential(meter, params: FftParams):
    a = initial_field(params)
    # Forward 3-D FFT (excluded from measurement, like the paper's
    # initial distribution).
    freq = np.fft.fft(np.fft.fft(np.fft.fft(a, axis=2), axis=1), axis=0)
    meter.compute(_fft_cost(params.points, 3))
    meter.mark()
    checksums: List[complex] = []
    for _ in range(params.iterations):
        freq = freq * _EVOLVE
        meter.compute(params.points * EVOLVE_CPU)
        a = np.fft.ifft(np.fft.ifft(np.fft.ifft(freq, axis=0), axis=1), axis=2)
        meter.compute(_fft_cost(params.points, 3))
        checksums.append(complex(a.sum()))
        freq = np.fft.fft(np.fft.fft(np.fft.fft(a, axis=2), axis=1), axis=0)
        meter.compute(_fft_cost(params.points, 3))
    return np.array(checksums)


# ----------------------------------------------------------------------
# TreadMarks
# ----------------------------------------------------------------------
def tmk_main(proc, params: FftParams):
    tmk = proc.tmk
    n1, n2, n3 = params.n1, params.n2, params.n3
    # Shared transpose targets; working slabs are private, as in the tuned
    # SPLASH/NAS ports.  The target layouts put each writer's contribution
    # in *contiguous* middle-axis slices -- B is (n3, n1, n2) so writer p
    # fills B[:, ilo:ihi, :], and A2 is (n1, n3, n2) so writer q fills
    # A2[:, klo:khi, :].  Most destination pages therefore have a single
    # writer and one diff request suffices per page (the paper: "each
    # transpose requires about <data/page-size> diff requests and
    # responses"); pages straddling a slab boundary have two readers and
    # ship the same diff twice -- the paper's false-sharing anomaly.
    shared_b = tmk.shared_array("fft_b", (n3, n1, n2), np.complex128)
    shared_a2 = tmk.shared_array("fft_a2", (n1, n3, n2), np.complex128)
    ilo, ihi = slab(tmk.pid, tmk.nprocs, n1)   # my planes of A (axis i)
    klo, khi = slab(tmk.pid, tmk.nprocs, n3)   # my planes of B (axis k)
    my_points_a = (ihi - ilo) * n2 * n3
    my_points_b = (khi - klo) * n2 * n1

    # Per-processor barrier sequence (every processor issues the same ids
    # in the same order).
    bid = [100]

    def next_barrier():
        yield from tmk.barrier(bid[0])
        bid[0] += 1

    def transpose_a_to_b(a_slab: np.ndarray):
        """a_slab is (i, j, k); write (k, i, j) slices; read my k-slab."""
        yield from shared_b.write((slice(None), slice(ilo, ihi), slice(None)),
                                  a_slab.transpose(2, 0, 1))
        yield from next_barrier()
        block = yield from shared_b.read(
            (slice(klo, khi), slice(None), slice(None)))
        return np.asarray(block).copy()

    def transpose_b_to_a(b_slab: np.ndarray):
        """b_slab is (k, i, j); write (i, k, j) slices; read my i-slab."""
        yield from shared_a2.write((slice(None), slice(klo, khi), slice(None)),
                                   b_slab.transpose(1, 0, 2))
        yield from next_barrier()
        block = yield from shared_a2.read(
            (slice(ilo, ihi), slice(None), slice(None)))
        return np.asarray(block).copy()

    a_slab = initial_field(params)[ilo:ihi]
    # Forward 3-D FFT (warm-up, excluded -- the paper excludes the initial
    # distribution).
    work = np.fft.fft(np.fft.fft(a_slab, axis=2), axis=1)
    proc.compute(_fft_cost(my_points_a, 2))
    b_slab = yield from transpose_a_to_b(work)   # (k, i, j)
    freq = np.fft.fft(b_slab, axis=1)        # n1-point FFTs, now local
    proc.compute(_fft_cost(my_points_b, 1))
    yield from next_barrier()
    if tmk.pid == 0:
        proc.cluster.start_measurement(proc)
    checksums: List[complex] = []
    for _ in range(params.iterations):
        freq = freq * _EVOLVE
        proc.compute(my_points_b * EVOLVE_CPU)
        # Inverse: the local n1 axis first, transpose back, then the rest.
        work = np.fft.ifft(freq, axis=1)
        proc.compute(_fft_cost(my_points_b, 1))
        a2_slab = yield from transpose_b_to_a(work)   # (i, k, j)
        a2_slab = np.fft.ifft(np.fft.ifft(a2_slab, axis=1), axis=2)
        proc.compute(_fft_cost(my_points_a, 2))
        checksums.append(complex(a2_slab.sum()))
        # Forward again for the next evolution step: a2_slab is (i, k, j);
        # FFT over j and k, then hand (i, j, k) to the transpose.
        work = np.fft.fft(np.fft.fft(a2_slab, axis=2), axis=1)
        proc.compute(_fft_cost(my_points_a, 2))
        b_slab = yield from transpose_a_to_b(work.transpose(0, 2, 1))
        freq = np.fft.fft(b_slab, axis=1)
        proc.compute(_fft_cost(my_points_b, 1))
    if tmk.pid == 0:
        proc.cluster.stop_measurement(proc)
    return np.array(checksums)


# ----------------------------------------------------------------------
# PVM
# ----------------------------------------------------------------------
_TAG_FWD = 70
_TAG_BWD = 71


def _pvm_transpose(pvm, proc, local: np.ndarray, my_lo: int,
                   src_extent: int, dst_extent: int, tag: int):
    """All-to-all transpose: ``local`` is my (planes, n_mid, src_extent)
    slab; returns my (dst planes, n_mid, src_total...) transposed slab.

    The explicit index bookkeeping here is exactly what the paper calls
    "much more error-prone than simply swapping the indices as in
    TreadMarks".
    """
    me, n = pvm.mytid, pvm.nprocs
    n_mid = local.shape[1]
    dlo, dhi = slab(me, n, dst_extent)
    out = np.empty((dhi - dlo, n_mid, src_extent), dtype=np.complex128)
    # My own block transposes locally.
    out[:, :, my_lo: my_lo + local.shape[0]] = \
        local[:, :, dlo:dhi].transpose(2, 1, 0)
    # Send every other processor its destination block of my slab.
    for p in range(n):
        if p == me:
            continue
        plo, phi = slab(p, n, dst_extent)
        block = local[:, :, plo:phi].transpose(2, 1, 0)
        buf = pvm.initsend()
        buf.pkdcplx(np.ascontiguousarray(block).reshape(-1))
        yield from pvm.send(p, tag, buf)
    for _ in range(n - 1):
        got = yield from pvm.recv(-1, tag)
        slo, shi = slab(got.src, n, src_extent)
        count = (dhi - dlo) * n_mid * (shi - slo)
        out[:, :, slo:shi] = got.upkdcplx(count).reshape(
            dhi - dlo, n_mid, shi - slo)
    return out


def pvm_main(proc, params: FftParams):
    pvm = proc.pvm
    me, n = pvm.mytid, pvm.nprocs
    n1, n2, n3 = params.n1, params.n2, params.n3
    ilo, ihi = slab(me, n, n1)
    klo, khi = slab(me, n, n3)
    my_points_a = (ihi - ilo) * n2 * n3
    my_points_b = (khi - klo) * n2 * n1

    a_slab = initial_field(params)[ilo:ihi]
    work = np.fft.fft(np.fft.fft(a_slab, axis=2), axis=1)
    proc.compute(_fft_cost(my_points_a, 2))
    b_slab = yield from _pvm_transpose(pvm, proc, work, ilo, n1, n3, _TAG_FWD)
    freq = np.fft.fft(b_slab, axis=2)
    proc.compute(_fft_cost(my_points_b, 1))
    if me == 0:
        proc.cluster.start_measurement(proc)
    checksums: List[complex] = []
    for _ in range(params.iterations):
        freq = freq * _EVOLVE
        proc.compute(my_points_b * EVOLVE_CPU)
        work = np.fft.ifft(freq, axis=2)
        proc.compute(_fft_cost(my_points_b, 1))
        a_slab = yield from _pvm_transpose(pvm, proc, work, klo, n3, n1,
                                           _TAG_BWD)
        a_slab = np.fft.ifft(np.fft.ifft(a_slab, axis=1), axis=2)
        proc.compute(_fft_cost(my_points_a, 2))
        checksums.append(complex(a_slab.sum()))
        work = np.fft.fft(np.fft.fft(a_slab, axis=2), axis=1)
        proc.compute(_fft_cost(my_points_a, 2))
        b_slab = yield from _pvm_transpose(pvm, proc, work, ilo, n1, n3,
                                           _TAG_FWD)
        freq = np.fft.fft(b_slab, axis=2)
        proc.compute(_fft_cost(my_points_b, 1))
    return np.array(checksums)


def _collect(results):
    """Per-iteration checksums are partial sums over slabs: add them."""
    return np.sum(np.stack(results), axis=0)


def _verify(par, seq) -> bool:
    return np.allclose(par, seq, rtol=1e-9, atol=1e-12)


APP = register(AppSpec(
    name="fft3d",
    sequential=sequential,
    tmk_main=tmk_main,
    pvm_main=pvm_main,
    verify=_verify,
    collect=_collect,
))
