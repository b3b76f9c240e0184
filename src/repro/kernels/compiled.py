"""The optional compiled backend: a thin wrapper over ``_ckernels``.

``_ckernels`` is a hand-written C extension (``_ckernels.c``) built on
demand by ``tools/build_kernels.py`` -- it is *not* part of a normal
checkout, and this module degrades gracefully when it is absent:
:data:`BACKEND` is ``None`` and ``get_backend()`` observes that and
returns the numpy backend.  When the extension is present, every function is a
direct C implementation of the ``pure`` contract (memcmp word compares,
memcpy patches), verified byte-identical by ``tests/kernels``.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.interface import KernelBackend

__all__ = ["BACKEND"]

BACKEND: Optional[KernelBackend]

try:
    from repro.kernels import _ckernels  # type: ignore[attr-defined]
except ImportError:  # extension not built -- get_backend() picks numpy
    BACKEND = None
else:
    BACKEND = KernelBackend(
        name="compiled",
        make_diff=_ckernels.make_diff,
        make_diff_batch=_ckernels.make_diff_batch,
        apply_diff=_ckernels.apply_diff,
        apply_diff_batch=_ckernels.apply_diff_batch,
        twin_compare=_ckernels.twin_compare,
        fault_scan=_ckernels.fault_scan,
    )
