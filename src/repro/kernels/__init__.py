"""repro.kernels -- the page-op kernels behind a frozen interface.

The DSM hot path (diff creation, diff application, twin comparison,
fault checks) is expressed as six pure functions over raw byte buffers
(:mod:`repro.kernels.interface`).  Three backends implement them:

- ``pure``     -- the pure-Python reference; canonical semantics.
- ``numpy``    -- vectorized diff creation and fault scan (the other
  three ops are ``pure``'s); the fast path where no C compiler exists.
- ``compiled`` -- the C extension ``tools/build_kernels.py`` builds.

Which one a run uses is observed, not configured:
:func:`get_backend` with no argument returns ``compiled`` when the
extension imports and ``numpy`` otherwise.  A name is for tests (which
substitute the ``pure`` reference) and the frozen benchmark.  Every
backend is byte-identical to ``pure`` (asserted by ``tests/kernels``),
so simulated results, golden traces, and cache keys never depend on it.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels import compiled, numpy_backend, pure
from repro.kernels.interface import RUN_HEADER_BYTES, WORD, KernelBackend, Runs

__all__ = [
    "KernelBackend",
    "RUN_HEADER_BYTES",
    "Runs",
    "WORD",
    "get_backend",
]

#: The fastest backend this process can run, fixed at import.
_BEST = compiled.BACKEND if compiled.BACKEND is not None \
    else numpy_backend.BACKEND

_BY_NAME = {
    "pure": pure.BACKEND,
    "numpy": numpy_backend.BACKEND,
    # Unbuilt, the name resolves like None does, so asking is always safe.
    "compiled": _BEST,
}


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """None = best available; a name is for tests and the frozen
    benchmark.  An unknown name raises ``ValueError``."""
    if name is None:
        return _BEST
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown kernels backend {name!r}; "
            f"choose from {sorted(_BY_NAME)}") from None
