"""Host-time layers: one table from ``repro.*`` module names to layer names.

A cProfile run charges every function its own (``tottime``) seconds;
:func:`fold` sums those by the layer of the module the function lives in,
so the layers tile the profiled time exactly once.  The layer names are
the repo's module names -- a perf claim names one of them.

Two rules keep the table honest:

* every module under ``src/repro`` must be listed (:func:`check_tree`): a
  new module fails the traced pass instead of sliding into ``other``;
* C functions have no module of their own, so their time goes to the
  layer of the *calling* frame (numpy work done for ``apps`` is ``apps``
  time) -- except the compiled page-op kernels, which are ``kernels``.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Tuple

__all__ = ["LAYERS", "UnmappedModule", "calls_of", "check_tree", "fold",
           "layer_of"]

#: Report order.  ``other`` is everything outside ``repro`` (stdlib, numpy
#: and asyncio frames, the benchmark's own wrappers).
LAYERS: Tuple[str, ...] = (
    "apps",
    "tmk.sharedmem", "tmk.consistency", "tmk.intervals", "tmk.diffs",
    "tmk.pages", "tmk.locks", "tmk.barrier", "tmk.protocol",
    "kernels", "pvm",
    "sim.engine", "sim.network", "sim.cluster",
    "bench", "api", "serve",
    "instrumentation", "other",
)

#: Modules matched by exact name (package ``__init__`` files, so that a
#: package entry does not swallow new submodules).
_EXACT: Mapping[str, str] = {
    "repro": "other",
    "repro.__main__": "other",
    "repro.tmk": "tmk.protocol",
    "repro.sim": "sim.cluster",
}

#: ``module == prefix`` or ``module.startswith(prefix + ".")``.
_PREFIX: Tuple[Tuple[str, str], ...] = (
    ("repro.apps", "apps"),
    ("repro.tmk.sharedmem", "tmk.sharedmem"),
    ("repro.tmk.consistency", "tmk.consistency"),
    ("repro.tmk.intervals", "tmk.intervals"),
    ("repro.tmk.diffs", "tmk.diffs"),
    ("repro.tmk.pages", "tmk.pages"),
    ("repro.tmk.locks", "tmk.locks"),
    ("repro.tmk.barrier", "tmk.barrier"),
    # Wire formats plus the thin Tmk endpoint that dispatches into the
    # subsystems above.
    ("repro.tmk.protocol", "tmk.protocol"),
    ("repro.tmk.api", "tmk.protocol"),
    ("repro.kernels", "kernels"),
    ("repro.pvm", "pvm"),
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.cluster", "sim.cluster"),
    ("repro.sim.stats", "sim.cluster"),
    ("repro.sim.costmodel", "sim.cluster"),
    ("repro.sim.trace", "sim.cluster"),
    ("repro.sim.faults", "sim.cluster"),
    ("repro.sim.recovery", "sim.cluster"),
    ("repro.bench", "bench"),
    ("repro.api", "api"),
    ("repro.serve", "serve"),
    # Must stay ~0: no workload turns observation on.
    ("repro.obs", "instrumentation"),
    ("repro.analysis", "instrumentation"),
    ("repro.verify", "instrumentation"),
    # Runtimes and front ends no workload executes (see README, "not
    # measured"); listed so the tree check passes, never expected to
    # show up in a profile.
    ("repro.ivy", "other"),
    ("repro.scabd", "other"),
    ("repro.cli", "other"),
)

_COMPILED_KERNELS = "repro.kernels._ckernels."


class UnmappedModule(Exception):
    """A ``repro.*`` module the layer table does not name."""


def layer_of(module: str) -> str:
    """Layer of a dotted module name; non-``repro`` modules are ``other``."""
    if module in _EXACT:
        return _EXACT[module]
    for prefix, layer in _PREFIX:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    if module == "repro" or module.startswith("repro."):
        raise UnmappedModule(
            f"{module} has no layer in benchmarks/e2e/layers.py")
    return "other"


def _module_of(filename: str, package_root: str) -> str:
    """Dotted module for a source path (``""`` outside the package)."""
    if not filename.startswith(package_root + os.sep):
        return ""
    rel = os.path.splitext(filename[len(package_root) + 1:])[0]
    parts = ["repro"] + rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def check_tree(package_root: str) -> int:
    """Every ``.py`` under the package has a layer; returns how many."""
    count = 0
    for dirpath, _, filenames in os.walk(package_root):
        for filename in filenames:
            if filename.endswith(".py"):
                layer_of(_module_of(os.path.join(dirpath, filename),
                                    package_root))
                count += 1
    return count


def profile_key(fn) -> Tuple[str, int, str]:
    """The key cProfile files ``fn`` under (Python or C function)."""
    code = getattr(fn, "__code__", None)
    if code is not None:
        return (code.co_filename, code.co_firstlineno, code.co_name)
    return ("~", 0, f"<built-in method {fn.__module__}.{fn.__name__}>")


def fold(stats: Mapping[tuple, tuple],
         package_root: str) -> Dict[str, Dict[str, float]]:
    """Sum cProfile ``tottime``/``ncalls`` by layer.

    ``stats`` is ``pstats.Stats(profile).stats``.  Raises
    :class:`UnmappedModule` for an unlisted ``repro`` module and
    ``ValueError`` when the layers do not add up to the profiled total
    within 2 % (time lost or double-charged by the caller attribution).
    """
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}

    def frame_layer(func: tuple) -> str:
        filename = func[0]
        if filename == "~":
            return "other"
        return layer_of(_module_of(filename, package_root))

    def charge(layer: str, seconds: float, calls: int) -> None:
        totals[layer]["self_s"] += seconds
        totals[layer]["calls"] += calls

    profiled = 0.0
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        profiled += tottime
        if func[0] != "~":
            charge(frame_layer(func), tottime, ncalls)
        elif _COMPILED_KERNELS in func[2]:
            charge("kernels", tottime, ncalls)
        else:
            left_s, left_calls = tottime, ncalls
            for caller, (c_calls, _, c_tottime, _) in callers.items():
                charge(frame_layer(caller), c_tottime, c_calls)
                left_s -= c_tottime
                left_calls -= c_calls
            # Called with no profiled caller (the profiler's own
            # enable/disable, callbacks run by the interpreter).
            charge("other", left_s, left_calls)
    tiled = sum(entry["self_s"] for entry in totals.values())
    if abs(tiled - profiled) > 0.02 * profiled:
        raise ValueError(
            f"layers sum to {tiled:.4f}s but the profile holds "
            f"{profiled:.4f}s: the fold does not tile")
    return totals


def calls_of(stats: Mapping[tuple, tuple], fn) -> int:
    """``ncalls`` of one function in a profile (0 when it never ran)."""
    entry = stats.get(profile_key(fn))
    return entry[1] if entry else 0
