"""repro: reproduction of "Message Passing Versus Distributed Shared Memory
on Networks of Workstations" (Lu, Dwarkadas, Cox, Zwaenepoel -- SC 1995).

The front door is :mod:`repro.api`::

    from repro.api import RunConfig, run
    result = run(RunConfig(experiment="fig02", system="tmk", nprocs=8))
    print(result.speedup, result.messages)

``run()`` reads through a persistent on-disk result cache; ``repro sweep``
(:mod:`repro.bench.sweep`) fans the whole grid across CPU cores through
the same cache.  The layers underneath:

* ``repro.sim`` -- the simulated cluster substrate.
* ``repro.tmk`` -- the TreadMarks-style software DSM runtime.
* ``repro.pvm`` -- the PVM-style message-passing library.
* ``repro.apps`` -- the nine benchmark applications, each in sequential,
  TreadMarks, and PVM versions.
* ``repro.bench`` -- the experiment harness reproducing the paper's tables
  and figures, the sweep runner, and the result cache.
"""

from typing import Any

__version__ = "2.0.0"

#: The curated public surface.  Everything here is importable directly
#: from ``repro`` and resolved lazily (PEP 562), so ``import repro``
#: stays cheap and circular-import-free.
__all__ = [
    "RunConfig",
    "RunResult",
    "run",
    "run_sweep",
    "sweep_configs",
    "ResultCache",
    "EXPERIMENTS",
    "__version__",
]

_LAZY = {
    "RunConfig": ("repro.api", "RunConfig"),
    "RunResult": ("repro.api", "RunResult"),
    "run": ("repro.api", "run"),
    "run_sweep": ("repro.bench.sweep", "run_sweep"),
    "sweep_configs": ("repro.bench.sweep", "sweep_configs"),
    "ResultCache": ("repro.bench.cache", "ResultCache"),
    "EXPERIMENTS": ("repro.bench.harness", "EXPERIMENTS"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
