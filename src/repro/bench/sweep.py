"""Parallel sweep runner: fan the paper's run grid across CPU cores.

The full evaluation is 24 independent runs (12 experiments x tmk/pvm) per
processor count, and each run is a deterministic single-threaded
simulation -- an embarrassingly parallel workload.  :func:`run_sweep`
submits a list of :class:`repro.api.RunConfig` to the spawn worker pool
``repro serve`` uses too (:mod:`repro.bench.pool`), driving its asyncio
``run`` through ``asyncio.run``; ``jobs <= 1`` runs in-process.

Workers exchange only JSON: each receives one serialized config, executes
it through :func:`repro.api.run` (which consults and populates the shared
on-disk result cache -- writes are atomic, so concurrent workers are
safe), and returns the canonical :class:`~repro.api.RunResult` bytes or
the error it raised.  A worker that dies takes the pool's crash policy:
every run it took down is re-run alone, so only the run that kills its
worker twice is reported as an error.  Because the simulator is
bit-for-bit deterministic and results are canonically encoded, a
parallel sweep is byte-identical to a serial one, errors included -- a
property ``tests/bench/test_sweep.py`` asserts over the whole grid.

``repro sweep`` is the CLI entry point; :func:`sweep_configs` builds the
standard grids it offers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.bench.cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import RunConfig, RunResult

# NOTE: repro.api is imported inside functions throughout this module.
# ``repro.bench.__init__`` imports sweep, and repro.api imports
# ``repro.bench.cache`` (which initializes the repro.bench package), so a
# module-level import either way would be circular.

__all__ = ["SweepReport", "SweepRun", "default_jobs", "run_sweep",
           "sweep_configs"]


def default_jobs() -> int:
    """A sensible worker count: the machine's CPU count."""
    return max(1, os.cpu_count() or 1)


def sweep_configs(experiments: Optional[Sequence[str]] = None,
                  systems: Sequence[str] = ("tmk", "pvm"),
                  nprocs: Sequence[int] = (8,),
                  preset: str = "bench") -> List[RunConfig]:
    """The standard run grid: experiments x systems x processor counts.

    ``experiments=None`` (or the single id ``"all"``) means all twelve
    paper configurations, in figure order -- with the default arguments
    that is the 24-run grid behind the figures and tables.  An invalid
    point raises ``RunConfig``'s ``ValueError``.
    """
    from repro.api import RunConfig
    from repro.bench import harness
    if experiments is None or list(experiments) == ["all"]:
        experiments = list(harness.EXPERIMENTS)
    return [RunConfig(experiment=exp_id, system=system, nprocs=n,
                      preset=preset)
            for exp_id in experiments
            for system in systems
            for n in nprocs]


@dataclass
class SweepRun:
    """One run of a sweep: a result, or a recorded per-run error.

    A run that raises, or whose worker process dies, does not kill the
    sweep: the failed run carries ``error`` (and ``result is None``)
    while every other run completes normally.
    """

    config: RunConfig
    result: Optional[RunResult]
    #: True when the run was served from the persistent cache.
    cached: bool
    #: Host wall-clock seconds this run took (~0 on a cache hit).
    wall_seconds: float
    #: Why this run produced no result (``None`` on success).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    def to_json(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_json(),
            "result": self.result.to_json() if self.result is not None
            else None,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """The outcome of one sweep: every run plus aggregate accounting."""

    runs: List[SweepRun]
    jobs: int
    wall_seconds: float

    @property
    def hits(self) -> int:
        return sum(1 for r in self.runs if r.cached)

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.runs) if self.runs else 0.0

    @property
    def errors(self) -> int:
        return sum(1 for r in self.runs if not r.ok)

    def to_json(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "runs": [r.to_json() for r in self.runs],
            "cache_hits": self.hits,
            "cache_hit_rate": self.hit_rate,
            "errors": self.errors,
        }

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"{'experiment':<12} {'system':<6} {'np':>3} {'preset':<6} "
            f"{'time':>12} {'speedup':>8} {'msgs':>10} {'cached':>6}",
        ]
        for r in self.runs:
            c = r.config
            if r.result is None:
                lines.append(
                    f"{c.experiment:<12} {c.system:<6} {c.nprocs:>3} "
                    f"{c.preset:<6} ERROR: {r.error}")
                continue
            lines.append(
                f"{c.experiment:<12} {c.system:<6} {c.nprocs:>3} "
                f"{c.preset:<6} {r.result.time:>12.6f} "
                f"{r.result.speedup:>8.2f} {r.result.messages:>10} "
                f"{'yes' if r.cached else 'no':>6}")
        summary = (f"{len(self.runs)} runs, {self.jobs} jobs, "
                   f"{self.wall_seconds:.2f}s wall, "
                   f"{self.hits}/{len(self.runs)} cache hits")
        if self.errors:
            summary += f", {self.errors} error(s)"
        lines.append(summary)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _failed(config: RunConfig, message: str) -> SweepRun:
    return SweepRun(config=config, result=None, cached=False,
                    wall_seconds=0.0, error=message)


def _run_serial(configs: Sequence[RunConfig], use_cache: bool,
                cache: Optional[ResultCache]) -> List[SweepRun]:
    from repro.api import run
    runs = []
    for config in configs:
        started = time.perf_counter()
        try:
            result = run(config, use_cache=use_cache, cache=cache)
        except Exception as exc:  # reads as a worker's TaskError
            runs.append(_failed(config, f"{type(exc).__name__}: {exc}"))
            continue
        result.parallel = None  # summary-level parity with worker results
        runs.append(SweepRun(config=config, result=result,
                             cached=result.cached,
                             wall_seconds=time.perf_counter() - started))
    return runs


def _run_parallel(configs: Sequence[RunConfig], jobs: int,
                  cache_dir: Optional[str],
                  use_cache: bool) -> List[SweepRun]:
    # Imported here so the serial path (and every grid that imports
    # repro.bench) never loads asyncio or multiprocessing.
    import asyncio

    from repro.api import RunResult
    from repro.bench.pool import TaskError, WorkerCrash, WorkerPool

    async def one(pool: WorkerPool, config: RunConfig) -> SweepRun:
        try:
            out = await pool.run({"kind": "run", "config": config.to_json(),
                                  "use_cache": use_cache})
        except (TaskError, WorkerCrash) as exc:
            return _failed(config, str(exc))
        result = RunResult.from_json(json.loads(out["body"]),
                                     cached=out["cached"])
        return SweepRun(config=config, result=result, cached=result.cached,
                        wall_seconds=out["wall_seconds"])

    async def sweep() -> List[SweepRun]:
        pool = WorkerPool(jobs, cache_dir=cache_dir)
        try:
            return list(await asyncio.gather(
                *(one(pool, config) for config in configs)))
        finally:
            pool.shutdown()

    return asyncio.run(sweep())


def run_sweep(configs: Iterable[RunConfig], jobs: int = 1, *,
              use_cache: bool = True,
              cache_dir: Optional[str] = None) -> SweepReport:
    """Run every config, using up to ``jobs`` worker processes.

    Report order always matches input order regardless of completion
    order, so serial and parallel sweeps produce identical reports --
    a run that raises is the same per-run error either way.  With
    ``jobs <= 1`` everything runs in the calling process.
    """
    configs = list(configs)
    jobs = min(max(1, jobs), len(configs)) if configs else 1
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
    cache = ResultCache(cache_dir) if (use_cache and cache_dir) else None
    started = time.perf_counter()
    if jobs <= 1:
        runs = _run_serial(configs, use_cache, cache)
    else:
        runs = _run_parallel(configs, jobs, cache_dir, use_cache)
    return SweepReport(runs=runs, jobs=jobs,
                       wall_seconds=time.perf_counter() - started)
