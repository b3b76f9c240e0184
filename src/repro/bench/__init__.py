"""Experiment harness reproducing the paper's tables and figures.

* :mod:`repro.bench.harness` -- the registry of the paper's 12 experiment
  configurations and their sequential-oracle memo (runs execute through
  :func:`repro.api.run`).
* :mod:`repro.bench.tables` -- Table 1 (sequential times) and Table 2
  (messages and data at 8 processors) renderers.
* :mod:`repro.bench.figures` -- ASCII speedup curves in the style of the
  paper's Figures 1-12.
* :mod:`repro.bench.paper` -- the paper's qualitative expectations (who
  wins, by roughly what factor) and checks against measured results.
* :mod:`repro.bench.sweep` -- the parallel sweep runner (``repro sweep``).
* :mod:`repro.bench.views` -- the views of a run (figure, profile,
  trace): one table that generates their CLI verbs, worker-pool task
  kinds and ``repro serve`` routes.
* :mod:`repro.bench.cache` -- the persistent content-addressed result
  cache that :func:`repro.api.run` and the sweep read through.
"""

from repro.bench.cache import ResultCache, default_cache
from repro.bench.harness import EXPERIMENTS, Experiment, clear_cache
from repro.bench.figures import render_figure
from repro.bench.paper import EXPECTATIONS, Expectation, check_experiment
from repro.bench.sweep import SweepReport, SweepRun, run_sweep, sweep_configs
from repro.bench.tables import render_table1, render_table2

__all__ = [
    "EXPECTATIONS",
    "EXPERIMENTS",
    "Expectation",
    "Experiment",
    "ResultCache",
    "SweepReport",
    "SweepRun",
    "check_experiment",
    "clear_cache",
    "default_cache",
    "render_figure",
    "render_table1",
    "render_table2",
    "run_sweep",
    "sweep_configs",
]
