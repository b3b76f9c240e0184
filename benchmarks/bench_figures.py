"""Figures 1-12: the paper's speedup curves, one benchmark per experiment.

Each case regenerates one figure: it sweeps 1..8 simulated processors for
both systems, renders the speedup curves, evaluates the paper's
qualitative expectations (``repro.bench.paper.EXPECTATIONS``, whose
``note`` says what the paper reports for that figure), prints the report
to the terminal and archives it as ``benchmarks/reports/figNN.txt``.  The
pytest-benchmark timing measures the host cost of the 8-processor
TreadMarks simulation -- the heaviest unit of the sweep.
"""

import os

import pytest
from _common import PRESET, emit

from repro import api
from repro.bench import figures, harness, paper

#: Processor counts swept.  Set REPRO_BENCH_FAST=1 to sweep only 1, 2, 4,
#: 8 (roughly halves the suite's runtime).
if os.environ.get("REPRO_BENCH_FAST"):
    NPROCS = (1, 2, 4, 8)
else:
    NPROCS = harness.NPROCS_SERIES


@pytest.mark.parametrize("exp_id", list(harness.EXPERIMENTS))
def test_figure(benchmark, capsys, exp_id):
    exp = harness.EXPERIMENTS[exp_id]
    # Time the heaviest unit as a *live* simulation (use_cache=False so a
    # warm persistent cache cannot turn this into a disk read); the
    # in-process memo still shares the run with the series below.
    benchmark.pedantic(
        lambda: api.run(api.RunConfig(experiment=exp_id, system="tmk",
                                      nprocs=8, preset=PRESET),
                        use_cache=False, want_parallel=True),
        rounds=1, iterations=1)
    tmk = api.speedup_series(exp_id, "tmk", NPROCS, PRESET)
    pvm = api.speedup_series(exp_id, "pvm", NPROCS, PRESET)
    title = f"Figure {exp.figure}: {exp.label} ({PRESET} preset: " \
            f"{harness.size_string(exp, PRESET)})"
    checks = paper.check_experiment(exp_id, PRESET)
    report = "\n".join(
        [figures.render_figure(title, NPROCS, tmk, pvm), ""]
        + [str(c) for c in checks])
    emit(capsys, exp_id, report)
    failed = [c for c in checks if not c.passed]
    assert not failed, (f"{exp.label} ({paper.EXPECTATIONS[exp_id].note}): "
                        + "; ".join(str(c) for c in failed))
