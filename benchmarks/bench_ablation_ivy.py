"""Ablation: TreadMarks (lazy RC, multiple writer) vs IVY (sequential
consistency, single writer).

The decade of DSM progress the paper's introduction alludes to, made
measurable: the same application binaries run on both runtimes.  Under
IVY every write fault invalidates all copies and moves a whole 4-KB
page, so false sharing turns into page ping-pong; TreadMarks' diffs and
lazy notices remove almost all of it.
"""

from _common import PRESET, emit

from repro.apps import base
from repro.api import RunConfig
from repro.bench import harness


def test_ablation_ivy_vs_treadmarks(benchmark, capsys):
    rows = ["Ablation: lazy RC (TreadMarks) vs sequential consistency "
            "(IVY), 8 processors",
            "",
            f"{'experiment':<13}{'runtime':<12}{'messages':>10}{'KB':>10}"
            f"{'speedup':>9}",
            "-" * 54]
    water_pair = None
    for exp_id in ("fig08", "fig03"):  # Water-288 and SOR-NonZero (DRF)
        exp = harness.EXPERIMENTS[exp_id]
        params = harness.params_for(exp, PRESET)
        seq = harness.seq_time(exp_id, PRESET)
        tmk = harness.run_cached(RunConfig(exp_id, "tmk", 8, PRESET))
        if exp_id == "fig08":
            ivy = benchmark.pedantic(
                lambda: base.run_parallel(exp.app, "ivy", 8, params),
                rounds=1, iterations=1)
            water_pair = (tmk, ivy)
        else:
            ivy = base.run_parallel(exp.app, "ivy", 8, params)
        for label, run in (("TreadMarks", tmk), ("IVY (SC)", ivy)):
            rows.append(f"{exp.label:<13}{label:<12}"
                        f"{run.total_messages():>10d}"
                        f"{run.total_kbytes():>10.0f}"
                        f"{seq / run.time:>9.2f}")
    rows += ["",
             "Note: IS and similar TreadMarks programs that re-read shared",
             "data after a barrier while a faster processor already started",
             "the next interval are LRC-legal but not data-race-free; they",
             "need an extra barrier under sequential consistency (see",
             "tests/ivy/test_ivy.py::TestConsistencyModelDifference)."]
    emit(capsys, "ablation_ivy", "\n".join(rows))

    tmk, ivy = water_pair
    assert ivy.total_kbytes() > tmk.total_kbytes(), \
        "whole-page transfers must move more data than diffs"
    assert ivy.time > tmk.time, \
        "page ping-pong must cost IVY time on Water's shared pages"
