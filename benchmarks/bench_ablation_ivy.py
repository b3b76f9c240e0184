"""Ablation: TreadMarks (lazy RC, multiple writer) vs IVY (sequential
consistency, single writer).

The decade of DSM progress the paper's introduction alludes to, made
measurable: the same application binaries run on both runtimes.  Under
IVY every write fault invalidates all copies and moves a whole 4-KB
page, so false sharing turns into page ping-pong; TreadMarks' diffs and
lazy notices remove almost all of it.
"""

from _common import PRESET, emit

from repro import api
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
        tmk = api.run(RunConfig(exp_id, "tmk", 8, PRESET))
        ivy_config = RunConfig(exp_id, "ivy", 8, PRESET)
        if exp_id == "fig08":
            # The timed unit always simulates (and stores its record).
            ivy = benchmark.pedantic(
                lambda: api.run(ivy_config, want_parallel=True),
                rounds=1, iterations=1)
            water_pair = (tmk, ivy)
        else:
            ivy = api.run(ivy_config)
        for label, run in (("TreadMarks", tmk), ("IVY (SC)", ivy)):
            rows.append(f"{exp.label:<13}{label:<12}"
                        f"{run.messages:>10d}"
                        f"{run.kbytes:>10.0f}"
                        f"{run.speedup:>9.2f}")
    rows += ["",
             "Note: IS and similar TreadMarks programs that re-read shared",
             "data after a barrier while a faster processor already started",
             "the next interval are LRC-legal but not data-race-free; they",
             "need an extra barrier under sequential consistency (see",
             "tests/ivy/test_ivy.py::TestConsistencyModelDifference)."]
    emit(capsys, "ablation_ivy", "\n".join(rows))

    tmk, ivy = water_pair
    assert ivy.kbytes > tmk.kbytes, \
        "whole-page transfers must move more data than diffs"
    assert ivy.time > tmk.time, \
        "page ping-pong must cost IVY time on Water's shared pages"
