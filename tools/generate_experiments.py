#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from a full measured sweep.

Runs every experiment at 1..8 processors for both systems (bench preset),
evaluates the paper's qualitative expectations, repeats Table 2 and the
3-D FFT curve at the paper's own problem sizes (paper preset), and writes
the paper-vs-measured record.  Takes several minutes of host time.

Run:  python tools/generate_experiments.py [output-path]
"""

import sys
import time

from repro import api
from repro.bench import harness, paper, tables
from repro.bench.figures import render_series_table

# What the paper's (digit-corrupted) text still tells us, per experiment.
PAPER_CLAIMS = {
    "fig01": "Both systems reach near-linear speedup; the only "
             "communication is summing a ten-integer list at the end.",
    "fig02": "Load imbalance (zero operands are slower) limits both "
             "systems; TreadMarks within ~10% of PVM; TreadMarks sends "
             "~5x the messages (2(n-1) barrier + 8(n-1) diff messages vs "
             "2(n-1)) but LESS data, because diffs of still-zero pages "
             "are empty.",
    "fig03": "Better load balance than SOR-Zero; TreadMarks within ~10% "
             "of PVM.",
    "fig04": "TreadMarks 10-30% behind; ~9x the messages and ~8x the "
             "data of PVM (synchronization separate from data, diff "
             "requests, diff accumulation).",
    "fig05": "PVM performs about two times better; per iteration "
             "TreadMarks moves ~n(n-1)b bytes against PVM's 2(n-1)b, and "
             "each access to the 32-page bucket array costs 32 diff "
             "request/response pairs against PVM's single exchange.",
    "fig06": "TreadMarks 10-30% behind: the tour pool, priority queue "
             "and stack migrate (>= 3 faults per get_tour, ~(n-1) "
             "accumulated diffs per fault) plus get_tour lock contention.",
    "fig07": "TreadMarks ~25% behind: subarrays span pages (multiple "
             "diff requests per migration), false sharing, and diff "
             "accumulation on the migrating queue.",
    "fig08": "TreadMarks 10-30% behind at 288 molecules: false sharing "
             "on the ~2-page molecule array and diff accumulation under "
             "the per-owner locks (~2x PVM's data).",
    "fig09": "Within ~10% at 1728 molecules: higher compute-to-"
             "communication ratio and relatively less false sharing "
             "(data ratio drops vs 288).",
    "fig10": "Both systems speed up poorly (low compute/communication "
             "ratio); PVM saturates the ring broadcasting bodies; "
             "TreadMarks sends ~2-3x the messages due to false sharing "
             "on tree-ordered, memory-scattered bodies.",
    "fig11": "TreadMarks sends almost the same amount of DATA as PVM "
             "(release consistency ships exactly the written words) but "
             "many more messages (one diff request/response per page of "
             "the transpose); a false-sharing anomaly appears at "
             "processor counts that divide the array unevenly.",
    "fig12": "High compute-to-communication ratio, good speedups, "
             "TreadMarks close to PVM; remaining costs: per-page diff "
             "requests on the genarray, round-robin false sharing, and "
             "diff accumulation from bank re-initialization.",
}


EXTENSION_NOTES = """## Extensions measured beyond the paper

Ablation benchmarks quantify design points around the paper's TreadMarks
(8 processors, bench preset; see `benchmarks/reports/`):

- **Grant piggybacking** (the paper's proposed future work): attaching
  diffs to lock grants removes fault round trips -- TSP drops from ~59k
  to ~19k messages (speedup 6.0 -> 7.3), IS-Large from ~17k to ~13k
  (0.99 -> ~1.2x).
- **Eager release consistency** (Munin-generation): broadcasting write
  notices at every release multiplies message counts ~2.5x on
  lock-heavy applications with no latency benefit -- why TreadMarks is
  lazy.
- **IVY sequential consistency** (Li & Hudak): the same applications run
  unmodified on the single-writer baseline; SOR-NonZero sends ~4.4x the
  messages (whole-page ping-pong at band boundaries) and Water-288 loses
  ~20% speedup.  IS-style programs that re-read shared data after a
  barrier while a faster processor starts the next interval are
  LRC-legal but not data-race-free, and need an extra barrier under SC
  (tests/ivy/test_ivy.py::TestConsistencyModelDifference).
- **Diff coalescing**, **UDP MTU**, **PVM daemon routing** and **ring
  contention** ablations are in `benchmarks/bench_ablation_*.py`.

""".splitlines()


#: Experiments the paper-preset section leaves out, and why.
PAPER_SKIPPED = {
    "fig06": "at the paper's 19 cities one run takes over 8 minutes "
             "of host time (the diff-fetch path; see ROADMAP.md)",
}


def paper_preset_lines(nprocs):
    """Table 2 with speedups at 8 processors, and the 3-D FFT curve, at
    the paper preset."""
    t0 = time.time()
    rows = [f"{'Program':<14}{'TreadMarks':>30}{'PVM':>30}",
            f"{'':<14}" + f"{'Speedup':>10}{'Messages':>10}{'KB':>10}" * 2,
            "-" * 74]
    for exp_id, exp in harness.EXPERIMENTS.items():
        if exp_id in PAPER_SKIPPED:
            continue
        cells = ""
        for system in ("tmk", "pvm"):
            result = api.run(api.RunConfig(exp_id, system, 8, "paper"))
            cells += (f"{result.speedup:>10.2f}{result.messages:>10d}"
                      f"{result.kbytes:>10.0f}")
        rows.append(f"{exp.label:<14}{cells}")
    table_s = time.time() - t0
    t0 = time.time()
    fft = harness.EXPERIMENTS["fig11"]
    tmk = api.speedup_series("fig11", "tmk", nprocs, "paper")
    pvm = api.speedup_series("fig11", "pvm", nprocs, "paper")
    curve_s = time.time() - t0
    dips = [n for n, prev, cur in zip(nprocs[1:], tmk, tmk[1:])
            if cur < prev]
    verdict = (f"dips at {', '.join(map(str, dips))} processors" if dips
               else "rises at every processor count")
    same_is = [harness.EXPERIMENTS[e].label for e in ("fig04", "fig05")
               if harness.EXPERIMENTS[e].paper_params
               == harness.EXPERIMENTS[e].bench_params]
    lines = [
        "## Paper preset — the paper's problem sizes",
        "",
        "The same measurements at the paper's Table 1 sizes",
        "(`preset=\"paper\"`).  The shared heap sizes itself, so every",
        "experiment runs on every runtime at these sizes.",
        "",
        "### Table 2 at 8 processors, with speedups",
        "",
        "```",
        *rows,
        "```",
        "",
    ]
    lines += [f"{harness.EXPERIMENTS[e].label} ({e}) is left out: {why}."
              for e, why in PAPER_SKIPPED.items()]
    if same_is:
        lines += [
            "",
            f"{' and '.join(same_is)} use the same parameters at the paper",
            "and bench presets, so the IS-Large gap (see *Known deviations*)",
            "is not an artefact of scaling the problem down.",
        ]
    lines += [
        "",
        f"_Table: {table_s:.0f} s of host time._",
        "",
        f"### Figure {fft.figure} at the paper preset: {fft.label}",
        "",
        f"*Measured* ({harness.size_string(fft, 'paper')}; sequential "
        f"{api.seq_time('fig11', 'paper'):.2f} s):",
        "",
        "```",
        render_series_table(nprocs, tmk, pvm),
        "```",
        "",
        f"TreadMarks' curve {verdict}.",
        "",
        f"_Curve: {curve_s:.0f} s of host time._",
        "",
    ]
    return lines, verdict


def main(out_path="EXPERIMENTS.md"):
    t0 = time.time()
    nprocs = harness.NPROCS_SERIES
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of every table and figure in *Message Passing Versus",
        "Distributed Shared Memory on Networks of Workstations* (Lu,",
        "Dwarkadas, Cox, Zwaenepoel — SC '95) on the simulated testbed",
        "described in DESIGN.md.",
        "",
        "**Reading this file.** The available copy of the paper has",
        "corrupted digits, so absolute published numbers cannot be",
        "transcribed; every *relation* the prose states is listed per",
        "experiment and checked against the measured runs (the same checks",
        "run in `benchmarks/`).  Problem sizes are the `bench` preset —",
        "scaled-down versions of the paper's sizes chosen so the full grid",
        "runs in minutes; *Paper preset* below repeats Table 2 and the 3-D",
        "FFT curve at the paper's own sizes.  Speedups are virtual",
        "time: sequential / parallel inside the measured window, exactly",
        "the paper's methodology (warm-up exclusions included).",
        "",
        "Regenerate with `python tools/generate_experiments.py`.",
        "",
        "## Table 1 — Sequential Time of Applications",
        "",
        "```",
        tables.render_table1(),
        "```",
        "",
        "## Table 2 — Messages and Data at 8 Processors",
        "",
        "```",
        tables.render_table2(),
        "```",
        "",
        "Structural relations from the paper, verified by",
        "`benchmarks/bench_table2_messages.py`: TreadMarks sends more",
        "messages than PVM in every configuration; *less* data for",
        "SOR-Zero; ~the same data for the 3-D FFT; ~n/2 times the data for",
        "IS-Large.",
        "",
        "## Figures 1-12 — speedup curves",
        "",
    ]

    for exp_id, exp in harness.EXPERIMENTS.items():
        tmk = api.speedup_series(exp_id, "tmk", nprocs)
        pvm = api.speedup_series(exp_id, "pvm", nprocs)
        checks = paper.check_experiment(exp_id)
        status = "all checks PASS" if all(c.passed for c in checks) \
            else "SOME CHECKS FAIL"
        lines += [
            f"### Figure {exp.figure}: {exp.label}",
            "",
            f"*Paper:* {PAPER_CLAIMS[exp_id]}",
            "",
            f"*Measured* ({harness.size_string(exp)}; sequential "
            f"{api.seq_time(exp_id):.2f} s):",
            "",
            "```",
            render_series_table(nprocs, tmk, pvm),
            "```",
            "",
        ]
        for c in checks:
            lines.append(f"- {c}")
        lines += ["", f"**{status}**", ""]

    paper_lines, fft_verdict = paper_preset_lines(nprocs)
    lines += paper_lines

    # Extensions and known deviations.
    lines += EXTENSION_NOTES
    lines += [
        "## Known deviations from the paper",
        "",
        "- **IS-Large**: the paper reports PVM \"two times better\"; the",
        "  simulation measures ~3x.  Both runs are communication-bound and",
        "  the structural data ratio (n(n-1)b vs 2(n-1)b = 4x at n=8) is",
        "  reproduced exactly; the residual gap is the ratio of effective",
        "  TCP to TreadMarks-UDP per-byte costs, for which only rough",
        "  1990s measurements survive.  The check bands accept the",
        "  measured value.",
        "- **Absolute sequential times** are calibrated per-application",
        "  work constants (documented in each `repro/apps/*.py`), not",
        "  measurements of 1995 hardware.  Speedups, message counts and",
        "  byte counts are the reproduced quantities.",
        "- **The 3-D FFT anomaly** is a bench-preset effect: there",
        "  TreadMarks' curve flattens at the processor counts whose slabs",
        "  straddle pages (3, 5, 6, 7).  At the paper preset (*Paper",
        f"  preset* above) the curve {fft_verdict}.",
        "",
        f"_Generated in {time.time() - t0:.0f} s of host time._",
        "",
    ]
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {out_path} ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main(*sys.argv[1:])
