"""Scale smoke: the simulator past the paper's 8 workstations.

The paper stopped at 8 nodes because that is how many DECstations were
on the ATM switch; cheap continuations let us ask "what would TreadMarks
versus PVM look like at 64, 256, 1024?".  These tests pin that the
machinery actually *works* up there -- results still verify against the
sequential run, wall-clock stays within a CI budget, and the tree
barrier remains race-clean.  The (interesting, divergent) virtual times
live in ``BENCH_scale.json``; ``TestBenchScaleRows`` re-derives its rows
up to 64 nodes exactly.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import AnalysisConfig
from repro.apps import base
from repro.apps.sor import SorParams
from repro.tmk.api import TmkConfig

#: Generous per-run wall budget (seconds): a 256-node sor run takes ~2 s
#: on a developer laptop; 10x headroom keeps slow CI out of the noise.
BUDGET = 60.0

ROOT = Path(__file__).resolve().parents[2]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The sweep's grid shape, from the one place it is defined: >= 4 rows
#: per processor.
scale_params = _load_tool("bench_scale").scale_params


def run_scaled(system, nprocs, **kw):
    start = time.monotonic()
    result = base.run_parallel("sor", system, nprocs, scale_params(nprocs),
                               **kw)
    wall = time.monotonic() - start
    return result, wall


def check(result, nprocs):
    spec = base.get_app("sor")
    seq = base.run_sequential("sor", scale_params(nprocs))
    assert spec.verify(result.result, seq.result)
    assert result.time > 0
    assert result.total_messages() > 0


class TestScaleSmoke:
    @pytest.mark.parametrize("system", ("tmk", "pvm"))
    @pytest.mark.parametrize("nprocs", (64, 256))
    def test_sor_completes_and_verifies(self, system, nprocs):
        result, wall = run_scaled(system, nprocs)
        check(result, nprocs)
        assert wall < BUDGET, (
            f"sor/{system} at {nprocs} nodes took {wall:.1f}s "
            f"(budget {BUDGET:.0f}s)")

    def test_tree_barrier_at_scale(self):
        """The combining tree must still produce a correct answer at a
        node count where the central manager is the bottleneck."""
        result, wall = run_scaled(
            "tmk", 64, tmk_config=TmkConfig(barrier_kind="tree"))
        check(result, 64)
        assert wall < BUDGET


class TestBarrierRaceClean:
    """Strict race checking: the tree barrier must establish the same
    happens-before edges as the centralized one."""

    @pytest.mark.parametrize("kind", ("central", "tree"))
    def test_barrier_race_clean_under_strict(self, kind):
        result = base.run_parallel(
            "sor", "tmk", 8, SorParams.tiny(),
            tmk_config=TmkConfig(barrier_kind=kind),
            analysis=AnalysisConfig(race_check="strict"))
        assert result.sanitizer is not None
        assert not result.sanitizer.findings


#: ``tools/bench_scale.py``'s report, committed at the repository root.
REPORT = json.loads((ROOT / "BENCH_scale.json").read_text())


def report_params(nprocs):
    """``SorParams`` from the report's own shape, e.g. ``"rows=4*nprocs,
    width=96, iterations=4"``."""
    kw = {}
    for item in REPORT["params"].split(","):
        name, expr = item.strip().split("=")
        factor, _, var = expr.partition("*")
        assert var in ("", "nprocs"), expr
        kw[name] = int(factor) * (nprocs if var else 1)
    return SorParams(**kw)


@pytest.mark.parametrize("nprocs", REPORT["node_counts"])
def test_report_params_are_the_tools(nprocs):
    """The report's recorded shape is what ``tools/bench_scale.py`` runs
    now: a drift fails here, before any regeneration."""
    assert report_params(nprocs) == scale_params(nprocs)


class TestBenchScaleRows:
    """Every ``BENCH_scale.json`` row up to 64 nodes, re-derived: virtual
    time, message count and wire kbytes must equal the recorded ones
    exactly (the host wall-clock column is a record, not a gate)."""

    @pytest.mark.parametrize(
        "row", [row for row in REPORT["runs"] if row["nprocs"] <= 64],
        ids=lambda row: f"{row['system']}-{row['barrier']}-{row['nprocs']}")
    def test_row_is_rederived_exactly(self, row):
        nprocs = row["nprocs"]
        kw = {}
        if row["system"] == "tmk":
            kw["tmk_config"] = TmkConfig(barrier_kind=row["barrier"])
        result = base.run_parallel("sor", row["system"], nprocs,
                                   report_params(nprocs), **kw)
        assert (result.time, result.total_messages(),
                round(result.total_kbytes(), 1)) == (
            row["time"], row["messages"], row["kbytes"])


#: Prints the probe's own peak RSS in KB.  Not ``ru_maxrss``: Linux
#: carries that across ``exec`` from the spawning process, so under
#: pytest it reads the test runner's peak, not the probe's.
_PRINT_PEAK = """
print([line.split()[1] for line in open("/proc/self/status")
       if line.startswith("VmHWM:")][0])
"""

#: Two back-to-back 256-node runs.
_RSS_PROBE = """
import gc
from repro.apps import base
from repro.apps.sor import SorParams
for _ in range(2):
    base.run_parallel("sor", "tmk", 256,
                      SorParams(rows=1024, width=96, iterations=4))
    gc.collect()
""" + _PRINT_PEAK


#: SOR on TreadMarks at the bench preset: ~24 000 diffs of ~600 000 runs,
#: all kept for the run.
_DIFF_PROBE = """
from repro.api import RunConfig, run
run(RunConfig("fig03", system="tmk", nprocs=8, preset="bench"),
    use_cache=False)
""" + _PRINT_PEAK

#: The allocator settings ``benchmarks/e2e`` pins: large blocks served
#: from the heap, never trimmed.
_BENCH_MALLOC = dict(MALLOC_MMAP_THRESHOLD_=str(32 << 20),
                     MALLOC_TRIM_THRESHOLD_=str(1 << 40))


def _peak_rss_mb(probe):
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **_BENCH_MALLOC)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=4 * BUDGET)
    return int(out.stdout.split()[-1]) / 1024


class TestHostMemory:
    def test_node_costs_the_pages_it_touches(self):
        """256 nodes x SOR's default 16 MB segment is 4 GB of address
        space, of which each node touches a few pages.  The page table
        maps it demand-zero, so the host pays for the touched pages only.
        The probe runs twice under the allocator settings the benchmark
        pins (large blocks served from the heap, never trimmed): that is
        where a zero-filled heap segment is memset on reuse and the same
        probe peaked at 4.2 GB; it now peaks near 70 MB."""
        peak_mb = _peak_rss_mb(_RSS_PROBE)
        assert peak_mb < 1024, f"peak RSS {peak_mb:.0f} MB"

    def test_a_diff_costs_its_bytes(self):
        """Every diff is kept for the run, one ``bytes`` in its wire
        encoding.  When each run was its own ``(offset, bytes)`` tuple
        this probe peaked at 254 MB; it now peaks near 170 MB."""
        peak_mb = _peak_rss_mb(_DIFF_PROBE)
        assert peak_mb < 210, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("REPRO_SLOW"),
                    reason="1024-node sweep; set REPRO_SLOW=1 to run")
class TestThousandNodes:
    @pytest.mark.parametrize("system", ("tmk", "pvm"))
    def test_sor_at_1024(self, system):
        result, wall = run_scaled(system, 1024)
        check(result, 1024)
        # ~25 s (tmk) / ~15 s (pvm) measured; cap well above that.
        assert wall < 300.0
