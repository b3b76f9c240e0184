"""The paper's qualitative findings, as machine-checkable expectations.

The digits in the available copy of the paper are corrupted, so absolute
speedups cannot be transcribed; the prose, however, states the relations
that matter (see EXPERIMENTS.md):

* EP, SOR-Zero, SOR-NonZero, Water-1728 and ILINK: TreadMarks within ~10%
  of PVM;
* IS-Small, Water-288, Barnes-Hut, 3-D FFT, TSP, QSORT: differences on
  the order of 10% to 30%;
* IS-Large: PVM performs about two times better;
* TreadMarks always sends more messages; it sends *less data* than PVM for
  SOR-Zero (empty diffs of unchanged pages), about the *same* data for the
  3-D FFT (release consistency ships exactly the written words), roughly
  ``n*(n-1)/(2*(n-1))`` times the data for IS (diff accumulation), and
  more data everywhere else (false sharing, write notices).

Every expectation here is evaluated against measured 8-processor runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["EXPECTATIONS", "Expectation", "CheckResult", "check_experiment"]


@dataclass(frozen=True)
class Expectation:
    """Qualitative targets for one experiment at 8 processors."""

    exp_id: str
    #: Acceptable TMK/PVM speedup ratio range.
    ratio_lo: float
    ratio_hi: float
    #: Acceptable TMK/PVM message-count ratio range (TMK always sends more).
    msg_ratio_lo: float = 1.0
    msg_ratio_hi: float = float("inf")
    #: Acceptable TMK/PVM data-volume ratio range (None = unconstrained).
    data_ratio_lo: Optional[float] = None
    data_ratio_hi: Optional[float] = None
    #: Upper bound on the better system's speedup ("poor on both"), if any.
    max_speedup: Optional[float] = None
    #: Lower bound on both speedups ("near-linear"), if any.
    min_speedup: Optional[float] = None
    note: str = ""


EXPECTATIONS = {
    "fig01": Expectation("fig01", 0.90, 1.05, min_speedup=7.0,
                         note="negligible communication; both near-linear"),
    "fig02": Expectation("fig02", 0.80, 1.02, msg_ratio_lo=3.0,
                         data_ratio_lo=0.0, data_ratio_hi=1.0,
                         note="TreadMarks ships LESS data (empty diffs of "
                              "still-zero pages); load imbalance caps both"),
    "fig03": Expectation("fig03", 0.72, 1.02, msg_ratio_lo=3.0,
                         note="balanced load; TreadMarks close to PVM"),
    "fig04": Expectation("fig04", 0.60, 0.95, msg_ratio_lo=4.0,
                         data_ratio_lo=2.0,
                         note="separate synchronization + diff requests"),
    "fig05": Expectation("fig05", 0.10, 0.60, msg_ratio_lo=20.0,
                         data_ratio_lo=3.0, data_ratio_hi=5.5,
                         max_speedup=5.0,
                         note="diff accumulation: ~n(n-1)b vs 2(n-1)b per "
                              "iteration; PVM about twice as fast"),
    "fig06": Expectation("fig06", 0.65, 0.95, msg_ratio_lo=3.0,
                         note="migratory pool/queue/stack + lock contention"),
    "fig07": Expectation("fig07", 0.60, 0.92, msg_ratio_lo=8.0,
                         note="diff requests for page-spanning subarrays"),
    "fig08": Expectation("fig08", 0.65, 0.92, data_ratio_lo=2.0,
                         note="false sharing on molecule pages at 288"),
    "fig09": Expectation("fig09", 0.88, 1.02,
                         note="higher compute/communication ratio at 1728"),
    "fig10": Expectation("fig10", 0.55, 0.92, msg_ratio_lo=2.0,
                         max_speedup=6.5,
                         note="PVM broadcast saturation; TMK false sharing; "
                              "both poor"),
    "fig11": Expectation("fig11", 0.60, 0.95, msg_ratio_lo=8.0,
                         data_ratio_lo=0.7, data_ratio_hi=1.6,
                         note="same data as PVM, many more messages"),
    "fig12": Expectation("fig12", 0.78, 1.02,
                         note="high compute/communication ratio; close"),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


def check_experiment(exp_id: str, preset: str = "bench",
                     nprocs: int = 8) -> List[CheckResult]:
    """Evaluate the paper's expectations against measured runs."""
    from repro import api
    exp = EXPECTATIONS[exp_id]
    # Summary records only: on a warm disk cache this simulates nothing.
    tmk, pvm = (api.run(api.RunConfig(experiment=exp_id, system=system,
                                      nprocs=nprocs, preset=preset))
                for system in ("tmk", "pvm"))
    sp_tmk, sp_pvm = tmk.speedup, pvm.speedup
    ratio = sp_tmk / sp_pvm
    out: List[CheckResult] = []

    out.append(CheckResult(
        "speedup ratio", exp.ratio_lo <= ratio <= exp.ratio_hi,
        f"TMK/PVM = {sp_tmk:.2f}/{sp_pvm:.2f} = {ratio:.2f} "
        f"(expected {exp.ratio_lo:.2f}..{exp.ratio_hi:.2f})"))

    msg_ratio = tmk.messages / max(pvm.messages, 1)
    out.append(CheckResult(
        "message ratio",
        exp.msg_ratio_lo <= msg_ratio <= exp.msg_ratio_hi,
        f"TMK/PVM messages = {tmk.messages}/{pvm.messages} "
        f"= {msg_ratio:.1f}x (expected >= {exp.msg_ratio_lo:.1f}x)"))

    if exp.data_ratio_lo is not None or exp.data_ratio_hi is not None:
        lo = exp.data_ratio_lo if exp.data_ratio_lo is not None else 0.0
        hi = exp.data_ratio_hi if exp.data_ratio_hi is not None else float("inf")
        data_ratio = tmk.kbytes / max(pvm.kbytes, 1e-9)
        out.append(CheckResult(
            "data ratio", lo <= data_ratio <= hi,
            f"TMK/PVM data = {tmk.kbytes:.0f}/{pvm.kbytes:.0f} KB "
            f"= {data_ratio:.2f}x (expected {lo:.2f}..{hi:.2f})"))

    if exp.max_speedup is not None:
        out.append(CheckResult(
            "poor absolute speedup", max(sp_tmk, sp_pvm) <= exp.max_speedup,
            f"best speedup {max(sp_tmk, sp_pvm):.2f} "
            f"(expected <= {exp.max_speedup:.1f})"))
    if exp.min_speedup is not None:
        out.append(CheckResult(
            "near-linear speedup", min(sp_tmk, sp_pvm) >= exp.min_speedup,
            f"worst speedup {min(sp_tmk, sp_pvm):.2f} "
            f"(expected >= {exp.min_speedup:.1f})"))
    return out
