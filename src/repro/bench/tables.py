"""Renderers for the paper's Table 1 and Table 2.

* Table 1: "Sequential Time of Applications" -- per configuration, the
  problem size and the execution time of the sequential program, which is
  the baseline all speedups divide.
* Table 2: "Messages and Data at 8 Processors" -- per configuration, the
  total number of messages and kilobytes sent by TreadMarks (UDP datagrams,
  payload plus headers) and PVM (user messages, user data).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bench import harness

__all__ = ["render_table1", "render_table2"]


def _experiments(exp_ids: Optional[Sequence[str]]) -> List[str]:
    if exp_ids is None:
        return list(harness.EXPERIMENTS)
    return list(exp_ids)


def render_table1(exp_ids: Optional[Sequence[str]] = None,
                  preset: str = "bench") -> str:
    """Reproduce Table 1: sequential times and problem sizes.

    Reads through the persistent result cache (:func:`repro.api.seq_time`),
    so after a warm sweep the table renders without running anything.
    """
    from repro import api
    rows = [f"Table 1: Sequential Time of Applications ({preset} preset)",
            "",
            f"{'Program':<14}{'Problem Size':<42}{'Time (s)':>10}",
            "-" * 66]
    for exp_id in _experiments(exp_ids):
        exp = harness.EXPERIMENTS[exp_id]
        rows.append(f"{exp.label:<14}{harness.size_string(exp, preset):<42}"
                    f"{api.seq_time(exp_id, preset):>10.2f}")
    return "\n".join(rows)


def render_table2(exp_ids: Optional[Sequence[str]] = None,
                  preset: str = "bench", nprocs: int = 8) -> str:
    """Reproduce Table 2: messages and kilobytes at 8 processors."""
    from repro import api
    rows = [f"Table 2: Messages and Data at {nprocs} Processors "
            f"({preset} preset)",
            "",
            f"{'Program':<14}{'TreadMarks':>22}{'PVM':>22}",
            f"{'':<14}{'Messages':>11}{'KB':>11}{'Messages':>11}{'KB':>11}",
            "-" * 58]
    for exp_id in _experiments(exp_ids):
        exp = harness.EXPERIMENTS[exp_id]
        tmk_msgs, tmk_kb = api.messages_at(exp_id, "tmk", nprocs, preset)
        pvm_msgs, pvm_kb = api.messages_at(exp_id, "pvm", nprocs, preset)
        rows.append(f"{exp.label:<14}{tmk_msgs:>11d}{tmk_kb:>11.0f}"
                    f"{pvm_msgs:>11d}{pvm_kb:>11.0f}")
    return "\n".join(rows)
