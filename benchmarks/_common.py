"""Shared plumbing for the benchmark suite: the problem-size preset and
the report sink (terminal, bypassing capture, plus ``benchmarks/reports/``).
"""

from __future__ import annotations

import os

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

PRESET = os.environ.get("REPRO_BENCH_PRESET", "bench")


def emit(capsys, name: str, text: str) -> None:
    """Print a report to the real terminal and archive it."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    with open(os.path.join(REPORT_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    with capsys.disabled():
        print()
        print(text)
