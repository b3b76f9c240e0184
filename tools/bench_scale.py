#!/usr/bin/env python
"""Scale sweep past the paper's 8 nodes; emit BENCH_scale.json.

The paper's testbed stopped at 8 workstations.  A simulated processor is
a cheap continuation, so this sweep asks the paper's question at 16,
64, 256, and 1024 nodes: red/black SOR (the paper's best DSM case) on
TreadMarks versus PVM, with the TreadMarks runs repeated under the
centralized (flat) barrier and the combining-tree barrier.  Recorded per
run: virtual time, message count, wire kbytes, and host wall-clock.

The virtual times chart the crossover story -- TreadMarks falls off a
cliff while PVM's neighbour exchanges stay flat.  The cause is neither
the flat manager's 2n messages nor page-granularity sharing but the
write-notice metadata in barrier departures: every interval record is
accounted with a full vector time and each of n nodes is handed ~n of
them per episode (O(n^3) bytes; at 256 nodes 98.9 % of all bytes are
``barrier_departure``, and diff traffic is below PVM's total), which is
why the tree barrier does not help.  The wall-clock column is a record,
not a gate: host time is compared only by ``benchmarks/e2e/run.py``.

    python tools/bench_scale.py                         # full sweep
    python tools/bench_scale.py --max-nodes 64          # CI slice
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

NODE_COUNTS = (16, 64, 256, 1024)


def scale_params(nprocs):
    """>= 4 rows per processor; ``tests/sim/test_scale.py`` imports this."""
    from repro.apps.sor import SorParams
    return SorParams(rows=4 * nprocs, width=96, iterations=4)


def one_run(system, nprocs, barrier="central"):
    from repro.apps import base
    from repro.tmk.api import TmkConfig
    kw = {}
    if system == "tmk":
        kw["tmk_config"] = TmkConfig(barrier_kind=barrier)
    started = time.perf_counter()
    result = base.run_parallel("sor", system, nprocs, scale_params(nprocs),
                               **kw)
    wall = time.perf_counter() - started
    return {
        "system": system,
        "barrier": barrier if system == "tmk" else None,
        "nprocs": nprocs,
        "time": result.time,
        "messages": result.total_messages(),
        "kbytes": round(result.total_kbytes(), 1),
        "wall_seconds": round(wall, 3),
    }


def sweep(max_nodes):
    runs = []
    for nprocs in NODE_COUNTS:
        if nprocs > max_nodes:
            continue
        for system, barrier in (("tmk", "central"), ("tmk", "tree"),
                                ("pvm", None)):
            run = one_run(system, nprocs, barrier or "central")
            runs.append(run)
            label = system if barrier is None else f"{system}/{barrier}"
            print(f"  {label:12s} n={nprocs:5d}  vtime={run['time']:10.3f}s"
                  f"  msgs={run['messages']:9d}"
                  f"  wall={run['wall_seconds']:6.2f}s")
    return runs


def crossover_summary(runs):
    """Virtual-time ratio tmk/pvm per node count, flat vs tree barrier."""
    times = {(r["system"], r["barrier"], r["nprocs"]): r["time"]
             for r in runs}
    summary = {}
    for nprocs in sorted({r["nprocs"] for r in runs}):
        pvm = times.get(("pvm", None, nprocs))
        if not pvm:
            continue
        summary[str(nprocs)] = {
            "tmk_over_pvm_central": round(
                times[("tmk", "central", nprocs)] / pvm, 2),
            "tmk_over_pvm_tree": round(
                times[("tmk", "tree", nprocs)] / pvm, 2),
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--max-nodes", type=int, default=1024,
                        choices=NODE_COUNTS)
    args = parser.parse_args()

    print(f"scale sweep: sor up to {args.max_nodes} nodes")
    runs = sweep(args.max_nodes)
    report = {
        "app": "sor",
        "params": "rows=4*nprocs, width=96, iterations=4",
        "node_counts": [n for n in NODE_COUNTS if n <= args.max_nodes],
        "runs": runs,
        "crossover_tmk_over_pvm": crossover_summary(runs),
        "environment": {"cpus": os.cpu_count()},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
