#!/usr/bin/env python3
"""The repo's one benchmark: four workloads, two clocks, host time by layer.

Three ways to call it (from anywhere; paths are resolved from this file):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement, as ``BENCHMARK.json`` describes it.  The last line
    of standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace
    0`` (untraced cycles only), the per-layer metrics with ``--trace 1``
    (one untraced cycle, then one under the span recorder and cProfile).

``run.py [--workload W ...] [--seed N] [--repeat K] [--quick] [--out FILE]``
    The full report: every named workload (default all four) measured
    ``K`` times untraced (seeds ``N .. N+K-1``) and once traced; prints
    every metric by name with its unit and writes the report to FILE.

``run.py --check A.json B.json``
    Compares two reports using only the bounds in ``BENCHMARK.json``.

Exit status is non-zero when an operation failed, a check did not hold,
or the two reports disagree.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
OUT = os.path.join(HERE, "out")
#: A worker that has not finished by then is killed (the contract allows
#: a run 180 s).
WORKER_TIMEOUT_S = 170
#: Set-ups per untraced run, each in a fresh process; ``setup_s`` is their
#: median.  Only the last one goes on to measure.
SETUPS = 3


#: glibc allocator settings for the workers: serve every request below
#: 32 MB from the heap and never give the heap back.  With the defaults
#: (a threshold that adapts to what was freed last, a heap trimmed when
#: its top is free) the same work ran in one of two modes, chosen by
#: details as small as the length of the checkout's path: freed segments
#: reused, or returned and faulted in again on every cycle (``scale_sor``
#: wall_s 1.7 s against 2.9 s, 0.3 s against 6.5 s of system time).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(tmp: str) -> Dict[str, str]:
    """Children write temporary files inside the checkout only, never see
    the user's result cache, and hash strings the same way every time."""
    env = dict(os.environ, TMPDIR=tmp, PYTHONHASHSEED="0", **MALLOC_ENV)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def fastest_cpu() -> Optional[int]:
    """The allowed CPU that runs a short spin loop fastest right now.

    The sandbox's two virtual CPUs are not equally fast at all times
    (one ran the same loop 55 % slower for minutes while sizing: a busy
    host sibling), and which one a process lands on used to decide its
    numbers.  Each worker is pinned to the CPU that wins this probe.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return None
    if not 2 <= len(allowed) <= 8:
        return None

    def spin() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        return time.perf_counter() - started

    timings = {}
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = min(spin() for _ in range(3))
    finally:
        os.sched_setaffinity(0, allowed)
    return min(timings, key=timings.get)


def worker_placement(cpu: Optional[int]):
    """What a worker does to itself just before exec.

    It pins itself to ``cpu`` and turns address-space randomisation off
    (Linux ``ADDR_NO_RANDOMIZE``).  With the hash seed, the random layout
    was the largest source of run-to-run spread inside one CPU
    (``scale_sor`` wall_s 1.52-1.74 s on one seed; 1.55-1.58 s with both
    fixed): it decides, per process, how the allocator's heap grows and so
    how many pages each cycle faults in again.  Where the call is not
    permitted the worker runs randomised and says so in its environment
    block.
    """
    def place() -> None:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            ctypes.CDLL(None).personality(0x0040000)
        except (OSError, AttributeError):
            pass
    return place


def build_kernels(tmp: str) -> float:
    """The one ``tools/build_kernels.py --quiet`` call; returns seconds."""
    started = time.perf_counter()
    status = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "build_kernels.py"),
         "--quiet"], env=child_env(tmp), timeout=WORKER_TIMEOUT_S)
    if status.returncode != 0:
        raise SystemExit("building the compiled kernels failed; the "
                         "benchmark does not fall back to another backend")
    return time.perf_counter() - started


def spawn_worker(spec: Dict[str, Any], tmp: str) -> Dict[str, Any]:
    """One fresh worker process (see workloads.py); returns its result."""
    spec = dict(spec, result_path=os.path.join(tmp, "result.json"))
    spec_path = os.path.join(tmp, "spec.json")
    spec["spawned_at"] = time.time()
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    status = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), spec_path],
        env=child_env(tmp), stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        preexec_fn=worker_placement(fastest_cpu()))
    if status.returncode != 0:
        raise SystemExit(f"worker for {spec['workload']} exited with "
                         f"status {status.returncode}")
    with open(spec["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


def run_once(contract: Dict[str, Any], workload: str, seed: int,
             seconds: float, traced: bool, quick: bool) -> Dict[str, Any]:
    """Build, set up, measure one workload once; returns the result with
    exactly the metrics ``BENCHMARK.json`` lists for this mode."""
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        build_s = build_kernels(tmp)
        spec = {"workload": workload, "seed": seed, "seconds": seconds,
                "quick": quick}
        if traced:
            spec["trace_path"] = os.path.join(OUT, f"trace-{workload}.json")
            result = spawn_worker(dict(spec, mode="trace"), tmp)
            result["metrics"]["kernels.build_s"] = {"value": build_s,
                                                    "unit": "s"}
            result["trace"] = os.path.relpath(spec["trace_path"], ROOT)
            wanted = contract["per_layer"]
        else:
            probes = 0 if quick else SETUPS - 1
            setups = [spawn_worker(dict(spec, mode="setup"), tmp)["setup_s"]
                      for _ in range(probes)]
            result = spawn_worker(dict(spec, mode="measure"), tmp)
            setups.append(result["setup_s"])
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"}
            wanted = contract["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    names = [metric["name"] for metric in wanted]
    if sorted(names) != sorted(result["metrics"]):
        raise SystemExit(
            f"{workload}: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(result['metrics']))}")
    result["metrics"] = {name: result["metrics"][name] for name in names}
    result["correct"] = result["failed"] == 0
    return result


def print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, metric in metrics.items():
        print(f"{workload:<11} {name:<32} {metric['value']:>16.6f} "
              f"{metric['unit']}")


# ----------------------------------------------------------------------
# The full report
# ----------------------------------------------------------------------
def report(contract: Dict[str, Any], workloads: Sequence[str], seed: int,
           repeat: int, quick: bool) -> Dict[str, Any]:
    seconds = 1 if quick else contract["run_seconds"]
    out: Dict[str, Any] = {"seed": seed, "repeat": repeat, "quick": quick,
                           "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(contract, workload, seed + i, seconds, False, quick)
                for i in range(repeat)]
        traced = run_once(contract, workload, seed, seconds, True, quick)
        end_to_end = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   "values": [run["metrics"][name]["value"] for run in runs]}
            for name in runs[0]["metrics"]}
        print(f"-- {workload}: medians of {repeat} run(s) of "
              f"{runs[0]['cycles']} timed cycle(s) each")
        print_metrics(workload, {
            name: {"value": statistics.median(entry["values"]),
                   "unit": entry["unit"]}
            for name, entry in end_to_end.items()})
        print_metrics(workload, traced["metrics"])
        failed = sum(run["failed"] for run in runs) + traced["failed"]
        attempted = sum(run["attempted"] for run in runs)
        print(f"{workload:<11} failed/attempted {failed}/{attempted}, "
              f"digest {runs[0]['digest'][:16]}, trace {traced['trace']}")
        out["environment"] = runs[0]["environment"]
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "attempted": attempted, "failed": failed,
            "digests": sorted({run["digest"] for run in runs + [traced]}),
            "virtual_s": runs[0]["virtual_s"],
            "trace": traced["trace"],
        }
    return out


# ----------------------------------------------------------------------
# --check
# ----------------------------------------------------------------------
def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None below 4 runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check(contract: Dict[str, Any], a: Dict[str, Any],
          b: Dict[str, Any]) -> int:
    """0 when B agrees with A within the contract's bounds, 1 when it
    does not, 2 when the two were not measured alike."""
    alike = ("environment", "quick", "seconds")
    if any(a.get(key) != b.get(key) for key in alike):
        print("not comparable: the reports differ in",
              [key for key in alike if a.get(key) != b.get(key)])
        return 2
    bounds = {metric["name"]: metric for metric in contract["end_to_end"]}
    problems = 0
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            print(f"{workload}: in one report only")
            problems += 1
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        exact = [("digests", wa["digests"], wb["digests"]),
                 ("failed", wa["failed"], wb["failed"])]
        exact += [(name, metric["value"], wb["per_layer"][name]["value"])
                  for name, metric in wa["per_layer"].items()
                  if metric["unit"] == "count"]
        for name, left, right in exact:
            if left != right:
                print(f"{workload} {name}: {left} != {right}")
                problems += 1
        if not math.isclose(wa["virtual_s"], wb["virtual_s"], rel_tol=1e-9):
            print(f"{workload} virtual_s: {wa['virtual_s']!r} != "
                  f"{wb['virtual_s']!r}")
            problems += 1
        if len(wa["digests"]) != 1 or wa["failed"]:
            print(f"{workload}: report A has failures or several digests")
            problems += 1
        for name, bound in bounds.items():
            va = wa["end_to_end"][name]["values"]
            vb = wb["end_to_end"][name]["values"]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma
            if bound["better"] == "higher":
                worse = -worse
            spreads = [s for s in (spread(va), spread(vb)) if s is not None]
            if spreads and max(spreads) > bound["bound"]:
                verdict = "unresolved (spread wider than the bound)"
            elif worse > bound["bound"]:
                verdict = "REGRESSION"
                problems += 1
            else:
                verdict = "ok"
            print(f"{workload:<11} {name:<12} A {ma:.6g} B {mb:.6g} "
                  f"{bound['unit']} worse by {worse:+.1%} "
                  f"(bound {bound['bound']:.0%}): {verdict}")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds unit order and the request sequence")
    parser.add_argument("--seconds", type=float,
                        help="untraced measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run, result as one JSON line: 0 = "
                             "end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload in a report")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one cycle, one set-up")
    parser.add_argument("--out", help="write the report here as JSON")
    parser.add_argument("--check", nargs=2, metavar=("A", "B"),
                        help="compare two reports")
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.check:
        reports = []
        for path in args.check:
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        return check(contract, *reports)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    known = [workload["name"] for workload in contract["workloads"]]
    workloads = args.workload or known
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; have {known}")

    if args.trace is not None:
        if len(workloads) != 1:
            parser.error("--trace measures exactly one --workload")
        seconds = args.seconds if args.seconds is not None \
            else contract["run_seconds"]
        result = run_once(contract, workloads[0], args.seed, seconds,
                          bool(args.trace), args.quick)
        print_metrics(workloads[0], result["metrics"])
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    result = report(contract, workloads, args.seed, args.repeat, args.quick)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    failed = sum(entry["failed"] for entry in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
