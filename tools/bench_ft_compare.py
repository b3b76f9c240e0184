#!/usr/bin/env python
"""Compare no fault tolerance with SC-ABD masking; emit BENCH_ft.json.

Runs SOR (fig02) and TSP (fig06) on 4 application processors under two
regimes -- no fault tolerance and SC-ABD quorum masking -- across crash
counts (0, 1, 2) and message-loss rates (0, 1%), and records for each
scenario:

* whether the run completed, its measured virtual time, and a structural
  fingerprint of the application result (sha-256 over array bytes);
* the replication ledger (masked crashes, detection latency, quorum
  traffic), or the classified error (``api.RUN_FAILURES``) an aborted
  run raised.

Every scenario is a ``RunConfig`` run through ``repro.api.run``, so every
completed run is also checked against the sequential program.

The report also checks its headline claims (:func:`check`, which tier-1
re-runs over the committed JSON):

* a quorum-minority replica crash under ``mask`` completes with a result
  byte-identical to the fault-free run (so do two replica crashes with 5
  replicas);
* an unmaskable crash (replica majority) and an unmasked application-rank
  crash (``noft``) abort with a classified error instead of producing a
  wrong result.

Run:  python tools/bench_ft_compare.py [--out BENCH_ft.json]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

NPROCS = 4
REPLICAS = 3
LOSS_RATES = (0.0, 0.01)
APPS = {"sor": "fig02", "tsp": "fig06"}


def one_run(exp_id, faults=None, replication=None):
    """One verified run; returns the scenario record + the live result."""
    from repro import api
    from repro.verify.explorer import fingerprint
    config = api.RunConfig(exp_id, "tmk", NPROCS, "tiny", faults=faults,
                           replication=replication)
    try:
        result = api.run(config, use_cache=False, want_parallel=True)
    except api.RUN_FAILURES as failure:
        return {"completed": False, "error": type(failure).__name__,
                "abort": str(failure)}, None
    record = {
        "completed": True,
        "time": round(result.time, 6),
        "result_fingerprint": fingerprint(result.parallel.result),
        "messages": result.messages,
    }
    # The RunResult ledger, under this report's key names and rounding.
    if result.replication is not None:
        replication = dict(result.replication)
        replication["detection_latency"] = round(
            replication["detection_latency"], 6)
        replication["quorum_messages"] = replication.pop("messages")
        replication["quorum_kbytes"] = round(
            replication.pop("bytes") / 1024.0, 1)
        record["replication"] = replication
    return record, result.parallel


def bench_app(name, exp_id):
    from repro.scabd import ReplicationConfig
    from repro.sim.faults import FaultPlan

    repl3 = ReplicationConfig(replicas=REPLICAS)
    repl5 = ReplicationConfig(replicas=5)

    # Probe the two fault-free executions: their elapsed times place the
    # crashes mid-run, and their fingerprints are the identity baselines.
    noft_rec, noft = one_run(exp_id)
    elapsed = noft.cluster.elapsed
    mask_rec, mask_clean = one_run(exp_id, replication=repl3)
    mask_elapsed = mask_clean.cluster.elapsed
    mask5_rec, _ = one_run(exp_id, replication=repl5)

    def crash(*nodes_times, loss=0.0):
        return FaultPlan(seed=7, loss=loss, crash_at=tuple(nodes_times))

    scenarios = []

    def add(mode, loss, crashes, record, baseline):
        entry = {"mode": mode, "loss": loss, "crashes": crashes}
        entry.update(record)
        if record.get("completed") and baseline is not None:
            entry["identical_to_fault_free"] = (
                record["result_fingerprint"]
                == baseline["result_fingerprint"])
        scenarios.append(entry)
        return entry

    add("noft", 0.0, [], noft_rec, None)
    add("mask", 0.0, [], mask_rec, noft_rec)
    for loss in LOSS_RATES[1:]:
        rec, _ = one_run(exp_id, faults=FaultPlan(seed=7, loss=loss))
        add("noft", loss, [], rec, noft_rec)

    # --- single-node crash, both regimes, both loss rates -------------
    for loss in LOSS_RATES:
        node, t = 1, round(0.5 * elapsed, 6)  # an application rank
        rec, _ = one_run(exp_id, faults=crash((node, t), loss=loss))
        add("noft", loss, [[node, t]], rec, noft_rec)
        node, t = NPROCS, round(0.5 * mask_elapsed, 6)  # first replica pid
        rec, _ = one_run(exp_id, faults=crash((node, t), loss=loss),
                         replication=repl3)
        add("mask", loss, [[node, t]], rec, mask_rec)

    # --- double replica crash ----------------------------------------
    double_repl = [[NPROCS, round(0.4 * mask_elapsed, 6)],
                   [NPROCS + 1, round(0.7 * mask_elapsed, 6)]]
    rec, _ = one_run(exp_id,
                     faults=crash(*[tuple(c) for c in double_repl]),
                     replication=repl3)
    add("mask", 0.0, double_repl, rec, mask_rec)  # majority dead: aborts
    rec, _ = one_run(exp_id,
                     faults=crash(*[tuple(c) for c in double_repl]),
                     replication=repl5)
    entry = add("mask", 0.0, double_repl, rec, mask5_rec)
    entry["replicas"] = 5

    return {
        "experiment": exp_id,
        "fault_free_time": noft_rec["time"],
        "mask_fault_free_time": mask_rec["time"],
        "replication_time_overhead_pct": round(
            100.0 * (mask_rec["time"] / noft_rec["time"] - 1.0), 1),
        "scenarios": scenarios,
    }


def check(report):
    """The claims BENCH_ft.json exists to document; returns problems."""
    from repro import api
    classified = {exc.__name__ for exc in api.RUN_FAILURES}
    problems = []
    for app, data in report["apps"].items():
        by_mode = {}
        for s in data["scenarios"]:
            by_mode.setdefault((s["mode"], len(s["crashes"]), s["loss"],
                                s.get("replicas", REPLICAS)), []).append(s)
        masked = by_mode[("mask", 1, 0.0, REPLICAS)][0]
        if not (masked.get("completed")
                and masked.get("identical_to_fault_free")
                and masked["replication"]["masked_failures"] == 1):
            problems.append(f"{app}: masked crash not clean/identical")
        masked2 = by_mode[("mask", 2, 0.0, 5)][0]
        if not (masked2.get("completed")
                and masked2.get("identical_to_fault_free")
                and masked2["replication"]["masked_failures"] == 2):
            problems.append(f"{app}: 5-replica double crash not masked")
        for label, key in (("replica-majority", ("mask", 2, 0.0, REPLICAS)),
                           ("unmasked application-rank",
                            ("noft", 1, 0.0, REPLICAS))):
            aborted = by_mode[key][0]
            if (aborted.get("completed")
                    or aborted.get("error") not in classified):
                problems.append(f"{app}: {label} crash did not abort with "
                                "a classified error")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_ft.json"))
    args = parser.parse_args()

    report = {
        "command": "python tools/bench_ft_compare.py",
        "environment": {"cpu_count": os.cpu_count(),
                        "python": sys.version.split()[0]},
        "preset": "tiny",
        "nprocs": NPROCS,
        "replicas": REPLICAS,
        "loss_rates": list(LOSS_RATES),
        "apps": {name: bench_app(name, exp_id)
                 for name, exp_id in APPS.items()},
    }
    problems = check(report)
    report["claims_hold"] = not problems
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    for problem in problems:
        print(f"FATAL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
