#!/usr/bin/env python
"""Compare the fault-tolerance strategies; emit BENCH_ft.json.

Runs SOR (fig02) and TSP (fig06) on 4 application processors under three
regimes -- no fault tolerance, checkpoint/rollback recovery, and SC-ABD
quorum masking -- across crash counts (0, 1, 2) and message-loss rates
(0, 1%), and records for each scenario:

* whether the run completed, its measured virtual time, and a structural
  fingerprint of the application result (sha-256 over array bytes);
* the recovery ledger (rollbacks, lost work, overhead) or the
  replication ledger (masked crashes, detection latency, quorum traffic).

Every scenario is a ``RunConfig`` run through ``repro.api.run``, so every
completed run is also checked against the sequential program.

The report also checks the headline claims of the masking mode:

* a quorum-minority replica crash under ``mask`` completes with a result
  byte-identical to the fault-free run and **zero** rollback events;
* the same single-node-crash scenario under ``rollback`` shows nonzero
  recovery overhead (lost work re-executed, checkpoints restored);
* an unmaskable crash (replica majority) aborts cleanly instead of
  producing a wrong result.

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


def one_run(exp_id, faults=None, recovery=None, replication=None):
    """One verified run; returns the scenario record + the live result."""
    from repro import api
    from repro.sim.recovery import NodeFailure
    from repro.verify.explorer import fingerprint
    config = api.RunConfig(exp_id, "tmk", NPROCS, "tiny", faults=faults,
                           recovery=recovery, replication=replication)
    try:
        result = api.run(config, use_cache=False, want_parallel=True)
    except NodeFailure as failure:
        return {"completed": False, "abort": str(failure)}, None
    record = {
        "completed": True,
        "time": round(result.time, 6),
        "result_fingerprint": fingerprint(result.parallel.result),
        "messages": result.messages,
    }
    # The RunResult ledgers, under this report's key names and rounding.
    if result.recovery is not None:
        rollback = dict(result.recovery)
        for name in ("detection_latency", "lost_work", "restore_time",
                     "overhead_time"):
            rollback[name] = round(rollback[name], 6)
        record["rollback"] = rollback
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
    from repro.sim.recovery import RecoveryConfig

    repl3 = ReplicationConfig(replicas=REPLICAS)
    repl5 = ReplicationConfig(replicas=5)

    # Probe the two fault-free executions: their elapsed times place the
    # crashes mid-run, and their fingerprints are the identity baselines.
    noft_rec, noft = one_run(exp_id)
    elapsed = noft.cluster.elapsed
    mask_rec, mask_clean = one_run(exp_id, replication=repl3)
    mask_elapsed = mask_clean.cluster.elapsed
    mask5_rec, mask5_clean = one_run(exp_id, replication=repl5)
    checkpoint = RecoveryConfig(checkpoint_interval=0.25 * elapsed)

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

    # --- single-node crash, both strategies, both loss rates ----------
    for loss in LOSS_RATES:
        node, t = 1, round(0.5 * elapsed, 6)
        rec, _ = one_run(exp_id, faults=crash((node, t), loss=loss),
                         recovery=checkpoint)
        add("rollback", loss, [[node, t]], rec, noft_rec)
        node, t = NPROCS, round(0.5 * mask_elapsed, 6)  # first replica pid
        rec, _ = one_run(exp_id, faults=crash((node, t), loss=loss),
                         replication=repl3)
        add("mask", loss, [[node, t]], rec, mask_rec)

    # --- double crash ------------------------------------------------
    double_app = [[1, round(0.4 * elapsed, 6)], [2, round(0.7 * elapsed, 6)]]
    rec, _ = one_run(exp_id,
                     faults=crash(*[tuple(c) for c in double_app]),
                     recovery=checkpoint)
    add("rollback", 0.0, double_app, rec, noft_rec)
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
    problems = []
    for app, data in report["apps"].items():
        by_mode = {}
        for s in data["scenarios"]:
            by_mode.setdefault((s["mode"], len(s["crashes"]), s["loss"],
                                s.get("replicas", REPLICAS)), []).append(s)
        masked = by_mode[("mask", 1, 0.0, REPLICAS)][0]
        if not (masked.get("completed")
                and masked.get("identical_to_fault_free")
                and masked["replication"]["masked_failures"] == 1
                and "rollback" not in masked):
            problems.append(f"{app}: masked crash not clean/identical")
        rolled = by_mode[("rollback", 1, 0.0, REPLICAS)][0]
        if not (rolled.get("completed")
                and rolled["rollback"]["recoveries"] >= 1
                and rolled["rollback"]["overhead_time"] > 0):
            problems.append(f"{app}: rollback crash shows no overhead")
        majority = by_mode[("mask", 2, 0.0, REPLICAS)][0]
        if majority.get("completed"):
            problems.append(f"{app}: replica-majority crash did not abort")
        masked2 = by_mode[("mask", 2, 0.0, 5)][0]
        if not (masked2.get("completed")
                and masked2.get("identical_to_fault_free")
                and masked2["replication"]["masked_failures"] == 2):
            problems.append(f"{app}: 5-replica double crash not masked")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_ft.json"))
    args = parser.parse_args()

    report = {
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
