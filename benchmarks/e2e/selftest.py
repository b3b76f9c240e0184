#!/usr/bin/env python3
"""Self-test of the benchmark: ``python benchmarks/e2e/selftest.py``
(or ``pytest benchmarks/e2e/selftest.py``).  About a minute.

Runs the whole benchmark twice in ``--quick`` mode with two seeds and
checks what must hold on any machine: the output schema, the metric
names, that everything ``BENCHMARK.json`` lists is reported and nothing
else, that no operation fails, and that every deterministic number --
virtual time, result digests, simulated message counts -- is the same
for both seeds.  Timings are not judged here.

Not named ``test_*``/``bench_*`` on purpose: tier-1 collection and the
pytest-benchmark files beside this directory do not pick it up.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(HERE, "out", "selftest")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)


def quick_report(seed: int) -> dict:
    path = os.path.join(SCRATCH, f"quick-{seed}.json")
    done = run(RUN, "--quick", "--seed", str(seed), "--out", path)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            contract = json.load(fh)
        workloads = [entry["name"] for entry in contract["workloads"]]
        end_to_end = [entry["name"] for entry in contract["end_to_end"]]
        per_layer = [entry["name"] for entry in contract["per_layer"]]
        for name in workloads + end_to_end + per_layer:
            assert NAME.match(name), name
        assert "setup_s" in end_to_end

        a, b = quick_report(1), quick_report(2)
        for report in (a, b):
            assert list(report["workloads"]) == workloads
            for name, entry in report["workloads"].items():
                assert list(entry["end_to_end"]) == end_to_end, name
                assert list(entry["per_layer"]) == per_layer, name
                assert entry["failed"] == 0 and entry["attempted"] > 0, name
                assert len(entry["digests"]) == 1, name
                for metric in entry["end_to_end"].values():
                    assert all(value > 0 for value in metric["values"])
                assert os.path.isfile(os.path.join(ROOT, entry["trace"]))

        # Deterministic numbers do not depend on the seed.
        for name in workloads:
            wa, wb = a["workloads"][name], b["workloads"][name]
            assert wa["digests"] == wb["digests"], name
            assert wa["virtual_s"] == wb["virtual_s"], name
            for metric, entry in wa["per_layer"].items():
                if entry["unit"] in ("count", "sim_s", "KB"):
                    assert entry == wb["per_layer"][metric], (name, metric)

        # The comparer accepts a report against itself, and finds no
        # exact mismatch between the two seeds (single quick runs are too
        # noisy to hold their timings to the bounds).
        paths = [os.path.join(SCRATCH, f"quick-{seed}.json")
                 for seed in (1, 2)]
        done = run(RUN, "--check", paths[0], paths[0])
        assert done.returncode == 0, done.stdout
        done = run(RUN, "--check", *paths)
        assert "!=" not in done.stdout, done.stdout

        # One measurement ends in one JSON line with exactly four keys.
        done = run(RUN, "--workload", "grid_pvm", "--seed", "3",
                   "--seconds", "1", "--trace", "0", "--quick")
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] and list(last["metrics"]) == end_to_end

        # With nothing to measure it fails and prints no result.
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "benchmarks", "e2e"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run(os.path.join("benchmarks", "e2e", "run.py"),
                   "--workload", "grid_pvm", "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    test_benchmark()
    print("benchmarks/e2e selftest: ok")
