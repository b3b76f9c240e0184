#!/usr/bin/env python
"""Microbenchmark the kernel backends; emit BENCH_kernels.json.

Measures every resolvable backend (``pure``, ``numpy``, and ``compiled``
when the extension is built) across the six frozen page-ops:
``make_diff``, ``make_diff_batch``, ``apply_diff``, ``apply_diff_batch``,
``twin_compare``, and ``fault_scan``, on two realistic workloads:

* **sparse** -- a handful of scattered word flips per page (TSP-like
  lock-protected updates; the protocol's common case);
* **dense**  -- one long contiguous dirty region per page (SOR-like
  boundary-row writes).

The report is cross-backend evidence (which ops each backend wins), not
a gate: host time is compared only by ``benchmarks/e2e/run.py``.

Run:   python tools/bench_kernels.py [--out BENCH_kernels.json]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

PAGE_SIZE = 4096
PAGES = 64


def build_workload(kind, rng):
    import numpy as np
    twins = [rng.integers(0, 256, PAGE_SIZE, dtype=np.uint8)
             for _ in range(PAGES)]
    currents = []
    for twin in twins:
        cur = twin.copy()
        if kind == "sparse":
            for _ in range(8):
                word = int(rng.integers(0, PAGE_SIZE // 4))
                cur[word * 4:(word + 1) * 4] ^= 0xFF
        else:  # dense: one contiguous quarter-page run
            start = int(rng.integers(0, PAGE_SIZE // 2)) & ~3
            cur[start:start + PAGE_SIZE // 4] ^= 0xFF
        currents.append(cur)
    return currents, twins


def bench_backend(backend, currents, twins, rounds):
    import numpy as np
    total = rounds * PAGES
    out = {}

    started = time.perf_counter()
    for _ in range(rounds):
        for cur, twin in zip(currents, twins):
            backend.make_diff(cur, twin)
    out["make_diff_us"] = (time.perf_counter() - started) / total * 1e6

    started = time.perf_counter()
    for _ in range(rounds):
        runs_list = backend.make_diff_batch(currents, twins)
    out["make_diff_batch_us"] = (time.perf_counter() - started) / total * 1e6

    scratch = bytearray(twins[0].tobytes())
    started = time.perf_counter()
    for _ in range(rounds * PAGES):
        backend.apply_diff(scratch, runs_list[0])
    out["apply_diff_us"] = (time.perf_counter() - started) / total * 1e6

    started = time.perf_counter()
    for _ in range(rounds * PAGES):
        backend.apply_diff_batch(scratch, runs_list[:4])
    out["apply_diff_batch_us"] = (time.perf_counter() - started) / total * 1e6

    clean = twins[0].copy()
    started = time.perf_counter()
    for _ in range(rounds * PAGES):
        backend.twin_compare(clean, twins[0])
    out["twin_compare_us"] = (time.perf_counter() - started) / total * 1e6

    valid = bytearray(b"\x01" * 256)
    valid[17] = 0
    valid[200] = 0
    started = time.perf_counter()
    for _ in range(rounds * PAGES):
        backend.fault_scan(valid, 0, 256)
    out["fault_scan_us"] = (time.perf_counter() - started) / total * 1e6

    return {op: round(us, 3) for op, us in out.items()}


def measure(rounds):
    import numpy as np
    from repro.kernels import get_backend

    rng = np.random.default_rng(1995)
    workloads = {kind: build_workload(kind, rng)
                 for kind in ("sparse", "dense")}
    backends = {}
    for name in ("pure", "numpy", "compiled"):
        backend = get_backend(name)
        if backend.name != name:
            continue  # compiled unbuilt: resolves to numpy, skip the dup
        backends[name] = {
            kind: bench_backend(backend, currents, twins, rounds)
            for kind, (currents, twins) in workloads.items()}
    return backends


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_kernels.json"))
    parser.add_argument("--rounds", type=int, default=50)
    args = parser.parse_args()

    report = {
        "environment": {"cpu_count": os.cpu_count(),
                        "python": sys.version.split()[0]},
        "page_size": PAGE_SIZE,
        "pages": PAGES,
        "rounds": args.rounds,
        "backends": measure(args.rounds),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
