#!/usr/bin/env python
"""Chaos load generator for the serving layer; emits BENCH_serve.json.

Launches ``repro serve`` as a real subprocess (chaos injection enabled,
fresh cache directory, ephemeral port) and drives it through every rung
of the degradation ladder:

* **hot/cold mix** -- a burst of requests over warmed and never-seen
  keys, half of the warm ones conditional (``If-None-Match``) to
  exercise 304s;
* **coalescing** -- concurrent identical cold requests held open by an
  injected ``slow:`` fault, so exactly one computes and the rest ride
  the single flight;
* **worker kills** -- ``inject=crash`` requests that ``os._exit`` the
  worker mid-task (the pool re-runs each task the death took down
  alone, so only the injecting request gets a 500 back);
* **degradation** -- a previously-warmed ``/figure`` re-requested with a
  1 ms deadline must come back ``200`` + ``Degraded: ...
  reason=deadline`` (stale-degraded);
* **saturation shedding** -- ``workers + queue_depth + 1`` concurrent
  distinct slow requests: at least one must be shed (``429`` +
  ``Retry-After``, reason ``queue_full``);
* **deadline shedding** -- a cold request with a 1 ms deadline (``429``,
  reason ``deadline``).

The report carries p50/p99 latency (overall and per response class),
counts by classification, server-side counters from ``/metrics``, and
eleven hard assertions (nonzero exit on failure), among them:

* zero corrupt cache entries after the chaos load
  (``ResultCache.validate()``);
* no 5xx anywhere except responses marked ``X-Repro-Injected``;
* every response classifiable via ``X-Repro-Served``;
* the served ``/run`` bytes are byte-identical to a direct
  ``repro.api.run`` computation;
* the server's ``/healthz`` ``source`` is this tool's own
  ``source_fingerprint()[:12]`` -- same tree, same digest, in two
  processes.

It also times what a cache lookup pays to find its key: the source
fingerprint's one full hash in a fresh process against a repeat call,
and ``api.cache_key`` computed against memoised.

Run:  python tools/bench_serve.py [--out BENCH_serve.json] [--hot N]
"""

import argparse
import asyncio
import json
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, SRC)

from repro.serve.http import read_response, render_request  # noqa: E402

HOT_TARGETS = [
    "/run?experiment=fig01&system=tmk&nprocs=2&preset=tiny",
    "/run?experiment=fig01&system=pvm&nprocs=2&preset=tiny",
    "/run?experiment=fig02&system=tmk&nprocs=2&preset=tiny",
    "/figure?experiment=fig01&nprocs=1,2&preset=bench",
]
#: Cold /run keys for the mixed burst (never warmed, never repeated).
COLD_TEMPLATE = "/run?experiment={exp}&system={sys}&nprocs={np}&preset=tiny"
#: The server's pool shape (``start_server``): one more distinct slow
#: request than it has slots must shed.
WORKERS, QUEUE_DEPTH = 2, 8


class Client:
    """Async client over the repo's own HTTP helpers; records latency."""

    def __init__(self, host, port, concurrency):
        self.host = host
        self.port = port
        self.sem = asyncio.Semaphore(concurrency)
        self.records = []  # (target, status, served, latency_s, headers)

    async def get(self, target, headers=None, timeout=60.0):
        async with self.sem:
            started = time.perf_counter()
            reader, writer = await asyncio.open_connection(self.host,
                                                           self.port)
            try:
                writer.write(render_request("GET", target, headers))
                await writer.drain()
                response = await asyncio.wait_for(read_response(reader),
                                                  timeout)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
            latency = time.perf_counter() - started
            served = response.header("X-Repro-Served") or "unclassified"
            self.records.append((target, response.status, served, latency,
                                 dict(response.headers)))
            return response


def percentile(values, pct):
    if not values:
        return None
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


def latency_stats(records):
    by_class = {}
    for _, _, served, latency, _ in records:
        by_class.setdefault(served, []).append(latency)
    overall = [latency for _, _, _, latency, _ in records]

    def stats(values):
        return {
            "count": len(values),
            "p50_ms": round(percentile(values, 50) * 1000, 2),
            "p99_ms": round(percentile(values, 99) * 1000, 2),
            "mean_ms": round(statistics.mean(values) * 1000, 2),
        }

    return {
        "overall": stats(overall),
        "by_class": {cls: stats(vals)
                     for cls, vals in sorted(by_class.items())},
    }


async def drive(client, hot_requests):
    """The load itself; returns observations the report needs."""
    obs = {}

    # -- Phase 1: warm the hot keys (cold computes, fills stale store) --
    etags = {}
    for target in HOT_TARGETS:
        response = await client.get(target)
        assert response.status == 200, (target, response.status)
        etags[target] = response.header("ETag")

    # -- Phase 2: hot/cold burst with conditional requests -------------
    tasks = []
    cold_specs = [("fig%02d" % (3 + i % 6), s, np)
                  for i, (s, np) in enumerate(
                      (s, np) for np in (2, 4) for s in ("tmk", "pvm"))]
    for i in range(hot_requests):
        target = HOT_TARGETS[i % len(HOT_TARGETS)]
        headers = None
        if i % 2 == 0:  # half conditional: these should 304
            headers = {"If-None-Match": etags[target]}
        tasks.append(client.get(target, headers))
    for exp, system, np in cold_specs:
        tasks.append(client.get(
            COLD_TEMPLATE.format(exp=exp, sys=system, np=np)))
    await asyncio.gather(*tasks)

    # -- Phase 3: coalescing -- concurrent identical slow cold flight --
    slow = "/figure?experiment=fig01&nprocs=1,2&preset=tiny&inject=slow:0.4"
    responses = await asyncio.gather(*[client.get(slow) for _ in range(6)])
    obs["coalesce_statuses"] = sorted(r.status for r in responses)

    # -- Phase 4: worker kills (injected crashes, sequential) ----------
    crash = "/run?experiment=fig01&system=tmk&nprocs=4&preset=tiny&inject=crash"
    crash_statuses = []
    for _ in range(3):
        response = await client.get(crash)
        crash_statuses.append((response.status,
                               response.header("X-Repro-Injected")))
    obs["crash_statuses"] = crash_statuses

    # -- Phase 5: degradation -- a warm key past its deadline ----------
    degraded = await client.get(HOT_TARGETS[3] + "&deadline_ms=1")
    obs["degraded"] = {
        "status": degraded.status,
        "served": degraded.header("X-Repro-Served"),
        "header": degraded.header("Degraded"),
    }

    # -- Phase 5b: saturation -- one more distinct slow run than slots -
    responses = await asyncio.gather(*[
        client.get(f"/trace?app=water&nprocs=2&limit={5 + i}"
                   "&inject=slow:0.5")
        for i in range(WORKERS + QUEUE_DEPTH + 1)])
    shed = [r for r in responses if r.status == 429] or responses
    obs["shed"] = {
        "status": shed[0].status,
        "served": shed[0].header("X-Repro-Served"),
        "reason": shed[0].header("X-Repro-Reason"),
        "retry_after": shed[0].header("Retry-After"),
    }

    # -- Phase 6: deadline shedding on a cold key ----------------------
    deadline = await client.get(
        "/profile?experiment=fig05&system=tmk&nprocs=2&preset=tiny"
        "&deadline_ms=1")
    obs["deadline"] = {
        "status": deadline.status,
        "served": deadline.header("X-Repro-Served"),
        "reason": deadline.header("X-Repro-Reason"),
    }

    # -- Wrap up: byte-identity sample + server counters ---------------
    sample = await client.get(HOT_TARGETS[0])
    obs["run_sample"] = {"status": sample.status, "body": sample.body}
    metrics = await client.get("/metrics")
    obs["metrics"] = json.loads(metrics.body)
    health = await client.get("/healthz")
    obs["server_source"] = json.loads(health.body).get("source")
    return obs


def bench_fingerprint():
    """What a lookup pays to derive its key, first time and every time
    after (public surface only; the first-use hash needs a process that
    has not fingerprinted yet, so it runs in a fresh one)."""
    import repro
    from repro import api
    first_use = subprocess.run(
        [sys.executable, "-c",
         "import time\n"
         "from repro.bench.cache import source_fingerprint\n"
         "started = time.perf_counter()\n"
         "digest = source_fingerprint()\n"
         "print(digest, time.perf_counter() - started)\n"],
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
        capture_output=True, text=True).stdout.split()
    assert first_use[0] == api.source_fingerprint()

    def per_call_us(fn, rounds=2000):
        started = time.perf_counter()
        for _ in range(rounds):
            fn()
        return round((time.perf_counter() - started) / rounds * 1e6, 2)

    config = api.RunConfig(experiment="fig12", system="pvm", nprocs=3,
                           preset="tiny")  # a key nothing above asked for
    started = time.perf_counter()
    api.cache_key(config)
    key_first = time.perf_counter() - started
    return {
        "files_hashed": sum(1 for _ in pathlib.Path(
            repro.__file__).parent.rglob("*.py")),
        "first_use_hash_ms": round(float(first_use[1]) * 1000, 3),
        "repeat_call_us": per_call_us(api.source_fingerprint),
        "cache_key_first_us": round(key_first * 1e6, 2),
        "cache_key_repeat_us": per_call_us(lambda: api.cache_key(config)),
    }


def check_byte_identity(obs, cache_dir):
    """Server /run bytes must equal a direct, uncached api.run."""
    from repro import api
    config = api.RunConfig(experiment="fig01", system="tmk", nprocs=2,
                           preset="tiny")
    direct = api.run(config, use_cache=False)
    return obs["run_sample"]["body"] == direct.to_json_bytes()


def start_server(cache_dir):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--allow_injection", "--workers", str(WORKERS),
         "--queue_depth", str(QUEUE_DEPTH),
         "--cache-dir", cache_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:
        proc.terminate()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc, match.group(1), int(match.group(2))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_serve.json"))
    parser.add_argument("--hot", type=int, default=160,
                        help="hot-burst request count (default 160)")
    parser.add_argument("--concurrency", type=int, default=16)
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory() as cache_dir:
        proc, host, port = start_server(cache_dir)
        try:
            client = Client(host, port, args.concurrency)
            started = time.perf_counter()
            obs = asyncio.run(drive(client, args.hot))
            load_wall = time.perf_counter() - started
            byte_identical = check_byte_identity(obs, cache_dir)
        finally:
            # SIGINT, not SIGTERM: the server's shutdown path stops its
            # worker pool; a terminated server orphans its workers.
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)

        from repro.bench.cache import ResultCache, source_fingerprint
        cache_state = ResultCache(cache_dir).validate()

    counts = {}
    non_injected_5xx = 0
    unclassified = 0
    not_modified = 0
    for _, status, served, _, headers in client.records:
        if status == 304:
            not_modified += 1
        counts[served] = counts.get(served, 0) + 1
        # read_response lower-cases header names on the client side.
        if status >= 500 and "x-repro-injected" not in headers:
            non_injected_5xx += 1
        if served == "unclassified":
            unclassified += 1

    metrics = obs["metrics"]
    report = {
        "environment": {"cpu_count": os.cpu_count(),
                        "python": sys.version.split()[0]},
        "load": {
            "total_requests": len(client.records),
            "wall_seconds": round(load_wall, 2),
            "concurrency": args.concurrency,
        },
        "latency": latency_stats(client.records),
        "classification_counts": dict(sorted(counts.items())),
        "not_modified_304": not_modified,
        "degraded_sample": {k: v for k, v in obs["degraded"].items()},
        "shed_sample": obs["shed"],
        "deadline_sample": obs["deadline"],
        "server_metrics": {
            "coalesced": metrics.get("coalesced"),
            "worker_crashes": metrics.get("worker_crashes"),
            "degraded": metrics.get("degraded"),
            "shed": metrics.get("shed"),
            "not_modified": metrics.get("not_modified"),
            "cache_hits": metrics.get("cache_hits"),
            "cache_quarantined": metrics.get("cache_quarantined"),
        },
        "cache_state": cache_state,
        "key_derivation": bench_fingerprint(),
        "assertions": {},
    }

    # -- Hard assertions ------------------------------------------------
    def check(name, ok, detail):
        report["assertions"][name] = bool(ok)
        if not ok:
            failures.append(f"{name}: {detail}")

    check("zero_corrupt_cache_entries", cache_state["corrupt"] == 0,
          cache_state)
    check("no_non_injected_5xx", non_injected_5xx == 0,
          f"{non_injected_5xx} unexplained 5xx responses")
    check("every_response_classified", unclassified == 0,
          f"{unclassified} responses without X-Repro-Served")
    check("coalescing_observed", metrics.get("coalesced", 0) >= 1,
          metrics.get("coalesced"))
    check("degradation_observed",
          obs["degraded"]["served"] == "stale-degraded"
          and "reason=deadline" in (obs["degraded"]["header"] or ""),
          obs["degraded"])
    check("shedding_observed",
          obs["shed"]["status"] == 429
          and obs["shed"]["reason"] == "queue_full"
          and obs["shed"]["retry_after"] is not None, obs["shed"])
    check("deadline_enforced", obs["deadline"]["status"] == 429
          and obs["deadline"]["served"] == "shed"
          and obs["deadline"]["reason"] == "deadline", obs["deadline"])
    check("conditional_304_observed", not_modified >= 1, not_modified)
    check("injected_crashes_surfaced",
          all(s == 500 and mark == "crash"
              for s, mark in obs["crash_statuses"]),
          obs["crash_statuses"])
    check("served_bytes_match_direct_api", byte_identical, "bytes differ")
    own_source = source_fingerprint()[:12]
    check("server_runs_this_source", obs["server_source"] == own_source,
          f"/healthz source {obs['server_source']!r} != {own_source!r}")

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
