"""The four workloads and the worker process that measures one of them.

``run.py`` starts this file as a fresh subprocess per set-up
(``python workloads.py <spec.json>``); everything here runs inside that
process and reaches the simulator only through its public entry points.

A workload is a fixed list of *units*.  A unit is the timed region:
one cold ``api.run`` (grids), one ``run_parallel`` plus its oracle check
(``scale_sor``), or one closed-loop batch of requests (``serve_warm``).
A *cycle* runs every unit once, in an order drawn from the seed; the
program under test only ever sees the generated configs and requests.
``prepare`` and ``finish`` run outside the timed region.
"""

from __future__ import annotations

import asyncio
import cProfile
import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import pstats
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.normpath(
    os.path.join(HERE, os.pardir, os.pardir, "src")))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import api  # noqa: E402
from repro.apps import base  # noqa: E402
from repro.apps.sor import SorParams  # noqa: E402
from repro.bench import harness, sweep  # noqa: E402
from repro.bench.cache import ResultCache, canonical_json  # noqa: E402
from repro.kernels import get_backend  # noqa: E402
from repro.serve.app import ReproServer  # noqa: E402
from repro.serve.config import ServeConfig  # noqa: E402
from repro.serve.http import read_response, render_request  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sim.stats import MessageStats  # noqa: E402
from repro.tmk.api import TmkConfig  # noqa: E402

import layers  # noqa: E402
import trace  # noqa: E402

#: As cProfile spells it in the file names it records.
PACKAGE_ROOT = os.path.dirname(repro.__file__)
TMK_CATEGORIES = ("lock_request", "lock_forward", "lock_grant",
                  "barrier_arrival", "barrier_departure",
                  "diff_request", "diff_response")
KERNEL_OPS = ("make_diff", "make_diff_batch", "apply_diff",
              "apply_diff_batch", "twin_compare", "fault_scan")


def sweep_stack() -> Tuple[str, str]:
    """(engine, kernels) the sweep defaults to.

    The benchmark follows the repo's fastest stack instead of naming one,
    so a later collapse of engines or backends needs no benchmark edit.
    A ``compiled`` request that resolved to another backend means the
    extension is unbuilt: refuse, because the numbers would silently
    describe a different program.
    """
    config = sweep.sweep_configs(systems=("tmk",))[0]
    resolved = get_backend(config.kernels).name
    if resolved != config.kernels:
        raise SystemExit(
            f"kernels backend {config.kernels!r} resolved to {resolved!r}: "
            "run tools/build_kernels.py (run.py does) before measuring")
    return config.engine, config.kernels


@dataclass
class Outcome:
    """What one unit produced, summarised outside the timed region."""

    attempted: int
    failed: int
    #: Simulated seconds this unit contributes to ``virtual_s``.
    virtual_s: float
    #: Canonical result bytes: hashed into the digest, and required to
    #: repeat exactly on every cycle.
    payload: bytes
    stats: Optional[MessageStats] = None
    #: Per-request latencies when the unit is a batch of operations.
    latencies: Optional[List[float]] = None
    counts: Dict[str, int] = field(default_factory=dict)


class Workload:
    """Set-up, the units, and how to run and check one of them."""

    name = ""
    #: Operations per unit (requests per batch for ``serve_warm``).
    ops_per_unit = 1

    def __init__(self, seed: int, quick: bool) -> None:
        self.rng = random.Random(seed)
        self.quick = quick
        self.engine, self.kernels = sweep_stack()
        #: Set for the traced cycle only.
        self.recorder: Optional[trace.SpanRecorder] = None
        self.units: List[str] = []
        #: ``run_wall_s.<group>`` -> the units it sums.
        self.groups: Dict[str, List[str]] = {}

    def _op(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, "op")

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, unit: str) -> None:
        pass

    def run(self, unit: str) -> Any:
        raise NotImplementedError

    def finish(self, unit: str, raw: Any) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# grid_tmk / grid_pvm
# ----------------------------------------------------------------------
class Grid(Workload):
    """The paper's 12 experiments on one system at 8 processors, each a
    cold ``api.run`` into a fresh result cache: simulation, sequential
    oracle, verification and the cache write are all inside the unit."""

    system = ""

    def setup(self) -> None:
        preset = "tiny" if self.quick else "bench"
        self.configs = {
            config.experiment: config
            for config in sweep.sweep_configs(systems=(self.system,),
                                              nprocs=(8,), preset=preset)}
        self.units = list(self.configs)
        self.groups = {unit: [unit] for unit in self.units}
        # Warm-up: the same experiments at the tiny preset touch every
        # code path (imports, numpy set-up, the fingerprint's full hash)
        # at a cost set-up can afford three times per run.
        warm_dir = tempfile.mkdtemp(prefix="warm-")
        try:
            for config in sweep.sweep_configs(systems=(self.system,),
                                              nprocs=(8,), preset="tiny"):
                api.run(config, cache=ResultCache(warm_dir))
        finally:
            shutil.rmtree(warm_dir)

    def prepare(self, unit: str) -> None:
        harness.clear_cache()
        self.cache_dir = tempfile.mkdtemp(prefix="cache-")
        self.cache = ResultCache(self.cache_dir)

    def run(self, unit: str) -> Any:
        with self._op(unit):
            return api.run(self.configs[unit], cache=self.cache)

    def finish(self, unit: str, raw: Any) -> Outcome:
        shutil.rmtree(self.cache_dir)
        # A cold run simulates and stores exactly one record.
        cold = not raw.cached and self.cache.stores == 1
        return Outcome(attempted=1, failed=0 if cold else 1,
                       virtual_s=raw.time, payload=raw.to_json_bytes(),
                       stats=raw.parallel.stats)


class GridTmk(Grid):
    name = "grid_tmk"
    system = "tmk"


class GridPvm(Grid):
    name = "grid_pvm"
    system = "pvm"


# ----------------------------------------------------------------------
# scale_sor
# ----------------------------------------------------------------------
class ScaleSor(Workload):
    """Red/black SOR at three cluster sizes on tmk (central and tree
    barrier) and pvm, weak-scaled: 4 rows per node, one row = one 4 KB
    page (width 512), so every band is page-aligned and no false sharing
    is built in."""

    name = "scale_sor"
    VARIANTS = (("tmk-central", "tmk", "central"),
                ("tmk-tree", "tmk", "tree"),
                ("pvm", "pvm", None))

    def setup(self) -> None:
        nodes = (8, 16, 32) if self.quick else (32, 64, 128)
        self.spec = base.get_app("sor")
        self.plan: Dict[str, Tuple[str, int, SorParams, Dict[str, Any]]] = {}
        for n in nodes:
            params = SorParams(rows=4 * n, width=512, iterations=4)
            # Each simulated node mirrors (and touches) the whole shared
            # segment, so size it to the two colour arrays it holds
            # instead of the app's 16 MB default: host memory is n times
            # this.
            segment = 2 * params.rows * params.width * 8 + (1 << 16)
            for label, system, barrier in self.VARIANTS:
                extra = {}
                if barrier is not None:
                    extra["tmk_config"] = TmkConfig(segment_bytes=segment,
                                                    barrier_kind=barrier)
                self.plan[f"n{n}.{label}"] = (system, n, params, extra)
            self.groups[f"n{n}"] = [f"n{n}.{label}"
                                    for label, _, _ in self.VARIANTS]
        self.units = list(self.plan)
        # Warm-up: the smallest cluster touches every code path.  Growing
        # the heap to working size is left to the warm-up cycle: a cold
        # cycle costs more than set-up, done three times a run, can pay.
        for unit in self.units[:len(self.VARIANTS)]:
            self.run(unit)

    def run(self, unit: str) -> Any:
        system, n, params, extra = self.plan[unit]
        with self._op(unit):
            par = base.run_parallel(self.spec, system, n, params,
                                    engine=self.engine,
                                    kernels=self.kernels, **extra)
            seq = base.run_sequential(self.spec, params)
            return par, self.spec.verify(par.result, seq.result)

    def finish(self, unit: str, raw: Any) -> Outcome:
        par, verified = raw
        payload = canonical_json({
            "unit": unit, "time": par.time,
            "messages": par.total_messages(),
            "kbytes": par.total_kbytes()}).encode()
        return Outcome(attempted=1, failed=0 if verified else 1,
                       virtual_s=par.time, payload=payload, stats=par.stats)


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------
class ServeWarm(Workload):
    """An in-process ``ReproServer`` over a pre-populated cache; one
    keep-alive connection, closed loop, one client, client and server on
    one asyncio loop.  Every request is a cache hit, every fourth one
    conditional (``If-None-Match`` -> 304)."""

    name = "serve_warm"
    SERVED = ("fig01", "fig02", "fig04", "fig08")

    def setup(self) -> None:
        self.ops_per_unit = 200 if self.quick else 2000
        self.units = ["batch"]
        self.cache_dir = tempfile.mkdtemp(prefix="serve-")
        cache = ResultCache(self.cache_dir)
        self.targets: List[str] = []
        self.expected: List[bytes] = []
        #: requests[key][conditional] -> rendered request bytes.
        self.requests: List[Tuple[bytes, bytes]] = []
        for config in sweep.sweep_configs(experiments=self.SERVED,
                                          nprocs=(4,), preset="tiny"):
            result = api.run(config, cache=cache)
            target = (f"/run?experiment={config.experiment}"
                      f"&system={config.system}&nprocs=4&preset=tiny")
            self.targets.append(target)
            self.expected.append(result.to_json_bytes())
            self.requests.append((
                render_request("GET", target),
                render_request("GET", target,
                               {"If-None-Match": result.etag})))
        self.loop = asyncio.new_event_loop()
        self.server = ReproServer(ServeConfig(port=0, workers=1),
                                  cache_dir=self.cache_dir)
        self.loop.run_until_complete(self.server.start(prewarm=True))
        self.reader, self.writer = self.loop.run_until_complete(
            asyncio.open_connection("127.0.0.1", self.server.port))
        # Warm-up: a tenth of a batch fills the server's stale store and
        # the client's code paths; requests have no larger state to grow.
        self.loop.run_until_complete(
            self._batch(list(range(len(self.targets))) * 25))

    def run(self, unit: str) -> Any:
        # A seeded shuffle of a balanced multiset: every key is served.
        picks = [i % len(self.targets) for i in range(self.ops_per_unit)]
        self.rng.shuffle(picks)
        return self.loop.run_until_complete(self._batch(picks))

    async def _batch(self, picks: Sequence[int]) -> Dict[str, Any]:
        latencies: List[float] = []
        counts: Counter = Counter()
        served: Dict[int, bytes] = {}
        failed = 0
        seen: Counter = Counter()
        for key in picks:
            # Every fourth request *of a key* is conditional, so status
            # and byte counts do not depend on the shuffle.
            seen[key] += 1
            conditional = seen[key] % 4 == 0
            with self._op("GET /run"):
                started = time.perf_counter()
                self.writer.write(self.requests[key][conditional])
                await self.writer.drain()
                response = await read_response(self.reader)
                latencies.append(time.perf_counter() - started)
            counts[f"status_{response.status}"] += 1
            counts["bytes_out"] += len(response.body)
            if conditional:
                ok = response.status == 304 and not response.body
            else:
                ok = (response.status == 200
                      and response.body == self.expected[key])
                served[key] = response.body
            if not ok or response.header("X-Repro-Served") != "fresh":
                failed += 1
        return {"latencies": latencies, "counts": counts, "served": served,
                "failed": failed}

    def finish(self, unit: str, raw: Any) -> Outcome:
        failed = raw["failed"]
        bodies = [raw["served"].get(key) for key in range(len(self.targets))]
        if None in bodies:  # a key never answered with a body
            failed = self.ops_per_unit
            bodies = [body or b"" for body in bodies]
        virtual = sum(json.loads(body)["time"] for body in bodies if body)
        return Outcome(attempted=self.ops_per_unit, failed=failed,
                       virtual_s=virtual, payload=b"\n".join(bodies),
                       latencies=raw["latencies"],
                       counts=dict(raw["counts"]))

    def teardown(self) -> None:
        async def close() -> None:
            self.writer.close()
            await self.writer.wait_closed()
            await self.server.stop()
            # The connection handler ends on the client's EOF; let it.
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=5)

        self.loop.run_until_complete(close())
        self.loop.close()
        # stop() shuts the worker pool down without waiting for it.
        for child in multiprocessing.active_children():
            child.join(30)
        shutil.rmtree(self.cache_dir)


WORKLOADS = {cls.name: cls for cls in (GridTmk, GridPvm, ScaleSor, ServeWarm)}


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
class HostMeter:
    """getrusage deltas and collector pauses, over timed regions only."""

    def __init__(self) -> None:
        self.user_s = self.sys_s = self.gc_pause_s = 0.0
        self.minor_faults = self.gen2_collections = 0
        self._timing = False
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if not self._timing:
            return  # the forced collection between units
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gen2_collections += info["generation"] == 2

    def __enter__(self) -> "HostMeter":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._on_gc)

    @contextlib.contextmanager
    def timed(self):
        before = resource.getrusage(resource.RUSAGE_SELF)
        self._timing = True
        try:
            yield
        finally:
            self._timing = False
            after = resource.getrusage(resource.RUSAGE_SELF)
            self.user_s += after.ru_utime - before.ru_utime
            self.sys_s += after.ru_stime - before.ru_stime
            self.minor_faults += after.ru_minflt - before.ru_minflt


def run_cycle(workload: Workload, order: Sequence[str],
              meter: Optional[HostMeter] = None,
              profile: Optional[cProfile.Profile] = None
              ) -> Dict[str, Tuple[float, Outcome]]:
    """Every unit once, in ``order`` -> unit -> (wall, outcome).

    Untraced cycles force a collection before each unit, outside its
    timed region; the traced cycle (``profile``) runs the units back to
    back and profiles only the units themselves.
    """
    results: Dict[str, Tuple[float, Outcome]] = {}
    for unit in order:
        workload.prepare(unit)
        if profile is None:
            gc.collect()
        timed = meter.timed() if meter else contextlib.nullcontext()
        raw = None
        with timed:
            started = time.perf_counter()
            if profile is not None:
                profile.enable()
            try:
                raw = workload.run(unit)
            except Exception:  # the unit failed; the benchmark goes on
                traceback.print_exc()
            finally:
                if profile is not None:
                    profile.disable()
                wall = time.perf_counter() - started
        if raw is None:
            outcome = Outcome(attempted=workload.ops_per_unit,
                              failed=workload.ops_per_unit, virtual_s=0.0,
                              payload=b"failed")
        else:
            outcome = workload.finish(unit, raw)
        del raw  # or the next unit's forced collection could not free it
        results[unit] = (wall, outcome)
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seeded_order(workload: Workload) -> List[str]:
    return workload.rng.sample(workload.units, len(workload.units))


def measure(workload: Workload, seconds: float, max_cycles: Optional[int]
            ) -> Dict[str, Any]:
    """The warm-up cycle, then the timed (untraced) cycles.

    The warm-up cycle runs the units in their fixed order.  It grows the
    heap to working size (a first cycle is slower and far noisier than
    the ones after it), supplies the numbers that must not depend on the
    seed -- the digest, ``virtual_s``, the simulated counts -- and
    ``peak_rss_mb``: how far the allocator's heap fragments after that
    depends on the order of the units (``scale_sor`` ended at 430, 490
    or 630 MB by seed), so the peak is read where the order is fixed.

    The timed cycles run in seeded order: as many whole cycles as fit in
    ``seconds`` going by the warm-up's length, and at least two.
    """
    started = time.perf_counter()
    warm = run_cycle(workload, workload.units)
    elapsed = time.perf_counter() - started
    peak = peak_rss_mb()
    target = max(2, int(seconds // elapsed))
    if max_cycles is not None:
        target = min(target, max_cycles)
    first = {unit: outcome for unit, (_, outcome) in warm.items()}
    attempted = sum(outcome.attempted for outcome in first.values())
    failed = sum(outcome.failed for outcome in first.values())

    walls: Dict[str, List[float]] = {unit: [] for unit in workload.units}
    latencies: List[float] = []
    with HostMeter() as meter:
        for _ in range(target):
            cycle = run_cycle(workload, seeded_order(workload), meter)
            for unit, (wall, outcome) in cycle.items():
                walls[unit].append(wall)
                attempted += outcome.attempted
                failed += outcome.failed
                latencies.extend(outcome.latencies or ())
                if outcome.payload != first[unit].payload \
                        and not outcome.failed:
                    print(f"{unit}: result changed between cycles",
                          file=sys.stderr)
                    failed += outcome.attempted
    medians = {unit: statistics.median(samples)
               for unit, samples in walls.items()}
    wall_s = sum(medians.values())
    ordered = sorted(latencies) or [0.0]
    digest = hashlib.sha256()
    for unit in workload.units:
        digest.update(first[unit].payload)
    return {
        "wall_s": wall_s,
        "ops_per_s": len(workload.units) * workload.ops_per_unit / wall_s,
        "req_p50_ms": statistics.median(ordered) * 1e3,
        "req_p99_ms": ordered[int(0.99 * (len(ordered) - 1))] * 1e3,
        "peak_rss_mb": peak,
        "virtual_s": sum(first[unit].virtual_s for unit in workload.units),
        "digest": digest.hexdigest(),
        "attempted": attempted, "failed": failed, "cycles": target,
        "unit_wall_s": medians,
        "stats": [first[unit].stats for unit in workload.units],
        "counts": {unit: first[unit].counts for unit in workload.units},
        "meter": meter,
    }


def traced_cycle(workload: Workload, trace_path: str,
                 meta: Dict[str, Any]) -> Dict[str, Any]:
    """One cycle under the span recorder and cProfile; writes the trace."""
    layers.check_tree(PACKAGE_ROOT)
    recorder = trace.SpanRecorder()
    profile = cProfile.Profile()
    workload.recorder = recorder
    try:
        with trace.phase_wrappers(recorder), \
                recorder.span(workload.name, "pass"):
            results = run_cycle(workload, seeded_order(workload),
                                profile=profile)
    finally:
        workload.recorder = None
    stats = pstats.Stats(profile).stats
    fold = layers.fold(stats, PACKAGE_ROOT)
    backend = get_backend(workload.kernels)
    wall = sum(wall for wall, _ in results.values())
    trace.write_chrome_trace(trace_path, recorder, fold,
                             {**meta, "traced_wall_s": wall})
    return {
        "wall_s": wall,
        "failed": sum(outcome.failed for _, outcome in results.values()),
        "layers": fold,
        "phases": recorder.self_seconds("phase"),
        "events_posted": layers.calls_of(stats, Engine.post),
        "kernel_calls": {op: layers.calls_of(stats, getattr(backend, op))
                         for op in KERNEL_OPS},
        "peak_rss_mb": peak_rss_mb(),
    }


def kernel_microbench(name: str, rounds: int = 8) -> Dict[str, float]:
    """Microseconds per call of the six page ops of the backend the
    workloads use, over a fixed 64-page sparse + dense set."""
    backend = get_backend(name)
    rng = np.random.default_rng(1995)
    page, pages = 4096, 64
    twins = [rng.integers(0, 256, page, dtype=np.uint8)
             for _ in range(2 * pages)]
    currents = [twin.copy() for twin in twins]
    for cur in currents[:pages]:  # sparse: 8 scattered word flips
        for word in rng.integers(0, page // 4, 8):
            cur[word * 4:(word + 1) * 4] ^= 0xFF
    for cur in currents[pages:]:  # dense: one quarter-page run
        start = int(rng.integers(0, page // 2)) & ~3
        cur[start:start + page // 4] ^= 0xFF
    runs_list = backend.make_diff_batch(currents, twins)
    scratch = [bytearray(twin.tobytes()) for twin in twins]
    valid = bytearray(b"\x01" * 256)
    valid[17] = valid[200] = 0
    calls = rounds * len(twins)

    def per_call(fn) -> float:
        started = time.perf_counter()
        for _ in range(rounds):
            fn()
        return (time.perf_counter() - started) / calls * 1e6

    return {
        "make_diff": per_call(lambda: [
            backend.make_diff(c, t) for c, t in zip(currents, twins)]),
        "make_diff_batch": per_call(
            lambda: backend.make_diff_batch(currents, twins)),
        "apply_diff": per_call(lambda: [
            backend.apply_diff(s, r) for s, r in zip(scratch, runs_list)]),
        "apply_diff_batch": per_call(lambda: [
            backend.apply_diff_batch(s, [r, r])
            for s, r in zip(scratch, runs_list)]),
        "twin_compare": per_call(lambda: [
            backend.twin_compare(c, t) for c, t in zip(currents, twins)]),
        "fault_scan": per_call(lambda: [
            backend.fault_scan(valid, 0, 256) for _ in twins]),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def per_layer_metrics(workload: Workload, untraced: Dict[str, Any],
                      traced: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, for every workload: one that does not
    apply (``run_wall_s.fig01`` on ``scale_sor``) reads 0."""
    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in layers.LAYERS:
        put(f"{layer}.self_s", traced["layers"][layer]["self_s"], "s")
        # Calls of repro code repeat exactly; ``other`` includes the event
        # loop, whose calls follow socket readiness.
        put(f"{layer}.calls", traced["layers"][layer]["calls"],
            "events" if layer == "other" else "count")
    for phase in trace.PHASES:
        put(f"phase.{phase}_s", traced["phases"].get(phase, 0.0), "s")

    def total(system: str, category: Optional[str] = None) -> Tuple[int, int]:
        messages = nbytes = 0
        for stats in untraced["stats"]:
            if stats is not None:
                counter = (stats.total(system) if category is None
                           else stats.get(system, category))
                messages += counter.messages
                nbytes += counter.bytes
        return messages, nbytes

    tmk, pvm = total("tmk"), total("pvm")
    put("sim.network.msgs", tmk[0] + pvm[0], "count")
    put("sim.network.kbytes", (tmk[1] + pvm[1]) / 1024.0, "KB")
    put("pvm.msgs", pvm[0], "count")
    put("pvm.kbytes", pvm[1] / 1024.0, "KB")
    for category in TMK_CATEGORIES:
        messages, nbytes = total("tmk", category)
        put(f"tmk.msgs.{category}", messages, "count")
        put(f"tmk.kbytes.{category}", nbytes / 1024.0, "KB")
    put("sim.engine.events_posted", traced["events_posted"], "count")
    for op in KERNEL_OPS:
        put(f"kernels.calls.{op}", traced["kernel_calls"][op], "count")
    for op, micros in kernel_microbench(workload.kernels).items():
        put(f"kernels.{op}_us", micros, "us")

    groups = [f"fig{i:02d}" for i in range(1, 13)] + ["n32", "n64", "n128"]
    for group in groups:
        units = workload.groups.get(group, ())
        put(f"run_wall_s.{group}",
            sum(untraced["unit_wall_s"][unit] for unit in units), "s")

    meter = untraced["meter"]
    put("gc.gen2_collections", meter.gen2_collections, "events")
    put("gc.pause_s", meter.gc_pause_s, "s")
    put("host.user_s", meter.user_s, "s")
    put("host.sys_s", meter.sys_s, "s")
    put("host.minor_faults", meter.minor_faults, "events")
    put("host.traced_peak_rss_mb", traced["peak_rss_mb"], "MB")
    put("serve.req_p50_ms", untraced["req_p50_ms"], "ms")
    put("serve.req_p99_ms", untraced["req_p99_ms"], "ms")
    batch = untraced["counts"].get("batch", {})
    for name in ("status_200", "status_304", "bytes_out"):
        put(f"serve.{name}", batch.get(name, 0), "count")
    messages = tmk[0] + pvm[0]
    put("host_us_per_msg",
        untraced["wall_s"] / messages * 1e6 if messages else 0.0, "us")
    put("trace_overhead_x", traced["wall_s"] / untraced["wall_s"], "x")
    put("virtual_s", untraced["virtual_s"], "sim_s")
    return out


def address_randomised() -> Optional[bool]:
    """Whether this process runs with ASLR (None where unknowable)."""
    try:
        with open("/proc/self/personality", encoding="ascii") as fh:
            return not int(fh.read(), 16) & 0x0040000
    except (OSError, ValueError):
        return None


def environment(workload: Workload) -> Dict[str, Any]:
    return {
        "aslr": address_randomised(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine": workload.engine,
        "kernels": get_backend(workload.kernels).name,
    }


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
def worker(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up one workload, measure it as ``spec`` says, tear it down.

    ``spec["mode"]``: ``setup`` stops after set-up (a set-up time
    sample); ``measure`` adds the warm-up and the timed cycles and
    returns the end-to-end metrics; ``trace`` adds the warm-up, one
    timed cycle and the traced one and returns the per-layer metrics.
    """
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["quick"])
    workload.setup()
    # Set-up ends where the first cycle begins.  Wall-clock time,
    # because the interval starts in the parent process.
    result: Dict[str, Any] = {"setup_s": time.time() - spec["spawned_at"],
                              "environment": environment(workload)}
    try:
        if spec["mode"] == "setup":
            return result
        tracing = spec["mode"] == "trace"
        untraced = measure(workload, spec["seconds"],
                           1 if tracing or spec["quick"] else None)
        for key in ("attempted", "failed", "digest", "virtual_s", "cycles"):
            result[key] = untraced[key]
        if tracing:
            traced = traced_cycle(workload, spec["trace_path"], {
                "workload": workload.name, "seed": spec["seed"],
                "environment": result["environment"]})
            result["failed"] += traced["failed"]
            result["metrics"] = per_layer_metrics(workload, untraced, traced)
        else:
            result["metrics"] = {
                "wall_s": {"value": untraced["wall_s"], "unit": "s"},
                "ops_per_s": {"value": untraced["ops_per_s"], "unit": "1/s"},
                "peak_rss_mb": {"value": untraced["peak_rss_mb"],
                                "unit": "MB"},
            }
        return result
    finally:
        workload.teardown()


def main(argv: Sequence[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = worker(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
