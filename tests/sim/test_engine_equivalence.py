"""Engine golden pins: equivalence with the recorded thread-backend reference.

Until v2.0 the simulator shipped two engines -- one host thread per
simulated processor, and the generator/effects trampoline -- and this
suite ran every axis below on both and compared them byte for byte.  The
thread backend is gone; what it produced lives on in
``golden_engine.json``, recorded at the last commit that still had it
(with ``engine="threads"``), and the one remaining engine must keep
reproducing it: same event-by-event protocol trace, same virtual times,
same message traffic, same application answers, same replication
ledger, same scheduler choice points, same ``RunResult``
bytes.

The axes: sor / is / water-288 across tmk / pvm / ivy / scabd; loss +
duplication faults (the reliability layer's timers); a masked
quorum-replica crash; the tie-break hook
under ``RecordingScheduler`` and ``RandomWalkScheduler(11)``; and the
versioned cache record of fig01/tmk/4/tiny.

Any intentional behaviour change regenerates the pins with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim/test_engine_equivalence.py
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

import repro.api as api
from repro.api import FaultPlan, ReplicationConfig, RunConfig
from repro.apps import base
from repro.apps.is_sort import IsParams
from repro.apps.sor import SorParams
from repro.apps.water import WaterParams
from repro.sim.trace import Trace
from repro.verify import RandomWalkScheduler, RecordingScheduler

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_engine.json"
NPROCS = 4

#: app name -> params for the matrix (water at the paper's 288 molecules).
APPS = {
    "sor": SorParams.tiny(),
    "is": IsParams.tiny(),
    "water": WaterParams.bench_288(),
}
#: "scabd" = tmk + quorum replication (it has no system string of its own).
SYSTEMS = ("tmk", "pvm", "ivy", "scabd")

EXPECTED_KEYS = (
    {f"matrix/{app}/{system}" for app in APPS for system in SYSTEMS}
    | {"faults/tmk", "faults/pvm", "recovery/masked",
       "scheduler/recording", "scheduler/random_walk_11",
       "run_record/fig01/tmk/4/tiny"})


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _feed(h, obj) -> None:
    """Structural hash: dtype/shape/bytes of ndarrays, order of
    containers, repr of scalars."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def result_hash(result) -> str:
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


def run_one(app, system, params, nprocs=NPROCS, **kw):
    """One traced run; returns (ParallelResult, Trace)."""
    trace = Trace(enabled=True)
    if system == "scabd":
        kw.setdefault("replication", ReplicationConfig(3))
        system = "tmk"
    result = base.run_parallel(app, system, nprocs, params, trace=trace, **kw)
    return result, trace


def run_fingerprint(result, trace, stats_system) -> dict:
    """Everything the equivalence suite used to compare, as JSON."""
    return {
        "trace_sha256": _sha("\n".join(str(e) for e in trace.events)),
        "trace_events": len(trace.events),
        "dropped_events": trace.dropped_events,
        "time": result.time,
        "messages": result.total_messages(),
        "kbytes": result.total_kbytes(),
        "by_category": {
            category: [counter.messages, counter.bytes]
            for category, counter
            in result.stats.by_category(stats_system).items()},
        "result_sha256": result_hash(result.result),
        "replication": (None if result.replication is None
                        else dict(vars(result.replication))),
    }


def fingerprint(app, system, params, **kw) -> dict:
    result, trace = run_one(app, system, params, **kw)
    stats_system = "tmk" if system == "scabd" else system
    return run_fingerprint(result, trace, stats_system)


def diff_lines(key: str, want: dict, got: dict) -> list:
    """Readable per-field differences for one pinned axis."""
    lines = []
    for field in sorted(set(want) | set(got)):
        w, g = want.get(field), got.get(field)
        if w == g:
            continue
        if isinstance(w, dict) and isinstance(g, dict):
            for sub in sorted(set(w) | set(g)):
                if w.get(sub) != g.get(sub):
                    lines.append(f"{key}: {field}[{sub}] "
                                 f"{w.get(sub)} -> {g.get(sub)}")
        else:
            lines.append(f"{key}: {field} {w} -> {g}")
    return lines


def check_golden(key: str, actual: dict) -> None:
    # Through JSON so tuples/lists and int/float compare as stored.
    actual = json.loads(json.dumps(actual))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden = (json.loads(GOLDEN_PATH.read_text())
                  if GOLDEN_PATH.exists() else {})
        golden[key] = actual
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                               + "\n")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file missing: {GOLDEN_PATH}\n"
                    "regenerate with REPRO_UPDATE_GOLDEN=1")
    golden = json.loads(GOLDEN_PATH.read_text())
    if key not in golden:
        pytest.fail(f"{key}: not in golden file (new axis?)")
    lines = diff_lines(key, golden[key], actual)
    if lines:
        pytest.fail("engine diverged from the pinned thread-backend "
                    "reference (REPRO_UPDATE_GOLDEN=1 regenerates if "
                    "intentional):\n  " + "\n  ".join(lines))


class TestAppMatrix:
    """sor / is / water-288 across tmk / pvm / ivy / scabd."""

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_backends_byte_identical(self, app, system):
        check_golden(f"matrix/{app}/{system}",
                     fingerprint(app, system, APPS[app]))


class TestFaults:
    """Byte identity must survive the reliability layer's timers."""

    PLAN = FaultPlan(seed=7, loss=0.05, duplicate=0.05)

    @pytest.mark.parametrize("system", ("tmk", "pvm"))
    def test_lossy_run_byte_identical(self, system):
        check_golden(f"faults/{system}",
                     fingerprint("sor", system, SorParams.tiny(),
                                 faults=self.PLAN))


class TestRecovery:
    def test_masked_replica_crash_byte_identical(self):
        """Killing a quorum replica (pid >= nclients) is absorbed --
        exactly as recorded."""
        actual = fingerprint(
            "sor", "scabd", SorParams.tiny(),
            faults=FaultPlan(crash_at=((NPROCS, 0.02),)))
        assert actual["replication"]["masked_nodes"] == [NPROCS]
        check_golden("recovery/masked", actual)


class TestSchedulerHook:
    """The tie-break hook sees the recorded choice points."""

    def test_choice_points_identical(self):
        sched = RecordingScheduler()
        result, _ = run_one("sor", "tmk", SorParams.tiny(), scheduler=sched)
        check_golden("scheduler/recording", {
            "choice_points": len(sched.counts),
            "counts_sha256": _sha(repr(sched.counts)),
            "trace_sha256": _sha(repr(sched.trace)),
            "time": result.time,
        })

    def test_random_walk_identical(self):
        """A non-default schedule perturbs the run exactly as recorded."""
        walk = RandomWalkScheduler(11)
        result, trace = run_one("is", "tmk", IsParams.tiny(), scheduler=walk)
        check_golden("scheduler/random_walk_11", {
            "choice_points": len(walk.trace),
            "walk_sha256": _sha(repr(walk.trace)),
            "trace_sha256": _sha("\n".join(str(e) for e in trace.events)),
            "time": result.time,
        })


class TestRunRecord:
    """The versioned cache record never depended on the engine."""

    CONFIG = RunConfig("fig01", "tmk", NPROCS, "tiny")

    def test_run_result_bytes_identical(self):
        record = api.run(self.CONFIG, use_cache=False)
        check_golden("run_record/fig01/tmk/4/tiny", {
            "sha256": hashlib.sha256(record.to_json_bytes()).hexdigest(),
            "record": record.to_json(),
        })

    def test_cache_key_ignores_engine(self):
        """Configs serialized before v2.0 carry an ``engine`` entry; it
        is ignored, so whichever backend they named they resolve to the
        same config and the same cache key."""
        plain = self.CONFIG.to_json()
        for old in ("threads", "coro"):
            config = RunConfig.from_json({**plain, "engine": old})
            assert config == self.CONFIG
            assert api.cache_key(config) == api.cache_key(self.CONFIG)

    def test_engine_round_trips_and_validates(self):
        """``engine`` is no longer a setting: a read-only constant that
        is not serialized, cannot be passed, and that ``run_parallel``
        accepts only as ``"coro"``."""
        config = RunConfig("fig01")
        assert config.engine == "coro"
        assert "engine" not in config.to_json()
        assert RunConfig.from_json(config.to_json()) == config
        with pytest.raises(TypeError):
            RunConfig("fig01", engine="coro")
        with pytest.raises(ValueError):
            base.run_parallel("sor", "tmk", 2, SorParams.tiny(),
                              engine="threads")


def test_golden_covers_all_axes():
    assert set(json.loads(GOLDEN_PATH.read_text())) == EXPECTED_KEYS
