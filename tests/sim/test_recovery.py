"""Crash-detection tests: the engine's kill path and the failure detector.

Covers the engine-level kill semantics, the lease-based failure detector
(crash before / inside / after a barrier, crash while holding each
statically-managed lock, a PVM receive from a dead node), the
zero-overhead guarantee when no crash is scheduled, and the classified
failure an unmasked crash ends ``api.run`` with on every runtime.
"""

import pytest

from repro import api
from repro.bench.cache import ResultCache
from repro.scabd import ReplicationConfig
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.engine import YIELD, Block, Engine, ThreadKilled
from repro.sim.faults import FaultPlan, TransportError
from repro.sim.recovery import (HEARTBEAT_INTERVAL, LEASE_TIMEOUT,
                                NodeFailure)
from repro.sim.trace import Trace
from repro.tmk.api import attach_tmk
from repro.pvm.api import attach_pvm


def crash_plan(*crashes):
    return FaultPlan(crash_at=tuple(crashes))


def tmk_cluster(nprocs, faults=None):
    cluster = Cluster(nprocs, config=ClusterConfig(
        trace=Trace(), faults=faults))
    attach_tmk(cluster)
    return cluster


# ----------------------------------------------------------------------
# Engine-level kill semantics
# ----------------------------------------------------------------------
class TestEngineKill:
    def test_kill_unwinds_at_next_yield(self):
        engine = Engine()
        steps = []

        def victim():
            th = engine._threads[0]
            for i in range(10):
                th.advance(1.0)
                steps.append(i)
                yield YIELD

        th = engine.spawn("victim", victim)
        engine.post(2.5, lambda: engine.kill(th, 2.5))
        engine.run()
        assert th.done and th.killed
        assert len(steps) < 10  # never finished its loop

    def test_kill_wakes_blocked_thread(self):
        engine = Engine()

        def sleeper():
            yield Block("forever")
            raise AssertionError("unreachable")  # pragma: no cover

        th = engine.spawn("sleeper", sleeper)
        engine.post(1.0, lambda: engine.kill(th, 1.0))
        engine.run()
        assert th.done and th.killed
        assert th.exception is None  # ThreadKilled is swallowed, not an error

    def test_kill_after_completion_is_noop(self):
        engine = Engine()
        th = engine.spawn("quick", lambda: 42)
        engine.post(5.0, lambda: engine.kill(th, 5.0) and None)
        engine.run()
        assert th.result == 42
        assert not th.killed

    def test_threadkilled_unwinds_through_except_exception(self):
        # Application-level ``except Exception`` must not swallow a crash.
        engine = Engine()

        def stubborn():
            th = engine._threads[0]
            try:
                while True:
                    th.advance(1.0)
                    yield YIELD
            except Exception:  # noqa: BLE001
                raise AssertionError("caught the kill")  # pragma: no cover

        th = engine.spawn("stubborn", stubborn)
        engine.post(3.0, lambda: engine.kill(th, 3.0))
        engine.run()
        assert th.done and th.exception is None

    def test_threadkilled_is_simaborted(self):
        from repro.sim.engine import SimAborted
        assert issubclass(ThreadKilled, SimAborted)


# ----------------------------------------------------------------------
# Failure detector
# ----------------------------------------------------------------------
class TestFailureDetector:
    def _barrier_app(self, proc):
        tmk = proc.tmk
        for it in range(40):
            proc.compute(5e-3)
            yield from tmk.barrier(it)
        return proc.pid

    def test_crash_before_barrier_detected(self):
        cluster = tmk_cluster(3, faults=crash_plan((1, 2e-3)))
        with pytest.raises(NodeFailure) as info:
            cluster.run(self._barrier_app)
        failure = info.value
        assert failure.failed == 1
        assert failure.crash_time == pytest.approx(2e-3)
        latency = failure.detect_time - failure.crash_time
        assert 0 <= latency - LEASE_TIMEOUT <= 2 * HEARTBEAT_INTERVAL

    def test_crash_inside_barrier_detected(self):
        # P1 computes less, so it is blocked inside the episode when killed.
        def app(proc):
            proc.compute(1e-3 if proc.pid == 1 else 20e-3)
            yield from proc.tmk.barrier(0)

        cluster = tmk_cluster(3, faults=crash_plan((1, 10e-3)))
        with pytest.raises(NodeFailure) as info:
            cluster.run(app)
        assert info.value.failed == 1

    def test_crash_after_all_barriers_detected(self):
        # Dies after its last barrier but before finishing its tail work.
        def app(proc):
            yield from proc.tmk.barrier(0)
            proc.compute(1.0)
            yield from proc.tmk.barrier(1)

        cluster = tmk_cluster(3, faults=crash_plan((2, 0.5)))
        with pytest.raises(NodeFailure) as info:
            cluster.run(app)
        assert info.value.failed == 2

    def test_crash_after_completion_is_harmless(self):
        cluster = tmk_cluster(3, faults=crash_plan((1, 1e9)))
        outcome = cluster.run(self._barrier_app)
        assert outcome.results == [0, 1, 2]

    def test_detection_beats_the_watchdog(self):
        # Without the detector the blocked barrier would only surface via
        # the engine watchdog (EngineDeadlock) after ~a million events.
        cluster = tmk_cluster(2, faults=crash_plan((1, 1e-3)))
        with pytest.raises(NodeFailure):
            cluster.run(self._barrier_app)

    def test_heartbeats_accounted_under_recovery(self):
        cluster = tmk_cluster(2, faults=crash_plan((1, 1e-3)))
        with pytest.raises(NodeFailure):
            cluster.run(self._barrier_app)
        hb = cluster.stats.recovery().get("heartbeat")
        assert hb is not None and hb.messages > 0
        # The pseudo-system never leaks into the paper's wire totals.
        assert cluster.stats.total("recovery").messages == hb.messages

    def test_monitor_only_installed_with_crashes(self):
        cluster = tmk_cluster(2, faults=FaultPlan(loss=0.0))
        outcome = cluster.run(self._barrier_app)
        assert outcome.results == [0, 1]
        assert cluster.recovery is None
        assert cluster.stats.recovery() == {}


# ----------------------------------------------------------------------
# Crash while holding a lock (orphaned-lock path)
# ----------------------------------------------------------------------
class TestCrashHoldingLock:
    @pytest.mark.parametrize("lock", [0, 1])
    def test_crash_holding_each_managed_lock(self, lock):
        """P1 dies inside its critical section on a lock managed by P0
        (lock 0) and by itself (lock 1); either way the survivor gets a
        NodeFailure, not a hang."""

        def app(proc, lock=lock):
            tmk = proc.tmk
            if proc.pid == 1:
                yield from tmk.lock_acquire(lock)
                proc.compute(1.0)  # killed in here at t=0.1
                yield from tmk.lock_release(lock)
            else:
                proc.compute(0.3)
                yield from tmk.lock_acquire(lock)  # forwarded to the dead holder
                yield from tmk.lock_release(lock)

        cluster = tmk_cluster(2, faults=crash_plan((1, 0.1)))
        with pytest.raises(NodeFailure) as info:
            cluster.run(app)
        assert info.value.failed == 1

# ----------------------------------------------------------------------
# PVM-side detection (no barriers involved)
# ----------------------------------------------------------------------
class TestPvmDetection:
    def test_blocked_recv_from_dead_node_surfaces(self):
        def app(proc):
            pvm = proc.pvm
            if proc.pid == 0:
                yield from pvm.recv(src=1, tag=7)  # P1 dies before sending
            else:
                proc.compute(1.0)
                buf = pvm.initsend()
                buf.pkint([1])
                yield from pvm.send(0, 7, buf)

        cluster = Cluster(2, config=ClusterConfig(
            faults=crash_plan((1, 0.1))))
        attach_pvm(cluster)
        with pytest.raises(NodeFailure) as info:
            cluster.run(app)
        assert info.value.failed == 1


# ----------------------------------------------------------------------
# Through the facade: an unmasked crash is a classified failure
# ----------------------------------------------------------------------
#: (system, nprocs, crashes, replication, what the run raises).  PVM's
#: TCP gives up on the dead peer before the lease expires.
UNMASKED = [(system, nprocs, ((1, 0.01),), None, raised)
            for system, raised in (("tmk", NodeFailure),
                                   ("ivy", NodeFailure),
                                   ("pvm", TransportError))
            for nprocs in (2, 3, 4)]
UNMASKED.append(("tmk", 2, ((2, 0.01), (3, 0.02)), ReplicationConfig(3),
                 NodeFailure))


@pytest.mark.parametrize(
    "system, nprocs, crashes, replication, raised", UNMASKED,
    ids=[f"{case[0]}-{case[1]}" + ("-replica-majority" if case[3] else "")
         for case in UNMASKED])
def test_unmasked_crash_is_a_classified_failure(
        system, nprocs, crashes, replication, raised, tmp_path,
        monkeypatch):
    """An application-rank crash on every runtime, and a replica-majority
    crash under masking, end the run with one of ``api.RUN_FAILURES``
    within a lease plus a heartbeat of the last crash (not at the
    watchdog), and leave nothing in the cache."""
    engines = []
    init = Engine.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", spy)
    cache = ResultCache(tmp_path)
    config = api.RunConfig("fig02", system, nprocs, "tiny",
                           faults=FaultPlan(crash_at=crashes),
                           replication=replication)
    with pytest.raises(api.RUN_FAILURES) as info:
        api.run(config, cache=cache)
    assert type(info.value) is raised
    engine, = engines
    last_crash = max(t for _, t in crashes)
    assert engine.horizon <= last_crash + LEASE_TIMEOUT + HEARTBEAT_INTERVAL
    assert cache.stores == 0
    assert not any(tmp_path.iterdir())
