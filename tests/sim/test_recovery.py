"""Crash-recovery tests: detection, checkpointing, rollback.

Covers the failure detector (crash before / inside / after a barrier,
crash while holding each statically-managed lock), the rollback path
(recovered runs bit-identical to fault-free ones on both systems), the
double-crash abort, and the zero-overhead guarantee when nothing is
scheduled.
"""

import numpy as np
import pytest

from repro.apps import base
from repro.apps.sor import SorParams
from repro.apps.tsp import TspParams
from repro.apps.water import WaterParams
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.engine import YIELD, Block, Engine, ThreadKilled
from repro.sim.faults import FaultPlan
from repro.sim.recovery import (Checkpoint, NodeFailure, RecoveryConfig,
                                RecoveryReport, plan_recovery)
from repro.sim.trace import Trace
from repro.tmk.api import attach_tmk
from repro.pvm.api import attach_pvm


def crash_plan(*crashes):
    return FaultPlan(crash_at=tuple(crashes))


def tmk_cluster(nprocs, faults=None, recovery=None):
    cluster = Cluster(nprocs, config=ClusterConfig(
        trace=Trace(), faults=faults, recovery=recovery))
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
        lease = cluster.recovery.config.lease_timeout
        hb = cluster.recovery.config.heartbeat_interval
        assert lease <= failure.detect_time - failure.crash_time <= lease + 2 * hb

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
        cluster = tmk_cluster(2, recovery=RecoveryConfig())
        outcome = cluster.run(self._barrier_app)
        assert outcome.results == [0, 1]
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

    def test_survivor_lock_state_reclaimed_on_declare(self):
        def app(proc):
            tmk = proc.tmk
            if proc.pid == 1:
                yield from tmk.lock_acquire(0)
                proc.compute(1.0)
                yield from tmk.lock_release(0)
            else:
                proc.compute(1.0)

        cluster = tmk_cluster(2, faults=crash_plan((1, 0.1)))
        with pytest.raises(NodeFailure):
            cluster.run(app)
        manager = cluster.procs[0].tmk.locks
        assert manager._last_requester[0] == 0  # chain no longer ends at P1
        assert manager._lock_state(0).owns


# ----------------------------------------------------------------------
# Rollback recovery end to end
# ----------------------------------------------------------------------
class TestRollbackRecovery:
    def test_sor_tmk_crash_positions(self):
        params = SorParams.bench()
        clean = base.run_parallel("sor", "tmk", 4, params)
        # Early (before the first barrier episode), mid-run, and late.
        for t_crash in (1e-3, 0.05, 2.0):
            run = base.run_parallel("sor", "tmk", 4, params,
                                    faults=crash_plan((1, t_crash)))
            assert run.recovery is not None
            assert run.recovery.recoveries == 1
            assert run.recovery.failed_nodes == [1]
            assert np.array_equal(run.result, clean.result)
            assert run.time > clean.time  # overhead was charged
            assert run.time == pytest.approx(
                clean.time + run.recovery.overhead_time, rel=0.2)

    def test_checkpoint_bounds_lost_work(self):
        params = SorParams.bench()
        bare = base.run_parallel("sor", "tmk", 4, params,
                                 faults=crash_plan((1, 2.0)))
        ckpt = base.run_parallel("sor", "tmk", 4, params,
                                 faults=crash_plan((1, 2.0)),
                                 recovery=RecoveryConfig(
                                     checkpoint_interval=0.2))
        # Without checkpoints, all 2.0s of pre-crash work is lost;
        # with them, only the tail since the last barrier checkpoint.
        assert bare.recovery.lost_work == pytest.approx(2.0)
        assert ckpt.recovery.lost_work < bare.recovery.lost_work
        assert ckpt.recovery.restored_bytes > 0
        assert ckpt.recovery.restore_time > 0
        assert ckpt.stats.recovery()["checkpoint"].messages > 0

    def test_pvm_coordinated_checkpoints(self):
        params = SorParams.bench()
        run = base.run_parallel("sor", "pvm", 4, params,
                                faults=crash_plan((2, 1.0)),
                                recovery=RecoveryConfig(
                                    checkpoint_interval=0.25))
        assert run.recovery.recoveries == 1
        assert run.recovery.lost_work < 1.0
        buckets = run.stats.recovery()
        assert buckets["marker"].messages > 0
        assert buckets["checkpoint"].bytes > 0

    def test_double_crash_within_interval_aborts_cleanly(self):
        params = SorParams.bench()
        with pytest.raises(NodeFailure):
            base.run_parallel("sor", "tmk", 4, params,
                              faults=crash_plan((1, 0.05), (2, 0.06)))

    def test_two_crashes_in_separate_intervals_recover(self):
        params = SorParams.bench()
        clean = base.run_parallel("sor", "tmk", 4, params)
        run = base.run_parallel("sor", "tmk", 4, params,
                                faults=crash_plan((1, 1.0), (2, 4.0)),
                                recovery=RecoveryConfig(
                                    checkpoint_interval=0.2))
        assert run.recovery.recoveries == 2
        assert sorted(run.recovery.failed_nodes) == [1, 2]
        assert np.array_equal(run.result, clean.result)

    def test_max_recoveries_cap(self):
        params = SorParams.bench()
        with pytest.raises(NodeFailure):
            base.run_parallel("sor", "tmk", 4, params,
                              faults=crash_plan((1, 1.0), (2, 4.0)),
                              recovery=RecoveryConfig(
                                  checkpoint_interval=0.2,
                                  max_recoveries=1))


def _same(a, b):
    """Structural bit-equality across ndarrays and nested containers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


# ----------------------------------------------------------------------
# Property check: recovered == fault-free on both systems
# ----------------------------------------------------------------------
class TestRecoveredResultsIdentical:
    CASES = [("sor", SorParams.bench()),
             ("tsp", TspParams.bench()),
             ("water", WaterParams.bench_288())]

    @pytest.mark.parametrize("system", ["tmk", "pvm"])
    @pytest.mark.parametrize("app,params", CASES,
                             ids=[c[0] for c in CASES])
    def test_identical_results_and_figure_data(self, app, params, system):
        config = RecoveryConfig(checkpoint_interval=0.5)
        clean = base.run_parallel(app, system, 4, params)
        baseline = base.run_parallel(app, system, 4, params, recovery=config)
        run = base.run_parallel(app, system, 4, params,
                                faults=crash_plan((1, 0.02)),
                                recovery=config)
        assert run.recovery.recoveries == 1
        assert _same(run.result, clean.result)
        assert _same(run.result, baseline.result)
        # Figure data (speedup input) differs from the checkpointing
        # baseline only by the charged recovery overhead -- the
        # underlying re-execution is identical.
        assert run.time == pytest.approx(
            baseline.time + run.recovery.overhead_time)


# ----------------------------------------------------------------------
# Zero-overhead guarantees
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_detection_only_config_is_byte_identical(self):
        params = SorParams.bench()
        plain = base.run_parallel("sor", "tmk", 4, params)
        detect = base.run_parallel("sor", "tmk", 4, params,
                                   recovery=RecoveryConfig())
        assert detect.time == plain.time
        assert detect.stats.total("tmk").messages == \
            plain.stats.total("tmk").messages
        assert detect.stats.total("tmk").bytes == plain.stats.total("tmk").bytes
        assert detect.stats.recovery() == {}

    def test_checkpointing_stays_out_of_wire_totals(self):
        params = SorParams.bench()
        plain = base.run_parallel("sor", "tmk", 4, params)
        ckpt = base.run_parallel("sor", "tmk", 4, params,
                                 recovery=RecoveryConfig(
                                     checkpoint_interval=0.2))
        # Checkpoint writes cost virtual time but send no tmk messages.
        assert ckpt.stats.total("tmk").messages == \
            plain.stats.total("tmk").messages
        assert ckpt.stats.total("tmk").bytes == plain.stats.total("tmk").bytes
        assert ckpt.stats.recovery()["checkpoint"].messages > 0
        assert ckpt.time > plain.time
        assert np.array_equal(ckpt.result, plain.result)


# ----------------------------------------------------------------------
# plan_recovery unit behavior
# ----------------------------------------------------------------------
class TestPlanRecovery:
    def _failure(self, node=1, crash=1.0, detect=1.06, checkpoint=None):
        return NodeFailure(failed=node, crash_time=crash, detect_time=detect,
                           checkpoint=checkpoint)

    def test_ledger_arithmetic(self):
        config = RecoveryConfig(restore_bandwidth=1e6)
        report = RecoveryReport()
        ckpt = Checkpoint(epoch=3, time=0.75, nbytes=500_000, writers=4)
        plan = crash_plan((1, 1.0))
        new_plan = plan_recovery(self._failure(checkpoint=ckpt), plan,
                                 config, report)
        assert new_plan.crash_at == ()
        assert report.recoveries == 1
        assert report.detection_latency == pytest.approx(0.06)
        assert report.lost_work == pytest.approx(0.25)
        assert report.restore_time == pytest.approx(0.5)
        assert report.restored_bytes == 500_000
        assert report.overhead_time == pytest.approx(0.06 + 0.25 + 0.5)
        assert report.last_restored_time == 0.75

    def test_no_checkpoint_restarts_from_zero(self):
        report = RecoveryReport()
        plan_recovery(self._failure(), crash_plan((1, 1.0)),
                      RecoveryConfig(), report)
        assert report.lost_work == pytest.approx(1.0)
        assert report.restore_time == 0.0
        assert report.last_restored_time == 0.0

    def test_second_failure_without_progress_is_unrecoverable(self):
        report = RecoveryReport()
        config = RecoveryConfig()
        plan_recovery(self._failure(node=1), crash_plan((1, 1.0), (2, 1.0)),
                      config, report)
        with pytest.raises(NodeFailure):
            plan_recovery(self._failure(node=2), crash_plan((2, 1.0)),
                          config, report)

    def test_retry_budget(self):
        report = RecoveryReport()
        config = RecoveryConfig(max_recoveries=0)
        with pytest.raises(NodeFailure):
            plan_recovery(self._failure(), crash_plan((1, 1.0)),
                          config, report)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(checkpoint_interval=-1.0)
        with pytest.raises(ValueError):
            RecoveryConfig(lease_timeout=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(checkpoint_bandwidth=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_recoveries=-1)


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
