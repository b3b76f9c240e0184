"""Unit tests for the deterministic virtual-time engine."""

import pytest

from repro.sim.engine import YIELD, Block, Engine, EngineDeadlock


def run_threads(*fns, clocks=None):
    """Spawn one thread per function, run, return the SimTasks."""
    engine = Engine()
    threads = []
    for i, fn in enumerate(fns):
        clock = clocks[i] if clocks else 0.0
        threads.append(engine.spawn(f"t{i}", fn, clock=clock))
    engine.run()
    return engine, threads


def blocker(reason):
    """A simulated thread body that parks on one Block effect."""
    yield Block(reason)


class TestBasics:
    def test_single_thread_runs_to_completion(self):
        engine = Engine()
        th = engine.spawn("a", lambda: 42)
        engine.run()
        assert th.result == 42
        assert th.state == "done"

    def test_advance_moves_clock(self):
        engine = Engine()

        def body():
            cur = engine._threads[0]
            cur.advance(1.5)
            cur.advance(0.25)

        th = engine.spawn("a", body)
        engine.run()
        assert th.clock == pytest.approx(1.75)

    def test_negative_advance_rejected(self):
        engine = Engine()

        def body():
            engine._threads[0].advance(-1.0)

        engine.spawn("a", body)
        with pytest.raises(ValueError):
            engine.run()

    def test_results_per_thread(self):
        _, threads = run_threads(lambda: "x", lambda: "y", lambda: "z")
        assert [t.result for t in threads] == ["x", "y", "z"]

    def test_initial_clock_honoured(self):
        engine = Engine()
        th = engine.spawn("a", lambda: None, clock=7.0)
        engine.run()
        assert th.clock == 7.0


class TestScheduling:
    def test_smallest_clock_runs_first(self):
        order = []
        engine = Engine()

        def make(name):
            def body():
                order.append(name)
                yield YIELD
                order.append(name)
            return body

        engine.spawn("slow", make("slow"), clock=10.0)
        engine.spawn("fast", make("fast"), clock=1.0)
        engine.run()
        # fast (clock 1) runs before slow (clock 10), both times.
        assert order == ["fast", "fast", "slow", "slow"]

    def test_tie_broken_by_spawn_order(self):
        order = []
        engine = Engine()

        def make(name):
            def body():
                order.append(name)
            return body

        engine.spawn("first", make("first"))
        engine.spawn("second", make("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_events_run_before_equal_clock_threads(self):
        order = []
        engine = Engine()

        def body():
            th = engine._threads[0]
            th.advance(5.0)
            yield YIELD
            order.append("thread")

        engine.spawn("a", body)
        engine.post(5.0, lambda: order.append("event"))
        engine.run()
        assert order == ["event", "thread"]

    def test_event_chain(self):
        seen = []
        engine = Engine()
        engine.spawn("a", lambda: None)
        engine.post(1.0, lambda: (seen.append(1),
                                  engine.post(2.0, lambda: seen.append(2))))
        engine.run()
        assert seen == [1, 2]

    def test_events_in_time_order_regardless_of_post_order(self):
        seen = []
        engine = Engine()
        engine.spawn("a", lambda: None)
        engine.post(5.0, lambda: seen.append("late"))
        engine.post(1.0, lambda: seen.append("early"))
        engine.run()
        assert seen == ["early", "late"]

    def test_equal_time_events_in_post_order(self):
        seen = []
        engine = Engine()
        engine.spawn("a", lambda: None)
        for i in range(5):
            engine.post(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]


class TestBlocking:
    def test_block_until_event_unblocks(self):
        engine = Engine()
        log = []

        def body():
            log.append("blocking")
            wake = yield Block("wait for event")
            log.append(f"woke at {wake}")

        th = engine.spawn("a", body)
        engine.post(3.0, lambda: engine.unblock(th, 3.0))
        engine.run()
        assert log == ["blocking", "woke at 3.0"]
        assert th.clock == 3.0

    def test_wake_does_not_move_clock_backwards(self):
        engine = Engine()

        def body():
            th = engine._threads[0]
            th.advance(10.0)
            yield Block("wait")

        th = engine.spawn("a", body)
        engine.post(1.0, lambda: engine.unblock(th, 1.0))
        engine.run()
        assert th.clock == 10.0

    def test_deadlock_detected(self):
        engine = Engine()
        engine.spawn("a", lambda: blocker("forever"))
        with pytest.raises(EngineDeadlock, match="forever"):
            engine.run()

    def test_deadlock_message_names_all_blocked(self):
        engine = Engine()
        engine.spawn("a", lambda: blocker("reason-a"))
        engine.spawn("b", lambda: blocker("reason-b"))
        with pytest.raises(EngineDeadlock) as exc:
            engine.run()
        assert "reason-a" in str(exc.value)
        assert "reason-b" in str(exc.value)

    def test_unblock_of_running_thread_rejected(self):
        engine = Engine()

        def body():
            engine.unblock(engine._threads[0], 1.0)

        engine.spawn("a", body)
        with pytest.raises(RuntimeError, match="non-blocked"):
            engine.run()


class TestFailures:
    def test_thread_exception_propagates(self):
        engine = Engine()
        engine.spawn("a", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            engine.run()

    def test_other_threads_unwound_after_failure(self):
        engine = Engine()
        blocked = engine.spawn("b", lambda: blocker("x"))

        def boom():
            raise RuntimeError("boom")

        engine.spawn("a", boom)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()
        # The blocked thread was unwound, not left parked.
        assert blocked.done

    def test_cannot_run_twice_concurrently(self):
        engine = Engine()
        engine.spawn("a", lambda: None)
        engine.run()
        # Second run: all threads already done; loop exits immediately.
        engine.run()

    def test_spawn_while_running_rejected(self):
        engine = Engine()

        def body():
            engine.spawn("late", lambda: None)

        engine.spawn("a", body)
        with pytest.raises(RuntimeError, match="spawn"):
            engine.run()

    def test_negative_event_time_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.post(-1.0, lambda: None)


class TestDaemons:
    def test_daemon_retired_after_app_threads_finish(self):
        engine = Engine()

        def daemon():
            while True:
                yield Block("idle service loop")

        engine.spawn("svc", daemon, daemon=True)
        app = engine.spawn("app", lambda: engine._threads[1].advance(1.0))
        engine.run()  # terminates: the daemon does not hold the run open
        assert app.result is None and app.clock == 1.0
        assert engine._threads[0].done and not engine._threads[0].killed

    def test_daemon_blocking_after_stop_unwinds(self):
        # Regression: if the application finishes before the daemon is
        # ever scheduled, the retire sweep marks it stopped while it is
        # still READY.  Its later block() must unwind immediately -- there
        # is nobody left to unblock it -- instead of deadlocking the run.
        engine = Engine()

        def daemon():
            while True:
                yield Block("parked after stop")

        engine.spawn("app", lambda: None)  # finishes without yielding
        engine.spawn("svc", daemon, daemon=True)
        engine.run()
        assert all(t.done for t in engine._threads)

    def test_finished_ignores_daemons(self):
        engine = Engine()
        states = []

        def daemon():
            while True:
                yield Block("idle")

        def app():
            engine._threads[1].advance(0.5)
            states.append(engine.finished)

        engine.spawn("svc", daemon, daemon=True)
        engine.spawn("app", app)
        engine.run()
        assert states == [False]  # app still running then
        assert engine.finished    # daemon alone does not block completion


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def one_run():
            trace = []
            engine = Engine()

            def make(i):
                def body():
                    th = engine._threads[i]
                    for step in range(5):
                        th.advance(0.1 * ((i + step) % 3 + 1))
                        trace.append((i, round(th.clock, 6)))
                        yield YIELD
                return body

            for i in range(4):
                engine.spawn(f"t{i}", make(i))
            engine.run()
            return trace

        assert one_run() == one_run()


class TestSchedulerHook:
    def test_default_and_none_scheduler_agree(self):
        from repro.sim.engine import Scheduler

        def one_run(scheduler):
            order = []
            engine = Engine(scheduler=scheduler)

            def make(i):
                def body():
                    th = engine._threads[i]
                    for _ in range(3):
                        order.append(i)
                        th.advance(0.5)
                        yield YIELD
                return body

            for i in range(3):
                engine.spawn(f"t{i}", make(i))
            engine.run()
            return order

        assert one_run(None) == one_run(Scheduler())

    def test_reverse_tiebreak_changes_order(self):
        class Reverse:
            def pick(self, ready):
                return ready[-1]

        order = []
        engine = Engine(scheduler=Reverse())

        def make(i):
            def body():
                order.append(i)
            return body

        for i in range(3):
            engine.spawn(f"t{i}", make(i))
        engine.run()
        # All three tie at clock 0; the reverse policy runs them backwards.
        assert order == [2, 1, 0]

    def test_scheduler_only_consulted_on_ties(self):
        picks = []

        class Spy:
            def pick(self, ready):
                picks.append([t.tid for t in ready])
                return ready[0]

        engine = Engine(scheduler=Spy())
        engine.spawn("a", lambda: None, clock=1.0)
        engine.spawn("b", lambda: None, clock=2.0)
        engine.run()
        # Distinct clocks: never more than one candidate, never consulted.
        assert picks == []


class TestDeadlockDiagnostics:
    def test_deadlock_dump_includes_reason_and_dependency(self):
        engine = Engine()

        def body():
            yield Block("waiting for grant", waiting_on="P1 (manager)")

        engine.spawn("stuck", body)
        with pytest.raises(EngineDeadlock) as err:
            engine.run()
        message = str(err.value)
        assert "reason=waiting for grant" in message
        assert "waiting_on=P1 (manager)" in message

    def test_wake_clears_dependency(self):
        engine = Engine()

        def blocker():
            yield Block("brief wait", waiting_on="the poker")

        def poker():
            th = engine._threads[1]
            th.advance(1.0)
            engine.unblock(engine._threads[0], th.clock)

        engine.spawn("blocker", blocker)
        engine.spawn("poker", poker)
        engine.run()
        th = engine._threads[0]
        assert th.block_reason is None and th.waiting_on is None


class TestWatchdog:
    def test_watchdog_trips_on_event_livelock(self):
        # One thread blocks forever while an event keeps reposting itself:
        # no deadlock in the strict sense, but the run makes no progress.
        engine = Engine(watchdog_events=5)

        def repost():
            engine.post(engine.horizon + 1.0, repost)

        def body():
            yield Block("starved", waiting_on="nobody")

        engine.spawn("starved", body)
        engine.post(0.0, repost)
        with pytest.raises(EngineDeadlock) as err:
            engine.run()
        message = str(err.value)
        assert "watchdog" in message
        assert "reason=starved" in message
        assert "waiting_on=nobody" in message

    def test_watchdog_not_tripped_by_ready_threads(self):
        # Events interleaved with runnable threads reset the counter.
        engine = Engine(watchdog_events=3)
        fired = []

        def body():
            th = engine._threads[0]
            for i in range(10):
                engine.post(th.clock, lambda i=i: fired.append(i))
                th.advance(0.1)
                yield YIELD

        engine.spawn("busy", body)
        engine.run()
        assert len(fired) == 10


class TestAbortUnwind:
    def test_abort_unwinds_all_live_threads(self):
        engine = Engine()
        unwound = []

        def failer():
            engine._threads[0].advance(0.5)
            yield YIELD  # let the bystander run and park first
            raise RuntimeError("boom")

        def bystander():
            try:
                yield Block("waiting forever")
            finally:
                unwound.append("bystander")

        engine.spawn("failer", failer)
        engine.spawn("bystander", bystander)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()
        # Every simulated thread (including the blocked bystander) is
        # unwound through its ``finally`` blocks.
        for th in engine._threads:
            assert th.state == "done"
        assert unwound == ["bystander"]

    def test_run_reentry_from_inside_rejected(self):
        engine = Engine()
        caught = []

        def body():
            try:
                engine.run()
            except RuntimeError as exc:
                caught.append(str(exc))

        engine.spawn("meta", body)
        engine.run()
        assert caught == ["engine is already running"]

    def test_sequential_reruns_allowed_after_abort(self):
        engine = Engine()
        engine.spawn("failer", lambda: (_ for _ in ()).throw(ValueError("x")))
        with pytest.raises(ValueError):
            engine.run()
        # The engine is not left in the running state after an abort.
        engine2 = Engine()
        th = engine2.spawn("ok", lambda: 7)
        engine2.run()
        assert th.result == 7
