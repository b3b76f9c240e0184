"""Property-based invariants of the ready-queue / trampoline core.

The engine keeps READY tasks in an explicit heap whose entries can go
stale (a READY task's clock may be bumped by service charges before it
is dispatched).  These properties pin what the heap must preserve under
arbitrary programs of advances, yields, blocks, wakes, and kills:

* every continuation runs exactly once per wakeup -- none lost, none
  double-run;
* dispatch order is by (virtual clock, tid), so the clock observed at
  quantum starts is globally non-decreasing;
* every block is answered by exactly one wake or kill, and a killed
  task unwinds while parked;
* a recorded tie-break schedule replays to the identical run (the
  schedule-explorer round trip).

Clock values are drawn from a small pool on purpose: equal-clock ties
are exactly where the ready queue, the tie-break hook, and the stale-
entry repair can disagree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import base
from repro.apps.sor import SorParams
from repro.sim.engine import YIELD, Block, Engine
from repro.verify import RandomWalkScheduler, RecordingScheduler

#: Few distinct values -> many equal-clock ties.
_DT = st.sampled_from([0.0, 1e-6, 1e-3, 0.5])
#: One simulated quantum: how far to advance before yielding again.
_OPS = st.lists(_DT, min_size=0, max_size=6)
#: One program: per-task op lists.
_PROGRAMS = st.lists(_OPS, min_size=2, max_size=5)


def _spawn_program(engine, program, log):
    """One task per op list.  Each quantum logs its dispatch clock, then
    advances, then yields; the final quantum logs ``done``."""
    threads = []

    def make(tid, ops):
        def body():
            th = threads[tid]
            for step, dt in enumerate(ops):
                log.append(("run", tid, step, th.clock))
                th.advance(dt)
                yield YIELD
            log.append(("done", tid, th.clock))
        return body

    for tid, ops in enumerate(program):
        threads.append(engine.spawn(f"t{tid}", make(tid, ops)))
    return threads


class TestYieldPrograms:
    @given(program=_PROGRAMS)
    @settings(max_examples=60, deadline=None)
    def test_no_lost_or_double_run_continuations(self, program):
        log = []
        engine = Engine()
        _spawn_program(engine, program, log)
        engine.run()
        # Every (tid, step) quantum ran exactly once; every task finished.
        quanta = [(tid, step) for kind, tid, step, _ in
                  (e for e in log if e[0] == "run")]
        assert len(quanta) == len(set(quanta))
        assert sorted(quanta) == [(tid, step)
                                  for tid, ops in enumerate(program)
                                  for step in range(len(ops))]
        done = [tid for e in log if e[0] == "done" for tid in [e[1]]]
        assert sorted(done) == list(range(len(program)))

    @given(program=_PROGRAMS)
    @settings(max_examples=60, deadline=None)
    def test_dispatch_clock_monotone(self, program):
        """The engine always dispatches the minimal-clock entity, and
        clocks only grow: quantum-start clocks are non-decreasing."""
        log = []
        engine = Engine()
        _spawn_program(engine, program, log)
        engine.run()
        clocks = [e[3] for e in log if e[0] == "run"]
        assert all(a <= b for a, b in zip(clocks, clocks[1:]))


class TestBlockWakeKill:
    @given(program=_PROGRAMS,
           wake_order=st.permutations(range(5)),
           killed=st.sets(st.integers(0, 4), max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_wakes_and_kills_identical_and_complete(self, program,
                                                    wake_order, killed):
        """Each task advances, blocks, and is later woken or killed by a
        posted event; no continuation is lost either way."""
        killed &= set(range(len(program)))
        log = []
        engine = Engine()
        threads = []

        def make(tid, ops):
            def body():
                th = threads[tid]
                for step, dt in enumerate(ops):
                    log.append(("run", tid, step, th.clock))
                    th.advance(dt)
                    yield YIELD
                wake = yield Block("test-wait", waiting_on="driver")
                log.append(("woke", tid, wake, th.clock))
                log.append(("done", tid, th.clock))
            return body

        for tid, ops in enumerate(program):
            threads.append(engine.spawn(f"t{tid}", make(tid, ops)))
        # All wake/kill events land at t >= 1000.0, far past any advance
        # total, so every task has parked by then.  The permutation
        # varies the wake order; kills replace wakes.
        wake_at = {}
        for tid in range(len(program)):
            when = 1000.0 + wake_order[tid % len(wake_order)] + tid
            th = threads[tid]
            if tid in killed:
                engine.post(when, lambda th=th, t=when: engine.kill(th, t))
            else:
                wake_at[tid] = when
                engine.post(when, lambda th=th, t=when:
                            engine.unblock(th, t))
        engine.run()
        for tid, th in enumerate(threads):
            assert th.state == "done"
            assert th.killed == (tid in killed)
        # Every woken task resumed exactly once, at its wake time; killed
        # tasks unwound while parked: no woke/done entries.
        woke = [(e[1], e[2]) for e in log if e[0] == "woke"]
        assert sorted(woke) == sorted(wake_at.items())
        done = [e[1] for e in log if e[0] == "done"]
        assert sorted(done) == sorted(set(range(len(program))) - killed)


class TestScheduleReplay:
    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=5, deadline=None)
    def test_random_walk_replays_on_coro(self, seed):
        """RandomWalkScheduler -> RecordingScheduler round trip: the
        recorded tie-break trace replays to the identical run."""
        walk = RandomWalkScheduler(seed)
        first = base.run_parallel("sor", "tmk", 4, SorParams.tiny(),
                                  scheduler=walk)
        replay = RecordingScheduler(walk.trace)
        second = base.run_parallel("sor", "tmk", 4, SorParams.tiny(),
                                   scheduler=replay)
        assert replay.trace == walk.trace
        assert replay.counts == walk.counts
        assert second.time == first.time
        assert second.total_messages() == first.total_messages()
