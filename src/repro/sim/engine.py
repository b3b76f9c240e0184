"""Deterministic virtual-time execution engine.

The engine multiplexes *simulated processors* onto the one host thread
that calls :meth:`Engine.run`.  Each processor is a cheap *continuation*
(:class:`SimTask`): its body is a generator, and every blocking runtime
operation (page fault, lock, barrier, message send/receive) is expressed
as a yielded **effect** that a run-to-block trampoline interprets:

* :data:`YIELD` -- let every causally-earlier event and processor run,
  then resume;
* :class:`Block` -- suspend until another entity calls
  :meth:`Engine.unblock`; the ``yield`` evaluates to the wake-up time.

Runtime layers compose these with ``yield from`` (``yield from
tmk.barrier(0)``), so a simulated processor costs only its suspended
generator frames -- thousands fit in one process.

The trampoline always resumes the runnable entity with the smallest
virtual time.  Two kinds of schedulable entities exist:

* **tasks** -- simulated processors, each with its own virtual ``clock``
  that advances when the processor performs local computation
  (:meth:`SimTask.advance`) or blocks waiting for an event.  READY tasks
  sit in a heap of ``(clock, tid, task)`` snapshots; a snapshot whose
  clock went stale (a service charge bumped a READY task) is repaired
  lazily at the top of the heap, which is sound because clocks only
  ever increase;
* **events** -- ``(time, callback)`` pairs posted by the network layer to
  model message arrival.  Event callbacks run inline in the trampoline
  and typically invoke runtime-level request handlers (the analogue of
  TreadMarks' SIGIO-driven servicing), wake blocked tasks, or post
  further events.  Events win virtual-time ties against tasks.

Because processors interact only through posted events, and ties are
broken by (clock, tid) or the pluggable :class:`Scheduler`, runs are
bit-for-bit deterministic (pinned by ``tests/sim/golden_engine.json``
and ``tests/obs/golden_traces.json``).

A task may run ahead of the global minimum virtual time during pure local
computation; causal correctness is preserved because every runtime
operation yields *before* acting, so all events and runnable tasks with
earlier virtual times execute first.
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

__all__ = ["Block", "Engine", "EngineDeadlock", "Scheduler", "SimAborted",
           "SimTask", "ThreadKilled", "YIELD"]


class EngineDeadlock(RuntimeError):
    """Raised when every simulated thread is blocked and no events remain.

    The message carries a per-thread dump (name, tid, state, clock, block
    reason) so a hang can be diagnosed without a debugger.
    """


class SimAborted(BaseException):
    """Injected into simulated threads to unwind them after a failure.

    Derives from ``BaseException`` so that application-level ``except
    Exception`` blocks cannot swallow the abort.
    """


class ThreadKilled(SimAborted):
    """Injected into one simulated thread when its node crashes.

    Unlike a plain abort this is not an error of the simulation: the
    thread unwinds and is marked done (it produced no result), while the
    rest of the cluster keeps running -- exactly like a workstation
    dropping off the network mid-run.
    """


# Thread lifecycle states.
_NEW = "new"
_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"


# ----------------------------------------------------------------------
# Effects: the vocabulary a continuation yields to the trampoline
# ----------------------------------------------------------------------
class _YieldEffect:
    """Singleton sentinel: the :data:`YIELD` effect."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "YIELD"


#: Effect: give every causally-earlier event/thread a chance to run, then
#: resume.  Every runtime operation does ``yield YIELD`` *before* acting.
YIELD = _YieldEffect()


class Block:
    """Effect: suspend until another entity calls :meth:`Engine.unblock`.

    Runtime code does ``wake = yield Block(reason, waiting_on)`` and
    receives the wake-up virtual time (the clock has already been advanced
    to ``max(clock, wake_time)``).  ``waiting_on`` optionally names the
    wake dependency (which peer or service is expected to unblock this
    thread) for deadlock reports.
    """

    __slots__ = ("reason", "waiting_on")

    def __init__(self, reason: str, waiting_on: Optional[str] = None) -> None:
        self.reason = reason
        self.waiting_on = waiting_on

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.reason!r}, waiting_on={self.waiting_on!r})"


class Scheduler:
    """Pluggable tie-break policy among equal-virtual-time ready threads.

    The engine resolves *which entity runs next* by virtual time: events
    before threads, earlier clocks before later ones.  The only freedom a
    run has is the order of READY threads whose clocks are exactly equal --
    historically broken by spawn order (lowest tid).  A ``Scheduler``
    receives that tie set (in tid order, always length >= 2) and picks the
    thread to dispatch; everything else about the run is unchanged.

    The default ``Engine(scheduler=None)`` fast path never consults a
    scheduler and reproduces the historical (clock, tid) policy exactly.
    ``repro.verify.schedule`` builds replayable and randomized strategies
    on top of this hook to explore the schedule space.
    """

    def pick(self, ready: "list[SimTask]") -> "SimTask":
        """Return the thread to run next; default = lowest tid."""
        return ready[0]


class SimTask:
    """A simulated processor's execution context.

    A cheap continuation: the body is a generator function whose generator
    is stepped by the engine's trampoline; each yielded effect parks the
    task (READY after :data:`YIELD`, BLOCKED after :class:`Block`) with no
    host thread underneath.  Application code should only ever touch
    :attr:`clock` indirectly via the runtime layers.
    """

    __slots__ = (
        "tid",
        "name",
        "clock",
        "state",
        "block_reason",
        "waiting_on",
        "_fn",
        "_gen",
        "_resumes_block",
        "result",
        "exception",
        "_wake_time",
        "_killed",
        "daemon",
        "_stop",
    )

    def __init__(self, tid: int, name: str, clock: float,
                 fn: Callable[[], Any], daemon: bool = False):
        self.tid = tid
        self.name = name
        self.clock = clock
        self.state = _NEW
        self.block_reason: Optional[str] = None
        #: Wake-dependency hint: who/what must act for this thread to wake
        #: (e.g. "P3 (manager)").  Purely diagnostic -- surfaced by
        #: thread_dump() so deadlock and watchdog reports name the edge.
        self.waiting_on: Optional[str] = None
        self._fn = fn
        self._gen: Optional[Generator] = None
        #: True while parked at a Block effect (the resume sends the
        #: wake-up time), False while parked at YIELD.
        self._resumes_block = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._wake_time: float = clock
        self._killed = False
        #: Daemon threads (e.g. replica servers) do not keep the simulation
        #: alive: once every non-daemon thread finishes they are stopped
        #: gracefully and unwound.
        self.daemon = daemon
        self._stop = False

    # ------------------------------------------------------------------
    def advance(self, dt: float) -> None:
        """Charge ``dt`` virtual seconds of local computation."""
        if dt < 0:
            raise ValueError(f"negative time advance: {dt!r}")
        self.clock += dt

    @property
    def done(self) -> bool:
        """True once this task has run (or been unwound) to completion."""
        return self.state == _DONE

    @property
    def killed(self) -> bool:
        """True if this task was (or is being) killed by a node crash."""
        return self._killed

    def frame_description(self) -> Optional[str]:
        """Name the innermost suspended frame of the continuation.

        Follows the ``yield from`` delegation chain to the frame that
        actually yielded the current effect, e.g.
        ``"_client_arrive (barrier.py:N)"``, N being the line that
        yielded -- the answer to "where is this processor parked?" in
        deadlock dumps.
        """
        gen = self._gen
        if gen is None or gen.gi_frame is None:
            return None
        while True:
            sub = gen.gi_yieldfrom
            if not isinstance(sub, GeneratorType) or sub.gi_frame is None:
                break
            gen = sub
        frame = gen.gi_frame
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        return f"{code.co_name} ({filename}:{frame.f_lineno})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimTask {self.name} tid={self.tid} state={self.state} "
                f"clock={self.clock:.6f} reason={self.block_reason!r}>")


class Engine:
    """Virtual-time scheduler for simulated threads and message events."""

    def __init__(self, watchdog_events: int = 1_000_000,
                 scheduler: Optional[Scheduler] = None) -> None:
        self._threads: list[SimTask] = []
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._event_seq = 0
        self._running = False
        #: Observability facade (repro.obs.core.Obs) or None; set by the
        #: cluster so thread lifecycle events land on the timeline.
        self.obs: Optional[Any] = None
        #: Monotonically non-decreasing time of the last scheduled entity.
        self.horizon = 0.0
        #: Watchdog: max consecutive events processed while every live
        #: thread is blocked.  A protocol that spins (e.g. a reliability
        #: layer retransmitting into a black hole) would otherwise churn
        #: events forever instead of deadlocking; the watchdog turns that
        #: would-be hang into an :class:`EngineDeadlock` with a thread dump.
        self.watchdog_events = watchdog_events
        self._blocked_events = 0
        #: Tie-break strategy among equal-clock READY threads, or None for
        #: the historical lowest-tid policy (the byte-identical fast path).
        self.scheduler = scheduler
        # Ready queue: a heap of (clock, tid, task) snapshots.  An entry's
        # clock can go stale (service charges bump READY tasks' clocks);
        # since clocks only ever increase, a stale entry is fixed lazily at
        # the top of the heap (pop + re-push at the true clock).
        self._ready: list[tuple[float, int, SimTask]] = []
        # Live-entity counters so the loop avoids O(n) all-done / app-done
        # scans per dispatch.
        self._live_total = 0
        self._live_app = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def spawn(self, name: str, fn: Callable[[], Any], clock: float = 0.0,
              daemon: bool = False) -> SimTask:
        """Register a simulated thread; it starts when :meth:`run` executes.

        ``fn()`` returns the body's generator (a plain function that never
        blocks may return its result directly).
        """
        if self._running:
            raise RuntimeError("cannot spawn threads while engine is running")
        th = SimTask(len(self._threads), name, clock, fn, daemon=daemon)
        self._threads.append(th)
        return th

    def post(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` to run at virtual ``time``.

        Events with equal times run in posting order.
        """
        if time < 0:
            raise ValueError(f"negative event time: {time!r}")
        self._event_seq += 1
        heapq.heappush(self._events, (time, self._event_seq, fn))

    def unblock(self, thread: SimTask, wake_time: float) -> None:
        """Make a blocked thread runnable again at ``wake_time``.

        The woken entity competes for dispatch at its *old* clock (the
        wake-time bump happens when it actually resumes).
        """
        if thread.state != _BLOCKED:
            raise RuntimeError(
                f"unblock of non-blocked thread {thread.name} ({thread.state})")
        thread._wake_time = wake_time
        thread.state = _READY
        heapq.heappush(self._ready, (thread.clock, thread.tid, thread))

    def kill(self, thread: SimTask, wake_time: float) -> bool:
        """Kill one simulated thread (node crash) at virtual ``wake_time``.

        The thread unwinds with :class:`ThreadKilled` at its next runtime
        operation; the rest of the simulation keeps running.  Returns
        ``False`` (and does nothing) if the thread already finished --
        a crash scheduled after completion is a no-op.
        """
        if thread.state == _DONE:
            return False
        thread._killed = True
        if thread.state == _BLOCKED:
            self.unblock(thread, wake_time)
        return True

    def stop(self, thread: SimTask, wake_time: float) -> bool:
        """Gracefully stop one simulated thread at virtual ``wake_time``.

        Unlike :meth:`kill` this is not a crash: the thread unwinds with a
        plain :class:`SimAborted` at its next runtime operation and is marked
        done (``killed`` stays False).  Used to retire daemon threads once
        the application threads complete.  Returns ``False`` if the thread
        already finished.
        """
        if thread.state == _DONE:
            return False
        thread._stop = True
        if thread.state == _BLOCKED:
            self.unblock(thread, wake_time)
        return True

    @property
    def finished(self) -> bool:
        """True once every non-daemon simulated thread has run to completion.

        Daemon threads (replica servers) are excluded: they idle until the
        application finishes and must not make ``finished`` report False
        while trailing events drain.
        """
        threads = [t for t in self._threads if not t.daemon]
        return bool(threads) and all(t.state == _DONE for t in threads)

    def thread_dump(self) -> str:
        """One line per thread: name, tid, state, clock, block reason and
        wake dependency (who must act for the thread to wake).

        Each parked continuation additionally names its innermost
        suspended frame, so a deadlock report reads
        ``P3 ... blocked ... in _client_arrive (barrier.py:N)``.
        """
        parts = []
        for t in self._threads:
            line = f"{t.name} tid={t.tid} state={t.state} clock={t.clock:.6f}"
            if t.block_reason:
                line += f" reason={t.block_reason}"
            if t.waiting_on:
                line += f" waiting_on={t.waiting_on}"
            if t.state in (_READY, _BLOCKED):
                frame = t.frame_description()
                if frame is not None:
                    line += f" in {frame}"
            parts.append(line)
        return "; ".join(parts)

    # ------------------------------------------------------------------
    # The trampoline (runs in the host's calling thread)
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drive the simulation until every thread finishes.

        Raises the first exception raised inside a simulated thread, or
        :class:`EngineDeadlock` if all threads block with no pending events.
        """
        if self._running:
            raise RuntimeError("engine is already running")
        self._running = True
        try:
            self._live_total = self._live_app = 0
            for th in self._threads:
                if th.state == _NEW:
                    th.state = _READY
                    heapq.heappush(self._ready, (th.clock, th.tid, th))
                if th.state != _DONE:
                    self._live_total += 1
                    if not th.daemon:
                        self._live_app += 1
            try:
                self._loop()
            except BaseException:
                self._abort()
                raise
        finally:
            self._running = False

    def _peek_ready(self) -> Optional[SimTask]:
        """The READY task with the smallest (clock, tid), without popping.

        Normalizes the top of the heap on the way: entries for tasks that
        are no longer READY are discarded (the task was dispatched off a
        newer entry, or finished during abort), and entries whose snapshot
        clock is stale (a service charge bumped the task) are re-pushed at
        the true clock.  Clocks never decrease, so a re-push can only move
        an entry later -- the heap order stays consistent.
        """
        heap = self._ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            clock, tid, task = heap[0]
            if task.state != _READY:
                heappop(heap)
                continue
            if task.clock != clock:
                heappop(heap)
                heappush(heap, (task.clock, tid, task))
                continue
            return task
        return None

    def _loop(self) -> None:
        events = self._events
        heappop = heapq.heappop
        scheduler = self.scheduler
        threads = self._threads
        while True:
            if self._live_app == 0 and self._live_total > 0:
                # Application tasks finished but daemon tasks (replica
                # servers) are still parked: retire them so they unwind
                # before the trailing-event drain below.
                stopped = False
                for t in threads:
                    if t.daemon and t.state != _DONE and not t._stop:
                        self.stop(t, t.clock)
                        stopped = True
                if stopped:
                    continue

            if self._live_total == 0:
                # Drain in-flight events (e.g. messages still on the wire)
                # so trailing deliveries and their CPU charges complete.
                while events:
                    _, _, fn = heappop(events)
                    fn()
                if self._live_total == 0:
                    return
                continue

            next_task = self._peek_ready()

            # Events win virtual-time ties so request handlers run before
            # threads proceed.
            if events and (next_task is None
                           or events[0][0] <= next_task.clock):
                if next_task is None:
                    self._blocked_events += 1
                    if self._blocked_events > self.watchdog_events:
                        raise EngineDeadlock(
                            f"watchdog: {self._blocked_events} consecutive "
                            "events processed while every thread was "
                            f"blocked: {self.thread_dump()}")
                else:
                    self._blocked_events = 0
                time, _, fn = heappop(events)
                if time > self.horizon:
                    self.horizon = time
                fn()
                continue

            if next_task is None:
                raise EngineDeadlock(
                    "all simulated threads blocked with no pending events: "
                    + self.thread_dump())

            if scheduler is not None:
                # A choice point exists only when several READY threads are
                # tied at the minimal clock; the event-vs-thread tie policy
                # (events win) is fixed and never explored.
                tie_clock = next_task.clock
                ties = [t for t in threads
                        if t.state == _READY and t.clock == tie_clock]
                if len(ties) > 1:
                    next_task = scheduler.pick(ties)

            self._blocked_events = 0
            if next_task.clock > self.horizon:
                self.horizon = next_task.clock
            if self._ready and self._ready[0][2] is next_task:
                heappop(self._ready)
            self._step(next_task)
            if next_task.exception is not None:
                exc = next_task.exception
                next_task.exception = None
                raise exc

    def _step(self, task: SimTask) -> None:
        """Resume one continuation and run it to its next effect.

        Kill/stop semantics (pinned by the golden suites):

        * first dispatch runs the body's prefix even when the task is
          already marked killed -- it unwinds at its first effect;
        * resuming from either effect checks killed -> stop and throws
          *before* the wake-time bump, so a killed task unwinds at its
          old clock;
        * a :class:`Block` effect from a task already marked killed/stopped
          raises synchronously -- the killer (or the daemon-retire sweep)
          has already run, so nobody is left to unblock a task that parks
          *after* being told to go -- while a :data:`YIELD` effect always
          parks first and raises at the next dispatch.
        """
        task.state = _RUNNING
        throw: Optional[BaseException] = None
        send_value: Any = None
        gen = task._gen
        if gen is None:
            try:
                result = task._fn()
            except SimAborted:
                self._finish(task)
                return
            except BaseException as exc:  # noqa: BLE001
                task.exception = exc
                self._finish(task)
                return
            if not isinstance(result, GeneratorType):
                # A body that never blocks (or a plain non-generator
                # function) completes on its first dispatch.
                task.result = result
                self._finish(task)
                return
            task._gen = gen = result
        elif task._killed:
            throw = ThreadKilled()
        elif task._stop:
            throw = SimAborted()
        elif task._resumes_block:
            task.block_reason = None
            task.waiting_on = None
            if task._wake_time > task.clock:
                task.clock = task._wake_time
            send_value = task.clock

        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    effect = gen.throw(exc)
                else:
                    effect = gen.send(send_value)
            except StopIteration as stop:
                task.result = stop.value
                self._finish(task)
                return
            except SimAborted:
                # ThreadKilled / SimAborted unwound the body: not an error.
                self._finish(task)
                return
            except BaseException as exc:  # noqa: BLE001
                task.exception = exc
                self._finish(task)
                return
            send_value = None
            if effect is YIELD:
                task.state = _READY
                task._resumes_block = False
                heapq.heappush(self._ready, (task.clock, task.tid, task))
                return
            if type(effect) is Block:
                if task._killed:
                    throw = ThreadKilled()
                    continue
                if task._stop:
                    throw = SimAborted()
                    continue
                task.state = _BLOCKED
                task.block_reason = effect.reason
                task.waiting_on = effect.waiting_on
                task._resumes_block = True
                return
            throw = RuntimeError(
                f"{task.name}: unknown effect {effect!r} yielded to the "
                "engine (expected YIELD or Block)")

    def _finish(self, task: SimTask) -> None:
        """Mark one continuation done and update the live counters."""
        task.state = _DONE
        task._gen = None
        self._live_total -= 1
        if not task.daemon:
            self._live_app -= 1
        obs = self.obs
        if obs is not None:
            obs.instant(task.clock, task.tid,
                        "thread_killed" if task._killed else "thread_done")

    def _abort(self) -> None:
        """Unwind all live continuations after a failure.

        Every live task gets :class:`SimAborted` thrown into its generator
        (so ``finally`` blocks run) and is marked done.  Tasks that never
        ran (no generator yet) are finished without executing their body.
        """
        for task in self._threads:
            if task.state in (_DONE, _NEW):
                continue
            gen = task._gen
            if gen is not None:
                try:
                    gen.throw(SimAborted())
                except BaseException:  # noqa: BLE001 - unwinding only
                    pass
            self._finish(task)
