"""Deadlock diagnostics for parked continuations.

A parked *continuation* has no host thread to name, so a deadlock dump
names the task, its block reason, its wake dependency, and -- following
the ``yield from`` delegation chain -- the innermost suspended frame.  A
1024-node deadlock report is only useful if it says *where* each
processor is parked.
"""

import pytest

from repro.apps import base
from repro.sim.engine import Block, Engine, EngineDeadlock


def waiter_body():
    yield Block("lock 3", waiting_on="P1")


def test_deadlock_dump_names_continuation_and_dependency():
    engine = Engine()
    engine.spawn("P0", waiter_body)
    with pytest.raises(EngineDeadlock) as exc:
        engine.run()
    dump = str(exc.value)
    assert "P0" in dump
    assert "reason=lock 3" in dump
    assert "waiting_on=P1" in dump
    # The innermost suspended frame of the parked generator.
    assert "in waiter_body" in dump
    assert "test_coro_diagnostics.py" in dump


def test_deadlock_dump_follows_yield_from_chain():
    """The dump names the *innermost* delegated generator, not the app
    body that wrapped it."""

    def inner_wait():
        yield Block("barrier 0", waiting_on="barrier manager")

    def outer_body():
        yield from inner_wait()

    engine = Engine()
    engine.spawn("P0", outer_body)
    with pytest.raises(EngineDeadlock) as exc:
        engine.run()
    dump = str(exc.value)
    assert "in inner_wait" in dump


def _mismatched_barriers(proc, params):
    tmk = proc.tmk
    # P0 waits at barrier 0 while everyone else waits at barrier 1:
    # a classic app-level deadlock.
    yield from tmk.barrier(0 if tmk.pid == 0 else 1)


def test_app_level_deadlock_names_runtime_frame():
    """Through the full stack (tmk runtime driving generator effects),
    the dump points into the runtime's suspended barrier wait."""
    from repro.apps.base import AppSpec

    spec = AppSpec(name="deadlock-demo", sequential=lambda m, p: None,
                   tmk_main=_mismatched_barriers,
                   pvm_main=_mismatched_barriers,
                   verify=lambda a, b: True)
    with pytest.raises(EngineDeadlock) as exc:
        base.run_parallel(spec, "tmk", 4, None)
    dump = str(exc.value)
    assert "reason=barrier" in dump
    # Every parked continuation names the suspended runtime frame.
    assert "in _manager_arrive (barrier.py" in dump
    assert "in _client_arrive (barrier.py" in dump


def test_thread_dump_lists_every_state():
    engine = Engine()

    def quick():
        return 1
        yield  # pragma: no cover - makes this a generator

    engine.spawn("done-task", quick)
    engine.spawn("parked", waiter_body)
    with pytest.raises(EngineDeadlock) as exc:
        engine.run()
    # The dump embedded in the exception is a snapshot from raise time,
    # before the abort unwound the parked continuations.
    dump = str(exc.value)
    assert "done-task" in dump and "state=done" in dump
    assert "parked" in dump and "state=blocked" in dump
    # After the abort every continuation has been unwound.
    assert "state=blocked" not in engine.thread_dump()
