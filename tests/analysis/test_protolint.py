"""Protocol-implementation lint (PRT001-PRT009)."""

from pathlib import Path

import pytest

from repro.analysis.protolint import lint_paths, lint_source, lint_sources

REPO = Path(__file__).resolve().parents[2]


def codes(findings):
    return [f.code for f in findings]


class TestExhaustiveness:
    def test_sent_but_never_registered(self):
        src = '''
CAT_A = "cat_a"
class Core:
    def go(self):
        self.udp.send(self.pid, 1, CAT_A, None, 32)
'''
        assert codes(lint_source(src, "x.py")) == ["PRT001"]

    def test_registered_but_never_sent(self):
        src = '''
CAT_A = "cat_a"
class Core:
    def __init__(self, proc):
        proc.register(CAT_A, self._on_a)
    def _on_a(self, d):
        pass
'''
        assert codes(lint_source(src, "x.py")) == ["PRT002"]

    def test_matched_pair_is_clean(self):
        src = '''
CAT_A = "cat_a"
class Core:
    def __init__(self, proc):
        proc.register(CAT_A, self._on_a)
    def go(self):
        self.udp.send(self.pid, 1, CAT_A, None, 32)
    def _on_a(self, d):
        pass
'''
        assert lint_source(src, "x.py") == []

    def test_cross_module_aggregation(self):
        """A category sent in one module and handled in another is legal
        (e.g. the SC-ABD client/replica split)."""
        sender = '''
CAT_Q = "quorum_read"
class Client:
    def go(self):
        self.udp.send(self.pid, 1, CAT_Q, None, 32)
'''
        receiver = '''
CAT_Q = "quorum_read"
class Replica:
    def __init__(self, proc):
        proc.register(CAT_Q, self._on_q)
    def _on_q(self, d):
        pass
'''
        assert lint_sources({"a.py": sender, "b.py": receiver}) == []
        # In isolation each half is incomplete.
        assert codes(lint_source(sender, "a.py")) == ["PRT001"]

    def test_string_literal_category(self):
        src = '''
class Core:
    def go(self):
        self.udp.send(self.pid, 1, "direct_literal", None, 32)
'''
        assert codes(lint_source(src, "x.py")) == ["PRT001"]

    def test_unresolvable_category_skipped(self):
        """A forwarded variable (e.g. the PVM daemon relay) is not a
        statically checkable send."""
        src = '''
class Daemon:
    def forward_msg(self, category):
        self.udp.send(self.src, self.dst, category, None, 32)
'''
        assert lint_source(src, "x.py") == []


class TestHandlerBlocking:
    def test_direct_block_in_handler(self):
        src = '''
CAT_A = "cat_a"
class Core:
    def __init__(self, proc):
        proc.register(CAT_A, self._on_a)
        self.udp.send(0, 1, CAT_A, None, 32)
    def _on_a(self, d):
        yield Block("oops")
'''
        assert "PRT003" in codes(lint_source(src, "x.py"))

    def test_block_reachable_through_helper(self):
        src = '''
CAT_A = "cat_a"
class Core:
    def __init__(self, proc):
        proc.register(CAT_A, self._on_a)
        self.udp.send(0, 1, CAT_A, None, 32)
    def _on_a(self, d):
        yield from self._helper()
    def _helper(self):
        yield from box.wait("nested")
'''
        findings = lint_source(src, "x.py")
        assert "PRT003" in codes(findings)

    def test_blocking_outside_handlers_is_fine(self):
        src = '''
CAT_A = "cat_a"
class Core:
    def __init__(self, proc):
        proc.register(CAT_A, self._on_a)
        self.udp.send(0, 1, CAT_A, None, 32)
    def _on_a(self, d):
        pass
    def request(self):
        yield from box.wait("request path may block")
'''
        assert lint_source(src, "x.py") == []


class TestSyncUnderLock:
    def test_barrier_while_holding_lock(self):
        src = '''
def body(tmk):
    yield from tmk.lock_acquire(0)
    yield from tmk.barrier(1)
    yield from tmk.lock_release(0)
'''
        assert codes(lint_source(src, "x.py")) == ["PRT004"]

    def test_release_before_sync_is_fine(self):
        src = '''
def body(tmk):
    yield from tmk.lock_acquire(0)
    yield from tmk.lock_release(0)
    yield from tmk.barrier(1)
'''
        assert lint_source(src, "x.py") == []


class TestDeterminism:
    PROTO = "src/repro/tmk/fake.py"

    def test_shared_random_state(self):
        src = "import random\ndef f():\n    return random.random()\n"
        assert codes(lint_source(src, self.PROTO)) == ["PRT005"]

    def test_unseeded_random_instance(self):
        src = "import random\ndef f():\n    return random.Random()\n"
        assert codes(lint_source(src, self.PROTO)) == ["PRT005"]

    def test_seeded_random_is_fine(self):
        src = "import random\ndef f(seed):\n    return random.Random(seed)\n"
        assert lint_source(src, self.PROTO) == []

    def test_wall_clock(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert codes(lint_source(src, self.PROTO)) == ["PRT006"]

    def test_id_keyed_subscript_and_dict(self):
        src = '''
def f(cache, x, items):
    cache[id(x)] = 1
    return {id(i): i for i in items}
'''
        assert codes(lint_source(src, self.PROTO)) == ["PRT007", "PRT007"]

    def test_set_iteration(self):
        src = '''
def f(peers):
    for p in set(peers):
        pass
    return [q for q in {1, 2}]
'''
        assert codes(lint_source(src, self.PROTO)) == ["PRT008", "PRT008"]

    def test_sorted_set_is_fine(self):
        src = '''
def f(peers):
    for p in sorted(set(peers)):
        pass
'''
        assert lint_source(src, self.PROTO) == []

    def test_non_protocol_paths_exempt(self):
        """Benchmarks may read the wall clock and use shared random."""
        src = "import time, random\ndef f():\n" \
              "    return time.time() + random.random()\n"
        assert lint_source(src, "src/repro/bench/fake.py") == []
        assert lint_source(src, "tools/fake.py") == []


class TestEventStream:
    VOCABULARY = '''
VOCABULARY = {
    "lock_release": ("pid", "lock", "time"),
    "barrier_arrive": ("pid", "bid", "time"),
}
'''
    EMITTERS = '''
class Locks:
    def release(self, lock):
        if self.proc.events is not None:
            self.proc.events.lock_release(self.pid, lock, self.proc.now)
class Barrier:
    def barrier(self, bid):
        events = proc.events
        if events is not None:
            events.barrier_arrive(self.pid, bid, proc.now)
'''

    def test_emitted_and_subscribed_vocabulary_is_clean(self):
        subscriber = '''
class Base(Subscriber):
    def on_barrier_arrive(self, pid, bid, time):
        pass
class Monitor(Base):
    def on_lock_release(self, pid, lock, time):
        pass
'''
        assert lint_sources({"src/repro/sim/trace.py": self.VOCABULARY,
                             "src/repro/tmk/x.py": self.EMITTERS,
                             "src/repro/verify/m.py": subscriber}) == []

    def test_event_nothing_emits(self):
        emitters = self.EMITTERS.replace("events.barrier_arrive",
                                         "events.barrier_arive")
        findings = lint_sources({"src/repro/sim/trace.py": self.VOCABULARY,
                                 "src/repro/tmk/x.py": emitters})
        assert codes(findings) == ["PRT009"]
        assert "'barrier_arrive'" in findings[0].message
        assert findings[0].path == "src/repro/sim/trace.py"

    def test_subscriber_method_names_no_event(self):
        """Inherited subscribers count; other classes' on_* do not."""
        subscriber = '''
class Base(Subscriber):
    pass
class Monitor(Base):
    def on_lock_grant(self, pid, lock, requester, grant, time):
        pass
class Profiler:
    def on_advance(self, pid, dt):
        pass
'''
        findings = lint_sources({"src/repro/sim/trace.py": self.VOCABULARY,
                                 "src/repro/tmk/x.py": self.EMITTERS,
                                 "src/repro/verify/m.py": subscriber})
        assert codes(findings) == ["PRT009"]
        assert "Monitor.on_lock_grant" in findings[0].message

    def test_subscriber_method_takes_other_arguments(self):
        """A handler whose arity drifted from its event's is flagged."""
        subscriber = '''
class Monitor(Subscriber):
    def on_lock_release(self, pid, lock):
        pass
    def on_barrier_arrive(self, *args):
        pass
'''
        findings = lint_sources({"src/repro/sim/trace.py": self.VOCABULARY,
                                 "src/repro/tmk/x.py": self.EMITTERS,
                                 "src/repro/verify/m.py": subscriber})
        assert codes(findings) == ["PRT009"]
        assert "Monitor.on_lock_release takes 2 arguments" in \
            findings[0].message
        assert "(pid, lock, time)" in findings[0].message

    def test_consumer_lookup_counts_as_emit(self):
        emitters = self.EMITTERS.replace(
            "events.barrier_arrive(self.pid, bid, proc.now)",
            "events.consumer(\"barrier_arrive\")(self.pid, bid, proc.now)")
        assert lint_sources({"src/repro/sim/trace.py": self.VOCABULARY,
                             "src/repro/tmk/x.py": emitters}) == []

    def test_no_vocabulary_no_check(self):
        src = '''
class Monitor(Subscriber):
    def on_anything(self):
        pass
'''
        assert lint_source(src, "src/repro/verify/m.py") == []


class TestRepoIsClean:
    def test_runtime_passes_its_own_lint(self):
        findings = lint_paths([REPO / "src" / "repro"])
        assert findings == [], "\n".join(f.format() for f in findings)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
