"""Timeline recording, span matching, and the ring-buffer cap."""

from repro.obs import Timeline, TimelineEvent


class TestRecording:
    def test_phases(self):
        tl = Timeline()
        tl.begin(1.0, 0, "page_fault", "page=3")
        tl.complete(1.1, 0.2, 0, "wire", "->P1")
        tl.instant(1.2, 0, "forward_hop")
        tl.end(1.5, 0)
        assert [e.phase for e in tl.events] == ["B", "X", "I", "E"]
        assert tl.events[1].dur == 0.2

    def test_disabled_records_nothing(self):
        tl = Timeline(enabled=False)
        tl.begin(1.0, 0, "page_fault")
        tl.end(2.0, 0)
        tl.instant(1.5, 0, "x")
        assert tl.events == []

    def test_str_rendering(self):
        event = TimelineEvent("X", 0.001, 2, "wire", "->P0", dur=5e-6)
        text = str(event)
        assert "P2" in text and "wire" in text and "dur=5.0us" in text


class TestSpans:
    def test_nested_spans_match_innermost_first(self):
        tl = Timeline()
        tl.begin(1.0, 0, "page_fault")
        tl.begin(1.1, 0, "diff_request")
        tl.end(1.4, 0)
        tl.end(1.5, 0)
        pairs = tl.spans(0)
        assert [(b.kind, e.time) for b, e in pairs] == [
            ("diff_request", 1.4), ("page_fault", 1.5)]

    def test_spans_track_processors_independently(self):
        tl = Timeline()
        tl.begin(1.0, 0, "barrier")
        tl.begin(1.1, 1, "lock_acquire")
        tl.end(1.2, 1)
        tl.end(1.3, 0)
        assert [b.kind for b, _ in tl.spans()] == ["lock_acquire", "barrier"]
        assert [b.kind for b, _ in tl.spans(0)] == ["barrier"]

    def test_kind_counts_exclude_ends(self):
        tl = Timeline()
        tl.begin(1.0, 0, "barrier")
        tl.end(1.3, 0)
        tl.instant(1.4, 0, "barrier_arrival")
        tl.complete(1.5, 0.1, 0, "wire")
        counts = tl.kind_counts()
        assert counts == {"barrier": 1, "barrier_arrival": 1, "wire": 1}

    def test_digest_is_sorted_and_counts_drops(self):
        tl = Timeline(cap=2)
        for i in range(5):
            tl.instant(float(i), 0, f"k{i}")
        digest = tl.digest()
        assert digest["__events__"] == 5
        assert digest["__dropped__"] == 3
        assert len(tl.events) == 2


class TestTimelineCap:
    def test_cap_drops_oldest(self):
        tl = Timeline(cap=10)
        for i in range(25):
            tl.instant(float(i), 0, "tick", str(i))
        assert len(tl.events) == 10
        assert tl.dropped_events == 15
        # The survivors are the newest events.
        assert [e.detail for e in tl.events] == [str(i) for i in range(15, 25)]

    def test_no_cap_is_unbounded(self):
        tl = Timeline()
        for i in range(1000):
            tl.instant(float(i), 0, "tick")
        assert len(tl.events) == 1000
        assert tl.dropped_events == 0


def test_capped_run_records_drop_count():
    """A real run with a tiny cap keeps the newest events and counts
    the overflow, so long runs stay bounded without losing the tail."""
    from repro.apps import base
    from repro.apps.sor import SorParams
    from repro.obs import ObsConfig

    run = base.run_parallel("sor", "tmk", 2, SorParams.tiny(),
                            obs=ObsConfig(timeline=True, cap=40))
    tl = run.timeline
    assert len(tl.events) == 40
    assert tl.dropped_events > 0
    full = base.run_parallel("sor", "tmk", 2, SorParams.tiny(),
                             obs=ObsConfig(timeline=True))
    assert len(full.events if hasattr(full, "events") else
               full.timeline.events) == 40 + tl.dropped_events
    # The capped run's events are the tail of the uncapped run's.
    assert full.timeline.events[-40:] == tl.events
