"""Chrome/Perfetto trace export: schema validity and edge cases."""

import json

import pytest

from repro.api import RunConfig
from repro.obs import (ObsConfig, Timeline, to_chrome_trace,
                       validate_chrome_trace, write_chrome_trace)

OBS = ObsConfig(timeline=True, profile=True)


def small_timeline():
    tl = Timeline()
    tl.begin(1e-3, 0, "page_fault", "page=3")
    tl.begin(1.1e-3, 0, "diff_request")
    tl.complete(1.2e-3, 0.1e-3, -1, "wire", "P1->P0")
    tl.end(1.5e-3, 0)
    tl.end(1.6e-3, 0)
    tl.instant(1.7e-3, 1, "forward_hop")
    return tl


class TestExport:
    def test_valid_and_structured(self):
        trace = to_chrome_trace(small_timeline(), label="unit")
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        # Metadata first: process name plus name/sort for each track.
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"] == {"name": "unit"}
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert names == {"P0", "P1", "network"}

    def test_times_in_microseconds(self):
        trace = to_chrome_trace(small_timeline())
        begin = next(e for e in trace["traceEvents"] if e["ph"] == "B")
        assert begin["ts"] == pytest.approx(1e3)  # 1 ms -> 1000 us
        x = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert x["dur"] == pytest.approx(100.0)

    def test_end_events_get_the_begin_name(self):
        trace = to_chrome_trace(small_timeline())
        ends = [e for e in trace["traceEvents"] if e["ph"] == "E"]
        assert [e["name"] for e in ends] == ["diff_request", "page_fault"]

    def test_orphan_end_demoted_to_instant(self):
        tl = Timeline()
        tl.end(2e-3, 0)  # its begin fell off the ring buffer
        trace = to_chrome_trace(tl)
        assert validate_chrome_trace(trace) == []
        demoted = [e for e in trace["traceEvents"]
                   if e["ph"] == "i" and e["name"] == "span_end"]
        assert len(demoted) == 1

    def test_unclosed_begin_gets_synthetic_end(self):
        tl = Timeline()
        tl.begin(1e-3, 0, "barrier")
        tl.complete(2e-3, 1e-3, 0, "wire")  # extends max_ts to 3 ms
        trace = to_chrome_trace(tl)
        assert validate_chrome_trace(trace) == []
        end = next(e for e in trace["traceEvents"] if e["ph"] == "E")
        assert end["name"] == "barrier"
        assert end["ts"] == pytest.approx(3e3)  # closed at the trace's end

    def test_dropped_events_reported(self):
        tl = Timeline(cap=2)
        for i in range(6):
            tl.instant(float(i), 0, "tick")
        trace = to_chrome_trace(tl)
        assert trace["otherData"]["dropped_events"] == 4


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace(None) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({"displayTimeUnit": "ms"}) != []

    def test_rejects_bad_phase(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("bad phase" in e for e in validate_chrome_trace(bad))

    def test_rejects_x_without_dur(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("dur" in e for e in validate_chrome_trace(bad))

    def test_rejects_unbalanced_spans(self):
        lone_end = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("E without matching B" in e
                   for e in validate_chrome_trace(lone_end))
        lone_begin = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("unclosed" in e
                   for e in validate_chrome_trace(lone_begin))

    def test_rejects_missing_ts_and_ids(self):
        bad = {"traceEvents": [{"name": "x", "ph": "i", "pid": 1}]}
        errors = validate_chrome_trace(bad)
        assert any("tid" in e for e in errors)
        assert any("ts" in e for e in errors)


def test_real_run_exports_valid_trace(tmp_path, live_run):
    """Acceptance: a simulated run's exported trace passes validation
    and survives a JSON round trip."""
    run = live_run(RunConfig("fig02", "tmk", 4, "tiny", obs=OBS))
    path = tmp_path / "sor.json"
    write_chrome_trace(run.timeline, str(path), label="SOR-Zero tmk x4")
    loaded = json.loads(path.read_text())
    assert validate_chrome_trace(loaded) == []
    kinds = {e["name"] for e in loaded["traceEvents"]}
    # The spans the observability layer promises are all present.
    for kind in ("page_fault", "diff_request", "diff_apply", "wire",
                 "barrier", "measure_start"):
        assert kind in kinds, f"missing {kind} spans"


def test_capped_run_still_valid(live_run):
    run_id = ("fig08", "tmk", 4)
    run = live_run(RunConfig(
        *run_id, "tiny", obs=ObsConfig(timeline=True, cap=64)))
    trace = to_chrome_trace(run.timeline)
    assert validate_chrome_trace(trace) == []
    assert trace["otherData"]["dropped_events"] > 0
