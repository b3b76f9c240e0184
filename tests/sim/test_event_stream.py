"""Subscribers of the protocol event stream are independent.

The race sanitizer, the false-sharing tracker, the invariant monitors and
the protocol trace all subscribe to one ``Cluster.events`` stream.  Each
must see exactly what it sees alone, and none may perturb the run.
"""

import dataclasses

import numpy as np
import pytest

import repro.api as api
from repro.analysis import AnalysisConfig, attach_sanitizer
from repro.analysis.false_sharing import FalseSharingTracker
from repro.api import ReplicationConfig, RunConfig
from repro.apps import base
from repro.apps.sor import SorParams
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.trace import VOCABULARY, Trace
from repro.tmk.api import attach_tmk
from repro.verify.invariants import attach_invariants

BARE = RunConfig("fig08", "tmk", 4, "tiny")
RACES = AnalysisConfig(race_check="report")
SHARING = AnalysisConfig(false_sharing=True)
ALL = AnalysisConfig(race_check="report", false_sharing=True)


def simulate(config, traced=False):
    trace = Trace() if traced else None
    return api.simulate(config, trace=trace), trace


def findings(run):
    return [(f.kind, f.start, f.end, f.earlier, f.later)
            for f in run.sanitizer.findings]


def outputs(run):
    """What a run computes: answer, virtual time, traffic."""
    result = run.result
    if isinstance(result, np.ndarray):
        result = (result.dtype.str, result.shape, result.tobytes())
    return (repr(result), run.time, run.total_messages(), run.total_kbytes())


@pytest.fixture(scope="module")
def together():
    return simulate(dataclasses.replace(BARE, analysis=ALL, invariants=True),
                    traced=True)


class TestTmkSubscribersTogether:
    def test_trace_text_as_alone(self, together):
        _, alone = simulate(BARE, traced=True)
        assert together[1].format() == alone.format()
        assert together[1].events

    def test_race_findings_as_alone(self, together):
        alone, _ = simulate(dataclasses.replace(BARE, analysis=RACES))
        run = together[0]
        assert findings(run) == findings(alone)
        assert run.sanitizer.race_report() == alone.sanitizer.race_report()
        assert (run.sanitizer.accesses_checked
                == alone.sanitizer.accesses_checked > 0)

    def test_false_sharing_report_as_alone(self, together):
        alone, _ = simulate(dataclasses.replace(BARE, analysis=SHARING))
        report = together[0].sanitizer.false_sharing_report()
        assert report == alone.sanitizer.false_sharing_report()
        assert "pages with multiple writers" in report

    def test_monitor_events_as_alone(self, together):
        alone, _ = simulate(dataclasses.replace(BARE, invariants=True))
        checked = together[0].invariant_monitor.events_checked
        assert checked == alone.invariant_monitor.events_checked > 0

    def test_run_unperturbed(self, together):
        bare, _ = simulate(BARE)
        assert outputs(together[0]) == outputs(bare)
        watched = api.run(dataclasses.replace(BARE, analysis=ALL,
                                              invariants=True),
                          use_cache=False)
        assert watched.etag == api.run(BARE, use_cache=False).etag


def _racy_writers(proc):
    tmk = proc.tmk
    arr = tmk.shared_array("x", (64,), np.int64)
    yield from tmk.barrier(0)
    yield from arr.write(slice(0, 8), proc.pid)  # unordered: a race
    yield from tmk.barrier(1)


def test_race_sites_with_every_subscriber():
    """Dispatch through the stream keeps the finding site strings."""
    def race_report(everything):
        cluster = Cluster(4, config=ClusterConfig(
            trace=Trace() if everything else None))
        endpoints = attach_tmk(cluster)
        sanitizer = attach_sanitizer(cluster, endpoints,
                                     ALL if everything else RACES)
        if everything:
            attach_invariants(cluster, "tmk", 4)
        cluster.run(_racy_writers)
        return [f.describe() for f in sanitizer.findings]

    alone = race_report(False)
    assert alone and all("test_event_stream.py" in f for f in alone)
    assert race_report(True) == alone


def test_access_handler_mirrored_only_when_consumed():
    """A trace or a monitor leaves each core's ``emit_access`` None; an
    access subscriber sets it, joining before or after the cores exist."""
    cluster = Cluster(2, config=ClusterConfig(trace=Trace()))
    endpoints = attach_tmk(cluster)
    attach_invariants(cluster, "tmk", 2)
    cores = [tmk.core for tmk in endpoints]
    assert all(core.emit_access is None for core in cores)
    sanitizer = attach_sanitizer(cluster, endpoints, RACES)
    assert all(core.emit_access == sanitizer.on_access for core in cores)

    early = Cluster(2)
    tracker = FalseSharingTracker(early.cost.page_size)
    early.subscribe(tracker)
    cores = [tmk.core for tmk in attach_tmk(early)]
    assert all(core.emit_access == tracker.on_access for core in cores)


@pytest.mark.parametrize("system", ["ivy", "scabd", "pvm"])
def test_trace_and_invariants_together(system):
    """Trace + monitor on the other runtimes: each as alone."""
    kw = {}
    if system == "scabd":
        system, kw = "tmk", {"replication": ReplicationConfig(3)}
    params = SorParams.tiny()

    def run(trace, invariants):
        return base.run_parallel("sor", system, 4, params, trace=trace,
                                 invariants=invariants, **kw)

    both_trace = Trace()
    both = run(both_trace, True)
    trace_alone = Trace()
    run(trace_alone, False)
    monitor_alone = run(None, True)
    assert both_trace.format() == trace_alone.format()
    assert (both.invariant_monitor.events_checked
            == monitor_alone.invariant_monitor.events_checked > 0)
    bare = run(None, False)
    assert outputs(both) == outputs(bare)


def test_default_run_has_no_stream():
    run = base.run_parallel("sor", "tmk", 2, SorParams.tiny())
    cluster = run.endpoints[0].proc.cluster
    assert cluster.events is None
    assert all(proc.events is None for proc in cluster.procs)


def test_vocabulary_signatures_end_in_time():
    for name, args in VOCABULARY.items():
        assert args[-1] == "time", name
