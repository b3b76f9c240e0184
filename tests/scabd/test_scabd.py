"""Tests for the SC-ABD quorum-replicated DSM (failure masking).

Three layers of coverage:

* protocol basics on hand-built clusters (reads fetch through quorums,
  writes invalidate, replica stores converge on monotone tags);
* the harness contract (``run_parallel(..., replication=...)`` runs the
  unmodified TreadMarks apps and reports the replication ledger);
* the masking matrices -- minority replica crashes are absorbed with a
  bit-identical result, unmaskable crashes abort with a clean
  :class:`NodeFailure`;
* the claims of the committed ``BENCH_ft.json``, re-checked from its data.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import base
from repro.apps.sor import SorParams
from repro.apps.tsp import TspParams
from repro.scabd import ReplicationConfig, attach_scabd
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.faults import FaultPlan
from repro.sim.recovery import NodeFailure
from repro.sim.trace import Trace
from tests.ivy.directory_cases import DirectoryProtocolCases, verified_run


def scabd_run(fn, nclients=3, replicas=3, faults=None,
              trace=None):
    cluster = Cluster(nclients + replicas, config=ClusterConfig(
        faults=faults, trace=trace))
    attach_scabd(cluster, ReplicationConfig(replicas=replicas))
    return cluster.run(fn), cluster


class TestReplicationConfig:
    def test_quorum_arithmetic(self):
        assert (ReplicationConfig(1).majority, ReplicationConfig(1).f_max) \
            == (1, 0)
        assert (ReplicationConfig(3).majority, ReplicationConfig(3).f_max) \
            == (2, 1)
        assert (ReplicationConfig(4).majority, ReplicationConfig(4).f_max) \
            == (3, 1)
        assert (ReplicationConfig(5).majority, ReplicationConfig(5).f_max) \
            == (3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationConfig(replicas=0)
        with pytest.raises(ValueError):
            ReplicationConfig(mode="rollback")

    def test_hashable(self):
        assert hash(ReplicationConfig(3)) == hash(ReplicationConfig(3))
        assert ReplicationConfig(3) != ReplicationConfig(5)

    def test_cluster_must_fit_clients_and_replicas(self):
        cluster = Cluster(3)
        with pytest.raises(ValueError, match="application processor"):
            attach_scabd(cluster, ReplicationConfig(replicas=3))


class TestProtocolBasics(DirectoryProtocolCases):
    def run(self, fn, nprocs):
        res, cluster = scabd_run(fn, nclients=nprocs, replicas=3)
        # Replica servers run no application code and return nothing.
        assert res.results[nprocs:] == [None, None, None]
        return res.results[:nprocs], cluster.procs[:nprocs]

    def test_replicas_invisible_to_programming_model(self):
        def main(proc):
            return proc.tmk.nprocs

        res, cluster = scabd_run(main, nclients=2, replicas=3)
        assert res.results[:2] == [2, 2]
        assert cluster.procs[0].tmk.system.replica_pids == (2, 3, 4)

    def test_page_data_moves_through_quorums(self):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            if tmk.pid == 0:
                yield from data.write(slice(0, 512), 3)
            yield from tmk.barrier(0)
            return int((yield from data.get(9)))

        res, cluster = scabd_run(main, nclients=2, replicas=3)
        assert res.results[:2] == [3, 3]
        reads = sum(p.tmk.core.quorum_reads for p in cluster.procs[:2])
        writes = sum(p.tmk.core.quorum_writes for p in cluster.procs[:2])
        assert reads > 0 and writes > 0
        # Quorum traffic lives in its own accounting system, so the "tmk"
        # totals stay comparable with the non-replicated runs.
        repl = cluster.stats.total("replication")
        assert repl.messages > 0 and repl.bytes > 0
        cats = cluster.stats.by_category("replication")
        assert "quorum_write" in cats and "quorum_read" in cats
        assert "quorum_read" not in cluster.stats.by_category("tmk")

    def test_replica_stores_converge_on_monotone_tags(self):
        def main(proc):
            tmk = proc.tmk
            data = tmk.shared_array("d", (512,), np.int64)
            for round_no in range(3):
                if tmk.pid == round_no % 2:
                    yield from data.write(slice(0, 512), round_no)
                yield from tmk.barrier(round_no)
            return int((yield from data.get(0)))

        res, cluster = scabd_run(main, nclients=2, replicas=3)
        assert res.results[:2] == [2, 2]
        stores = [replica.store
                  for replica in cluster.procs[0].tmk.system.replicas]
        pages = set().union(*stores)
        assert pages  # the shared page reached the replica set
        for page in pages:
            versions = {store[page] for store in stores if page in store}
            # Writes go to every live replica and the run drained: all
            # replicas converged on one (tag, data) version per page.
            assert len(versions) == 1
            tag, _ = versions.pop()
            assert tag >= 1


class TestHarness:
    @pytest.mark.parametrize("app,params", [
        ("sor", SorParams.tiny()),
        ("tsp", TspParams.tiny()),
    ])
    def test_apps_verify_under_replication(self, app, params):
        par = verified_run(app, params, "tmk", 4,
                           replication=ReplicationConfig(replicas=3))
        assert par.replication is not None
        assert par.replication.replicas == 3
        assert par.replication.masked_failures == 0
        assert par.replication.quorum_reads > 0
        assert par.replication.messages > 0
        assert par.nprocs == 4 and len(par.endpoints) == 4

    def test_replication_requires_tmk(self):
        with pytest.raises(ValueError, match="requires system='tmk'"):
            base.run_parallel("sor", "pvm", 2, SorParams.tiny(),
                              replication=ReplicationConfig())

    def test_replication_excludes_sanitizer(self):
        from repro.analysis.races import AnalysisConfig
        with pytest.raises(ValueError, match="sanitizer"):
            base.run_parallel("sor", "tmk", 2, SorParams.tiny(),
                              analysis=AnalysisConfig(race_check="report"),
                              replication=ReplicationConfig())

    def test_plain_run_carries_no_replication_machinery(self):
        # The gating contract: without a replication config nothing of
        # the SC-ABD layer exists -- no replica servers, no "replication"
        # stats system -- so fault-free runs stay byte-identical to the
        # pre-replication simulator.
        par = base.run_parallel("sor", "tmk", 2, SorParams.tiny())
        assert par.replication is None
        assert par.stats.total("replication").messages == 0
        assert not par.stats.by_category("replication")
        assert par.cluster.results[-1] is not None  # no idle daemon ranks


def _crash_plan(*crashes):
    return FaultPlan(crash_at=tuple(crashes))


class TestFailureMasking:
    """The tentpole invariant: a quorum-minority crash changes nothing."""

    def _sor_run(self, nclients=4, replicas=3, faults=None, trace=None):
        spec = base.get_app("sor")
        par = base.run_parallel(spec, "tmk", nclients, SorParams.tiny(),
                                replication=ReplicationConfig(replicas),
                                faults=faults, trace=trace)
        return par

    def test_minority_replica_crash_is_masked(self):
        clean = self._sor_run()
        t_crash = 0.5 * clean.cluster.elapsed
        trace = Trace()
        masked = self._sor_run(faults=_crash_plan((4, t_crash)), trace=trace)
        # Byte-identical result, not merely "verifies": masking replays
        # nothing and loses nothing.
        assert np.array_equal(masked.result, clean.result)
        # The detector only sent heartbeats; no failure was declared.
        assert set(masked.stats.recovery()) == {"heartbeat"}
        assert not trace.of_kind("node_failure")
        # The ledger shows exactly one absorbed crash.
        rep = masked.replication
        assert rep.masked_nodes == [4]
        assert rep.masked_failures == 1
        assert rep.detection_latency > 0
        event, = trace.of_kind("node_masked")
        assert event.pid == 4
        # The masked replica stops receiving quorum traffic...
        endpoint = masked.endpoints[0]
        assert endpoint.system.live_replicas() == [5, 6]
        # ...and the run still completed every application rank.
        assert len(masked.cluster.results) == 7
        assert all(r is None for r in masked.cluster.results[4:])

    def test_double_crash_masked_with_five_replicas(self):
        clean = self._sor_run(replicas=5)
        t1 = 0.4 * clean.cluster.elapsed
        t2 = 0.6 * clean.cluster.elapsed
        masked = self._sor_run(replicas=5,
                               faults=_crash_plan((4, t1), (6, t2)))
        assert np.array_equal(masked.result, clean.result)
        assert masked.replication.masked_nodes == [4, 6]
        assert masked.endpoints[0].system.live_replicas() == [5, 7, 8]

    def test_majority_replica_crash_aborts_cleanly(self):
        clean = self._sor_run()
        t1 = 0.3 * clean.cluster.elapsed
        t2 = 0.5 * clean.cluster.elapsed
        # replicas=3 masks one crash; the second is one too many.
        with pytest.raises(NodeFailure):
            self._sor_run(faults=_crash_plan((4, t1), (5, t2)))

    def test_triple_crash_aborts_even_with_five_replicas(self):
        clean = self._sor_run(replicas=5)
        times = [0.3, 0.45, 0.6]
        plan = _crash_plan(*[(4 + i, frac * clean.cluster.elapsed)
                             for i, frac in enumerate(times)])
        with pytest.raises(NodeFailure):
            self._sor_run(replicas=5, faults=plan)

    def test_application_rank_crash_is_never_masked(self):
        clean = self._sor_run()
        with pytest.raises(NodeFailure) as exc:
            self._sor_run(faults=_crash_plan((1, 0.5 * clean.cluster.elapsed)))
        assert exc.value.failed == 1

    def test_crash_during_quorum_write_round(self):
        # Aim the crash at the instant a writer starts flushing: the
        # trace of the fault-free run tells us when a write fault (and
        # with it the quorum-write round it triggers) is in flight.
        probe_trace = Trace()
        clean = self._sor_run(trace=probe_trace)
        write_faults = [e for e in probe_trace.of_kind("scabd_fault")
                        if "write" in e.detail
                        and e.time > 0.2 * clean.cluster.elapsed]
        assert write_faults
        t_crash = write_faults[len(write_faults) // 2].time
        masked = self._sor_run(faults=_crash_plan((4, t_crash)))
        assert np.array_equal(masked.result, clean.result)
        assert masked.replication.masked_nodes == [4]

    def test_tsp_minority_crash_is_masked(self):
        spec = base.get_app("tsp")
        repl = ReplicationConfig(3)
        clean = base.run_parallel(spec, "tmk", 4, TspParams.tiny(),
                                  replication=repl)
        crash = ((5, 0.5 * clean.cluster.elapsed),)
        # The crash alone, then with message loss on top of it.
        for plan in (FaultPlan(crash_at=crash),
                     FaultPlan(seed=7, loss=0.01, crash_at=crash)):
            masked = base.run_parallel(spec, "tmk", 4, TspParams.tiny(),
                                       replication=repl, faults=plan)
            assert masked.result == clean.result
            assert masked.replication.masked_nodes == [5]

    def test_masking_survives_loss_on_top_of_the_crash(self):
        clean = self._sor_run()
        plan = FaultPlan(seed=9, loss=0.01,
                         crash_at=((4, 0.5 * clean.cluster.elapsed),))
        masked = self._sor_run(faults=plan)
        assert np.array_equal(masked.result, clean.result)
        assert masked.replication.masked_nodes == [4]


ROOT = Path(__file__).resolve().parents[2]


def test_bench_ft_claims_hold():
    """``BENCH_ft.json``'s ``claims_hold`` is what the tool's own
    :func:`check` says of the committed scenarios, and it is true (the
    report is read, not re-run)."""
    spec = importlib.util.spec_from_file_location(
        "bench_ft_compare", ROOT / "tools" / "bench_ft_compare.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    report = json.loads((ROOT / "BENCH_ft.json").read_text())
    assert tool.check(report) == []
    assert report["claims_hold"] is True
