"""Shared helpers for the TreadMarks test suite."""

import pytest

from repro.sim.cluster import Cluster, ClusterConfig
from repro.tmk.api import attach_tmk


@pytest.fixture
def tmk_run():
    """Run ``fn(proc)`` on a fresh TreadMarks cluster; returns the
    ClusterResult.  Usage: ``result = tmk_run(fn, nprocs=4)``."""

    def runner(fn, nprocs=1, config=None, trace=None, cost=None):
        cluster = Cluster(nprocs, config=ClusterConfig(
            cost=cost, trace=trace))
        attach_tmk(cluster, config)
        return cluster.run(fn)

    return runner
