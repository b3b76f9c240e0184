"""Shared helpers for the sanitizer test suite."""

import pytest

from repro.analysis import AnalysisConfig, attach_sanitizer
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.trace import Trace
from repro.tmk.api import attach_tmk


@pytest.fixture
def san_run():
    """Run ``fn(proc)`` on a TreadMarks cluster with the sanitizer
    attached; returns ``(sanitizer, ClusterResult)``."""

    def runner(fn, nprocs=4, config=None, tmk_config=None):
        cluster = Cluster(nprocs, config=ClusterConfig(trace=Trace()))
        endpoints = attach_tmk(cluster, tmk_config)
        sanitizer = attach_sanitizer(
            cluster, endpoints,
            config if config is not None
            else AnalysisConfig(race_check="report"))
        result = cluster.run(fn)
        return sanitizer, result

    return runner
